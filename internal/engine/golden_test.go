package engine_test

import (
	"encoding/binary"
	"hash/fnv"
	"strings"
	"testing"

	"fairmc/conc"
	"fairmc/internal/core"
	"fairmc/internal/engine"
	"fairmc/internal/rng"
	"fairmc/progs"
)

// goldenWalks is how many seeded fair random walks each program runs.
const goldenWalks = 100

// goldenHashes pins, per program and memory model, one FNV-1a hash over
// the outcome, schedule, trace, digests and per-thread statistics of
// goldenWalks seeded fair random walks on one pooled engine. The
// constants were computed at the commit before ops moved into reusable
// per-thread slots (43fc6f8), so every operation of every model object
// — in particular the multi-phase ones: Cond.Wait, Once, Barrier,
// RWMutex, Channel send/recv, the TSO store → flush/fence chain —
// still describes itself (Info), gates itself (Enabled) and takes
// effect exactly as it did when each step owned a fresh op object, and
// when every op, guarded or not, was asked Enabled at every step. The
// walks check invariants, so the enabled set the engine builds from its
// op bits is compared at every step with a recount from every thread
// record. A change that means to alter schedules, traces or digests
// takes the new hashes from the failure output.
var goldenHashes = map[string]uint64{
	"ape":                           0xae085fb87f1c25ff,
	"bakery-2":                      0xc5e0970be385b,
	"bakery-bug":                    0x2ca3c80ec67934e5,
	"barrier":                       0xf4d7d85fb35b6836,
	"barrier-bug":                   0xf61acc9e7f11421d,
	"boundedbuffer":                 0x1d3bf90595ca46e,
	"dryad-bug1-unlocked-occupancy": 0xcabc9c41986e3a13,
	"dryad-bug2-read-after-release": 0xcbfe4c135c2d375d,
	"dryad-bug3-lost-wakeup":        0x9e15c2605484153a,
	"dryad-bug4-reset-race":         0xb49e05598e663c51,
	"dryad-channels":                0x6b9985ab59d1b8f6,
	"dryad-fifo":                    0x555647961bb8dc27,
	"every-op-tso":                  0x6c3b5f3d1e244a42,
	"every-op-tso/tso":              0x382d6f517e1dfbaf,
	"litmus-lb":                     0x37baa25f33083815,
	"litmus-lb/tso":                 0x65fe263dd6d31798,
	"litmus-mp":                     0x53e84b328b6d5b84,
	"litmus-mp/tso":                 0x6eeea1f4bc81e76a,
	"litmus-sb":                     0x3e649820e5ccc7af,
	"litmus-sb/tso":                 0xd027fa9165cc240d,
	"litmus-sb-fenced":              0xc810a194a931f41d,
	"litmus-sb-fenced/tso":          0xaecc769754d82a8b,
	"msqueue":                       0x77baaa570b93efc6,
	"msqueue-bug":                   0x87f41e965bef66f8,
	"peterson":                      0xde07de1418357e55,
	"peterson-bug":                  0xd57f7efd769aa0db,
	"peterson-tso":                  0xea8cd98c693fe9d2,
	"peterson-tso/tso":              0xb19a3071351e9f0b,
	"peterson-tso-fenced":           0x64d21926dc51ab46,
	"peterson-tso-fenced/tso":       0x1ae47a6e51358951,
	"philosophers-2":                0x63cda048efc4b772,
	"philosophers-3":                0xf946dd01b846cc51,
	"philosophers-try-2":            0xd3ee87d18b9114b9,
	"philosophers-try-3":            0xbe9d6956430781e3,
	"promise":                       0xd46ba5ce3ea17ae5,
	"promise-livelock":              0x96aae23e59b3ce54,
	"readerswriters":                0xa1a2fd0a1c7aff09,
	"seqlock":                       0xe8fa1e1fd954e2bd,
	"seqlock-torn":                  0x16d874d626feb72,
	"seqlock-tso":                   0xc259cbbe9c3841d0,
	"seqlock-tso/tso":               0x237ac98a63d0bc54,
	"seqlock-tso-fenced":            0x47c8907068eb3417,
	"seqlock-tso-fenced/tso":        0xd23c4db93a511046,
	"singularity":                   0x4dff878d79161e6c,
	"singularity-disk":              0x43c2b44577ec8b2d,
	"singularity-small":             0x514831f4f16dbe9e,
	"spinloop":                      0x63abec82d9305fa4,
	"spinloop-noyield":              0x9bedd5edd817ae03,
	"ticketlock":                    0x4a3fc3c37155872d,
	"treiber":                       0xfe13ea5d8276b5df,
	"treiber-aba":                   0xc8f0dd700e74b95d,
	"wm-tso-livelock":               0x40f5ac617c066e7b,
	"wm-tso-livelock/tso":           0x253a224229fb670f,
	"wm-tso-livelock-fenced":        0xae1ce16b7092739a,
	"wm-tso-livelock-fenced/tso":    0xd7863e7d938e5ef1,
	"workergroup":                   0xe209f9cdb860caa4,
	"workergroup-spin":              0x2c19bada2c4ff25d,
	"wsq-1":                         0x51f7f721dab0b8f3,
	"wsq-2":                         0xcfc208cbdae7a3ec,
	"wsq-bug1-pop-fastpath":         0xaa39c1b90f9ed0ec,
	"wsq-bug2-lockfree-steal":       0x79cdc016ee54e53a,
	"wsq-bug3-stale-head":           0xc8f03726ef431c9e,
}

// goldenTSO reports whether the program is also walked under TSO: the
// ones written against conc.Memory.
func goldenTSO(name string) bool {
	return strings.HasPrefix(name, "litmus-") || strings.Contains(name, "tso")
}

// walkHash runs the walks of one program and hashes everything they
// record. Odd walks run with the fast path off: the two modes are
// byte-identical by contract and share the slots.
func walkHash(t *testing.T, p progs.Program, mm core.MemModel) uint64 {
	h := fnv.New64a()
	var b []byte
	str := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	info := func(i engine.OpInfo) {
		str(i.Kind)
		b = binary.AppendVarint(b, int64(i.Obj))
		b = binary.AppendVarint(b, i.Aux)
	}
	var pool engine.Pool
	defer pool.Close()
	for w := 0; w < goldenWalks; w++ {
		r := rng.New(rng.Mix(0x9e3779b97f4a7c15, uint64(w)))
		res := pool.Run(p.Body, engine.FuncChooser(func(ctx *engine.ChooseContext) (engine.Alt, bool) {
			return ctx.Cands[r.Intn(len(ctx.Cands))], true
		}), engine.Config{
			Fair: true, MaxSteps: 1500, RecordTrace: true, RecordDigests: true,
			MemModel: mm, NoFastPath: w%2 == 1, CheckInvariants: true,
		})
		if len(res.Trace) != len(res.Schedule) || len(res.Digests) != len(res.Schedule) {
			t.Fatalf("%s walk %d: %d scheduled steps, %d traced, %d digested",
				p.Name, w, len(res.Schedule), len(res.Trace), len(res.Digests))
		}
		b = b[:0]
		b = append(b, byte(res.Outcome))
		b = binary.AppendVarint(b, res.Steps)
		b = binary.AppendVarint(b, res.Yields)
		for i, a := range res.Schedule {
			b = binary.AppendVarint(b, int64(a.Tid))
			b = binary.AppendVarint(b, int64(a.Arg))
			s := res.Trace[i]
			info(s.Info)
			b = binary.AppendVarint(b, int64(s.EnabledAfter))
			if s.Yield {
				b = append(b, 1)
			}
			d := res.Digests[i]
			b = binary.AppendUvarint(b, d.Hash)
			b = binary.AppendVarint(b, int64(d.Tid))
			info(d.Op)
		}
		for _, ts := range res.PerThread {
			str(ts.Name)
			b = binary.AppendVarint(b, ts.Steps)
			b = binary.AppendVarint(b, ts.Yields)
		}
		for _, bl := range res.Blocked {
			b = binary.AppendVarint(b, int64(bl.Tid))
			info(bl.Op)
		}
		if v := res.Violation; v != nil && !v.IsPanic {
			str(v.Msg)
		}
		h.Write(b)
	}
	return h.Sum64()
}

// everyOp touches the operations no registry program uses (Semaphore,
// Once, Barrier, AnyVar, the try/timeout variants, rendezvous and
// closed channels, Sleep, Choose, Drain), several threads at a time, so
// the golden covers every op kind the model objects publish.
func everyOp(t *conc.T) {
	sem := conc.NewSemaphore(t, "sem", 1, 2)
	once := conc.NewOnce(t, "once")
	bar := conc.NewBarrier(t, "bar", 3)
	box := conc.NewAnyVar(t, "box", "empty")
	ev := conc.NewEvent(t, "ev", false, false)
	mu := conc.NewMutex(t, "mu")
	cv := conc.NewCond(t, "cv", mu)
	rw := conc.NewRWMutex(t, "rw")
	rdv := conc.NewChannel(t, "rdv", 0)
	buf := conc.NewChannel(t, "buf", 1)
	n := conc.NewIntVar(t, "n", 0)
	arr := conc.NewIntArray(t, "arr", 3)
	mem := conc.NewMemory(t, "mem", 2)
	wg := conc.NewWaitGroup(t, "wg", 3)
	var hs []*conc.Handle
	for i := 0; i < 3; i++ {
		i := i
		hs = append(hs, t.Go("w", func(t *conc.T) {
			once.Do(t, func(t *conc.T) { box.Store(t, "full") })
			if !sem.TryAcquire(t) {
				for !sem.AcquireTimeout(t) {
				}
			}
			arr.Set(t, i, n.Add(t, 1)+int64(t.Choose(2)))
			sem.Release(t, 1)
			bar.Await(t)
			mem.Store(t, i%2, int64(i))
			mem.Fence(t)
			rw.RLock(t)
			_ = box.Load(t)
			_ = mem.Load(t, i%2)
			rw.RUnlock(t)
			if i == 0 {
				rdv.Send(t, 7)
				for !buf.TrySend(t, 8) {
					t.Sleep(1)
				}
				rw.Lock(t)
				n.Swap(t, arr.Get(t, 1))
				rw.Unlock(t)
				ev.Set(t)
			} else if i == 1 {
				v, _ := rdv.Recv(t)
				n.CompareAndSwap(t, 3, v)
				for !ev.WaitTimeout(t) {
				}
				ev.Reset(t)
			} else {
				for {
					if _, _, got := buf.TryRecv(t); got {
						break
					}
					t.Yield()
				}
				sem.Acquire(t)
			}
			mu.Lock(t)
			n.Store(t, n.Load(t)+1)
			if i == 2 {
				cv.Broadcast(t)
			} else {
				cv.Signal(t)
			}
			mu.Unlock(t)
			wg.Done(t)
		}))
	}
	mu.Lock(t)
	for n.Load(t) == 0 && !mu.LockTimeout(t) {
		cv.Wait(t)
	}
	mu.Unlock(t)
	wg.Wait(t)
	mem.Drain(t)
	buf.Close(t)
	_, _ = buf.Recv(t)
	for _, h := range hs {
		h.Join(t)
	}
}

func TestRegistryTraceGolden(t *testing.T) {
	all := append(progs.All(), progs.Program{Name: "every-op-tso", Body: everyOp})
	for _, p := range all {
		if p.Name == "nondet-counter" {
			continue // reads a counter that survives executions, on purpose
		}
		models := []core.MemModel{core.MemSC}
		if goldenTSO(p.Name) {
			models = append(models, core.MemTSO)
		}
		for _, mm := range models {
			key := p.Name
			if mm == core.MemTSO {
				key += "/tso"
			}
			got := walkHash(t, p, mm)
			want, ok := goldenHashes[key]
			if !ok {
				t.Errorf("%s: no golden hash (got %#x)", key, got)
			} else if got != want {
				t.Errorf("%s: trace hash %#x, want %#x: schedules, traces or digests changed", key, got, want)
			}
		}
	}
}
