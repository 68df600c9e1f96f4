package search

import (
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"fairmc/internal/engine"
	"fairmc/internal/obs"
	"fairmc/internal/por"
	"fairmc/internal/rng"
	"fairmc/internal/tidset"
	"fairmc/progs"
)

// refSeen is the merge's dedup set as it was before the path trie:
// every path rendered into a string key of one map, every prefix of a
// consumed path marked apart. Quadratic in the path length and all of
// it retained, which is why it is gone from the merger — and obviously
// right, which is why it stays here as the oracle.
type refSeen map[string]bool

func pathKey(path []int) string {
	var b strings.Builder
	for i, v := range path {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

func (s refSeen) markPath(path []int) {
	for k := 1; k <= len(path); k++ {
		s[pathKey(path[:k])] = true
	}
}

// leafKeys is the key set the trie's leaves stand for: every non-empty
// prefix of every leaf.
func leafKeys(leaves []DporTraceRec) refSeen {
	keys := refSeen{}
	for _, tr := range leaves {
		keys.markPath(tr.Path)
	}
	return keys
}

// refChild is one spawn the oracle expects: the child's path and the
// siblings (by alternative index) asleep at its branch point.
type refChild struct {
	path     []int
	sleepers []int
}

// TestPathTrieMatchesReference drives ShardMerger.spawn and the oracle
// with the same generated sequences of (consumed full path, proposals)
// — the units consumed in plan order, as the merge does — and demands
// the same children, the same sleeping siblings and the same prune
// count after every unit, and at the end that the trie's leaves stand
// for exactly the oracle's keys and rebuild the trie.
func TestPathTrieMatchesReference(t *testing.T) {
	const width, depth, maxUnits = 4, 10, 400
	units, prunes := 0, int64(0)
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		metrics := obs.NewMetrics()
		opts := Options{DPOR: true, SleepSets: true, DisableConformance: true, Metrics: metrics}
		plan := &Plan{Shards: []Shard{{Unit: &por.Unit{}}}}
		m := NewShardMerger(opts, plan)
		ref := refSeen{}
		var pruned int64
		for i := 0; i < len(plan.Shards) && i < maxUnits; i++ {
			unit := plan.Shards[i].Unit
			if i > 0 && r.Intn(10) == 0 {
				m.spawn(unit, nil) // skipped: its path was marked when it was spawned
				continue
			}
			d := &DporResult{}
			for n := depth - len(unit.Path) - r.Intn(3); n > 0; n-- {
				d.ContIdx = append(d.ContIdx, r.Intn(width))
				d.Cont = append(d.Cont, engine.Alt{})
			}
			full := append(append([]int(nil), unit.Path...), d.ContIdx...)
			for n := 1 + r.Intn(8); n > 0 && len(full) > 0; n-- {
				pos := r.Intn(len(full))
				d.Proposals = append(d.Proposals, DporProposal{Pos: pos, Idx: r.Intn(width)})
				node := DporNodeRec{Pos: pos}
				for j := 0; j < width; j++ {
					node.Alts = append(node.Alts, engine.Alt{Tid: tidset.Tid(j)})
					node.Moves = append(node.Moves, por.Move{Tid: tidset.Tid(j)})
				}
				d.Nodes = append(d.Nodes, node)
			}

			ref.markPath(full)
			var want []refChild
			for _, pr := range d.Proposals {
				sib := func(j int) string { return pathKey(append(full[:pr.Pos:pr.Pos], j)) }
				if ref[sib(pr.Idx)] {
					pruned++
					continue
				}
				ref[sib(pr.Idx)] = true
				c := refChild{path: append(full[:pr.Pos:pr.Pos], pr.Idx)}
				for j := 0; j < width; j++ {
					if j != pr.Idx && ref[sib(j)] {
						c.sleepers = append(c.sleepers, j)
					}
				}
				want = append(want, c)
			}

			before := len(plan.Shards)
			m.spawn(unit, &Report{Dpor: d})
			var got []refChild
			for _, sh := range plan.Shards[before:] {
				c := refChild{path: sh.Unit.Path}
				for _, mv := range sh.Unit.Sleep[len(sh.Unit.Path)-1] {
					c.sleepers = append(c.sleepers, int(mv.Tid))
				}
				got = append(got, c)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d unit %d (path %v, full %v, proposals %v): spawned %+v, the reference spawns %+v",
					seed, i, unit.Path, full, d.Proposals, got, want)
			}
			if p := metrics.Snapshot().DporUnitsPruned; p != pruned {
				t.Fatalf("seed %d unit %d: %d reversals pruned so far, the reference prunes %d", seed, i, p, pruned)
			}
		}
		units, prunes = units+len(plan.Shards), prunes+pruned
		leaves := m.seen.leaves(0, nil, nil)
		if keys := leafKeys(leaves); !reflect.DeepEqual(keys, ref) || len(m.seen)-1 != len(ref) {
			t.Fatalf("seed %d: the trie's %d leaves stand for %d keys in %d nodes, the reference holds %d",
				seed, len(leaves), len(keys), len(m.seen)-1, len(ref))
		}
		rebuilt := pathTrie{{}}
		for _, tr := range leaves {
			rebuilt.addPath(tr.Path)
		}
		if !reflect.DeepEqual(leafKeys(rebuilt.leaves(0, nil, nil)), ref) || len(rebuilt) != len(m.seen) {
			t.Fatalf("seed %d: the leaves do not rebuild the set (%d nodes from %d)", seed, len(rebuilt), len(m.seen))
		}
	}
	if units < 4000 || prunes < 1000 {
		t.Fatalf("only %d units and %d prunes over all seeds: the generator is too weak to tell the sets apart", units, prunes)
	}
}

// TestDporParentShapeFrontierRestores: a checkpoint whose Traces are
// one record per consumed unit, its full path — the shape the build
// before the trie wrote, not the trie's leaves — restores the same dedup
// set as this build's leaf records, and the search resumed from it ends
// in the uninterrupted report.
func TestDporParentShapeFrontierRestores(t *testing.T) {
	p, ok := progs.Lookup("boundedbuffer")
	if !ok {
		t.Fatal("boundedbuffer is not registered")
	}
	opts := Options{ContextBound: -1, MaxSteps: 5000, DPOR: true, MaxExecutions: 1500, ProgramName: "boundedbuffer"}
	want := Explore(p.Body, opts)
	if !want.ExecBounded || want.Executions != opts.MaxExecutions {
		t.Fatalf("baseline did not spend its budget: %+v", want)
	}

	const consumed = 600
	single := opts
	single.Parallelism = 1
	plan := planShards(p.Body, &single, 1)
	m := NewShardMerger(opts, plan)
	var pool engine.Pool
	defer pool.Close()
	var traces []DporTraceRec
	for i := 0; i < consumed; i++ {
		sh := plan.Shards[i]
		rec := DporTraceRec{Path: append([]int(nil), sh.Unit.Path...)}
		rep := runShard(p.Body, &single, sh, &pool, time.Time{})
		if rep.Dpor != nil {
			rec.Path = append(rec.Path, rep.Dpor.ContIdx...)
		}
		traces = append(traces, rec)
		m.Offer(i, rep)
	}
	if m.Merged() != consumed || m.Done() {
		t.Fatalf("merged %d of %d units, done=%v", m.Merged(), consumed, m.Done())
	}
	ck := buildCheckpoint(&opts, m.rep, m.frontier(), 0, false)
	own := leafKeys(ck.Frontier.Traces)
	ck.Frontier.Traces = traces

	// Through the file format, as a resume reads it.
	data, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	ck = &Checkpoint{}
	if err := json.Unmarshal(data, ck); err != nil {
		t.Fatal(err)
	}
	if ck.Version != CheckpointVersion {
		t.Fatalf("checkpoint version %d, want %d", ck.Version, CheckpointVersion)
	}
	restored := NewShardMerger(opts, &Plan{RefParallelism: 1})
	restored.restore(ck)
	if got := leafKeys(restored.seen.leaves(0, nil, nil)); !reflect.DeepEqual(got, own) {
		t.Fatalf("per-unit full-path records restore %d keys, this build's leaf records %d", len(got), len(own))
	}

	resumed := opts
	resumed.Resume = ck
	got := Explore(p.Body, resumed)
	got.Elapsed, want.Elapsed = 0, 0
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("resumed report differs from the uninterrupted one:\n%+v\nvs\n%+v", want, got)
	}
}
