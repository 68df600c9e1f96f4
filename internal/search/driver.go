package search

import (
	"fmt"
	"maps"
	"runtime/debug"
	"sync"
	"time"

	"fairmc/internal/engine"
)

// This file is the one parallel exploration driver. Stateless model
// checking is embarrassingly parallel — every execution is an
// independent replay from the initial state, and Algorithm 1's P/E/D/S
// state lives inside one engine and never outlives one execution — so
// every strategy is the same loop: plan the schedule space as an ordered
// list of shards (shard.go), run them on P workers that share nothing
// but a queue, and merge the reports strictly in plan order
// (ShardMerger). Range shards for the random strategies, frontier
// prefixes for the systematic ones and race-reversal units for DPOR are
// three shard kinds of that one loop; the distributed coordinator and
// the jobs service run the same plan and the same merge with the
// workers in other processes.
//
// Selecting FirstBug/Divergence by plan position — never by wall-clock
// arrival — is what makes the output reproducible regardless of worker
// count and timing: for budgets expressed in executions or exhaustion
// the merged Report is byte-identical to the sequential one (above
// Parallelism 1, MaxExecutions is quantized to prefix granularity in a
// systematic search; a wall-clock TimeLimit stops wherever the clock
// strikes, as always).
//
// Fault isolation: every shard runs under recover(). A crash is
// recorded as a structured WorkerFailure and the shard is requeued
// once, then merged as Skipped. One crashing shard therefore costs at
// most its own coverage, never the process or the other workers' merged
// results.

// workerAttempts bounds how often a crashing shard is tried before it
// is abandoned as Skipped: the first attempt plus one retry.
const workerAttempts = 2

// WorkerFailure is one recovered parallel-worker crash.
type WorkerFailure struct {
	// Mode is the kind of shard the worker crashed on: "stride" (an
	// execution-index range), "prefix" or "dpor" locally, "dist" for a
	// shard a distributed coordinator gave up on.
	Mode string `json:"mode"`
	// Unit is the shard's index in the plan.
	Unit int64 `json:"unit"`
	// Attempt is the 1-based attempt that crashed.
	Attempt int `json:"attempt"`
	// Panic is the stringified panic value; Stack the goroutine stack.
	Panic string `json:"panic"`
	Stack string `json:"stack"`
}

// workerFaultHook, when non-nil, runs at the start of every shard.
// Fault-injection tests install a panicking hook here to exercise the
// isolation path; production never sets it.
var workerFaultHook func(mode string, unit int64)

// shardQueue hands the plan's shards to the workers: fresh indices in
// plan order, crashed ones again for their retry. The plan grows while
// workers run (the merge publishes DPOR children and further ranges),
// so idle workers block until more work arrives or the queue closes.
type shardQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	shards []Shard // the plan as far as the merge has published it
	next   int
	// held are the shards whose recorded reports wait in the merge (a
	// resumed checkpoint's): they do not run again.
	held  map[int]*Report
	retry []int
	done  chan struct{} // closed with the queue: running shards are dead work
}

// publish makes the plan's current extent claimable.
func (q *shardQueue) publish(p *Plan) {
	q.mu.Lock()
	q.shards = p.Shards
	q.mu.Unlock()
	q.cond.Broadcast()
}

// requeue schedules a crashed shard for another attempt. It is only
// called after the failing attempt returned, so attempts never run
// concurrently with themselves.
func (q *shardQueue) requeue(idx int) {
	q.mu.Lock()
	q.retry = append(q.retry, idx)
	q.mu.Unlock()
	q.cond.Broadcast()
}

func (q *shardQueue) close() {
	q.mu.Lock()
	close(q.done)
	q.mu.Unlock()
	q.cond.Broadcast()
}

// get claims the next shard, retries first; ok=false means the queue
// closed.
func (q *shardQueue) get() (sh Shard, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !isClosed(q.done) {
		if len(q.retry) > 0 {
			sh, q.retry = q.shards[q.retry[0]], q.retry[1:]
			return sh, true
		}
		for q.next < len(q.shards) {
			q.next++
			if _, held := q.held[q.next-1]; !held {
				return q.shards[q.next-1], true
			}
		}
		q.cond.Wait()
	}
	return Shard{}, false
}

// shardResult is one attempt at one shard: its report, or the crash.
type shardResult struct {
	idx  int
	rep  *Report
	fail *WorkerFailure
}

// runShardRecover runs shard sh under recover: a crash anywhere below
// run — program, engine or searcher — becomes a recorded WorkerFailure
// instead of a process abort.
func runShardRecover(sh Shard, run func() *Report) (res shardResult) {
	res.idx = sh.Index
	defer func() {
		if p := recover(); p != nil {
			res.fail = &WorkerFailure{Mode: sh.kind(), Unit: int64(sh.Index),
				Panic: fmt.Sprint(p), Stack: string(debug.Stack())}
		}
	}()
	if h := workerFaultHook; h != nil {
		h(sh.kind(), int64(sh.Index))
	}
	res.rep = run()
	return res
}

// exploreSharded is the driver for every search that is not one
// sequential searcher: Parallelism > 1 of any strategy, DPOR at any
// Parallelism, and every search that checkpoints. P workers, each owning
// one engine pool, pull shards from the queue; this goroutine merges
// their reports in plan order, grows the plan, records every report in
// the checkpoint directory before merging it (checkpoint.go), and stops
// everything at the first of: plan merged, a finding, a budget, the
// deadline, Stop.
//
// A serial plan (Parallelism 1, other than DPOR) has its shards run one
// after another in this goroutine instead — a systematic search's one
// shard, the whole tree, every shard numbering its executions on from
// the ones merged before it (Shard.Lo) — so the execution budget, the
// random tails and the finding indices are the sequential search's. A
// shard pauses when a checkpoint comes due and merges what it ran, its
// report naming a shard for the rest of its subtree or range
// (Report.Rest) that the merge splices in after it, so a checkpoint is
// never further behind than the interval; the paused searcher then runs
// that rest itself.
func exploreSharded(prog func(*engine.T), opts Options) *Report {
	p := max(opts.Parallelism, 1)
	start := time.Now()
	deadline := opts.deadlineFrom(start)

	sub := opts
	sub.Parallelism = 1
	sub.TimeLimit = 0       // the shared deadline is passed explicitly
	sub.CheckpointPath = "" // the driver records the merge's progress
	m, ck := openCheckpoint(&opts, func() *Plan { return planShards(prog, &sub, p, p == 1 && !opts.DPOR) })
	elapsed := func() time.Duration { return ck.elapsed + time.Since(start) }
	var failures []WorkerFailure
	attempts := map[int]int{} // failed attempts per shard

	q := &shardQueue{next: m.next, held: maps.Clone(m.pending), done: make(chan struct{})}
	q.cond = sync.NewCond(&q.mu)
	q.publish(m.plan)
	// Stop reaches the shards, and the executions they are running,
	// through the queue; a serial shard, run by this goroutine, watches
	// Stop itself.
	sub.Stop = q.done
	workers := p
	if m.serial {
		sub.Stop, workers = opts.Stop, 0
	}
	var serialPool engine.Pool
	defer serialPool.Close()
	results := make(chan shardResult, p) // one slot per sender: a worker never waits on the merge to start its next shard
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var pool engine.Pool
			defer pool.Close()
			for {
				sh, ok := q.get()
				if !ok {
					return
				}
				res := runShardRecover(sh, func() *Report { return runShard(prog, &sub, sh, &pool, deadline) })
				select {
				case results <- res:
				case <-q.done:
					return
				}
			}
		}()
	}

	iv, lastCkpt := opts.CheckpointInterval, start
	if iv <= 0 {
		iv = defaultCheckpointInterval
	}
	// due reports a checkpoint due; a serial shard pauses for it.
	due := func() bool { return ck.led != nil && time.Since(lastCkpt) >= iv }
	var cur *searcher // a paused serial shard's searcher, which runs its rest
	for !m.Done() {
		var res shardResult
		if m.serial {
			sh := m.plan.Shards[m.next] // the next unmerged shard, or its retry
			res = runShardRecover(sh, func() *Report {
				if cur == nil {
					cur = newSearcher(prog, &sub, sh, &serialPool, deadline)
					cur.due = due
				}
				return cur.runSerial()
			})
			if res.rep == nil || res.rep.Rest == nil {
				cur = nil // done, cut, or crashed: a retry starts afresh
			}
		} else {
			select {
			case <-opts.Stop:
				m.interrupt()
				continue
			case res = <-results:
			}
		}
		if res.fail != nil {
			attempts[res.idx]++
			res.fail.Attempt = attempts[res.idx]
			failures = append(failures, *res.fail)
			if mt := opts.Metrics; mt != nil {
				mt.WorkerRetries.Inc()
			}
			if attempts[res.idx] < workerAttempts {
				q.requeue(res.idx)
				continue
			}
			// Retry budget spent: res.rep == nil merges as Skipped.
		}
		// A shard cut by the deadline reports TimedOut, which stops the
		// merge resumably when its turn comes; MaxExecutions is checked
		// by the merger ahead of every shard. The report is recorded
		// before the merge takes it.
		ck.done(&res, &m.plan.Shards[res.idx], elapsed())
		m.Offer(res.idx, res.rep)
		q.publish(m.plan)
		if mt := opts.Metrics; mt != nil {
			unmerged := int64(len(m.plan.Shards) - m.next)
			mt.Frontier.Set(unmerged)
			if opts.DPOR {
				mt.DporUnitQueue.Set(unmerged)
			}
		}
		if due() {
			ck.sync(m.rep.Executions)
			lastCkpt = time.Now()
		}
	}
	q.close()
	wg.Wait()

	rep := m.Finish(elapsed(), failures)
	ck.close(rep)
	return rep
}
