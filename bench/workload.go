package main

import (
	"fmt"
	"time"

	"fairmc/internal/engine"
	"fairmc/internal/obs"
	"fairmc/internal/search"
)

// sizing is how much one run measures. The command line fixes
// everything but seconds; the smoke test shrinks all of it.
type sizing struct {
	seconds  float64       // how long the timed repetitions should take
	setups   int           // set-ups in an untraced run; setup_s is their median
	minReps  int           // fewest timed repetitions in an untraced run
	minPairs int           // fewest (plain, traced) repetition pairs in a traced run
	probe    time.Duration // how long each time-boxed probe measurement runs
}

// nominalRepS is the size every workload's repetition is cut to on the
// reference machine. The repetition count follows from it and from
// --seconds alone, never from the clock, so that a run's operation
// count, its peak memory and its allocation total do not depend on how
// fast the run happened to go.
const nominalRepS = 2.5

func (sz sizing) reps() int  { return max(sz.minReps, int(sz.seconds/nominalRepS+0.5)) }
func (sz sizing) pairs() int { return max(sz.minPairs, int(sz.seconds/(2*nominalRepS)+0.5)) }

// repetition is one complete, verified unit of a workload's work: one
// check for the search workloads, one batch of jobs for the service.
type repetition struct {
	wallS       float64
	executions  int64     // executions the verdict(s) needed
	latenciesMS []float64 // one per operation: a check, or a job from submit to artifact
	failures    []string  // one per failed operation
	jobs        []jobRecord
	ledgerBytes int64 // growth of the ledger directory over the repetition
}

// instance is a workload that has been set up and can repeat its work.
type instance interface {
	// repeat runs one repetition, recording spans under parent.
	repeat(tr *tracer, parent int) repetition
	// counts is what the instance's layers have counted so far in the
	// public obs registry; all zero for an untraced instance.
	counts() obs.Snapshot
	close() error
}

// workload is one named, pinned configuration of the checker.
type workload struct {
	name string
	// gomaxprocs is pinned per workload: a sequential search on an idle
	// second P is slower and bimodal, because the idle P steals the woken
	// model-thread goroutine on every handoff.
	gomaxprocs int
	check      check
	// jobs, when nonzero, makes a repetition a batch of that many
	// identical jobs through the jobs service, each one the check;
	// otherwise a repetition is one local search.Explore.
	jobs     int
	canaries []check
	probes   []probe
}

// seeded is the workload's check as a run with this seed performs it.
// A random search takes its seed from the workload seed; a systematic
// one has no randomness and ignores it.
func (w *workload) seeded(seed uint64) check {
	c := w.check
	if c.opts.RandomWalk || c.opts.PCT {
		c.opts.Seed = seed
	}
	return c
}

// start sets the workload up: program lookup, option validation, and
// for the service its ledger, server and workers. A traced instance
// attaches obs registries for its layers to count into.
func (w *workload) start(seed uint64, traced bool, expected map[string]expectation) (instance, error) {
	c := w.seeded(seed)
	body, err := c.body()
	if err != nil {
		return nil, err
	}
	if err := c.opts.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", c.program, err)
	}
	exp, ok := expected[c.program]
	if !ok {
		return nil, fmt.Errorf("%s is not in expected.json", c.program)
	}
	if w.jobs > 0 {
		return startService(c, exp, w.jobs, traced)
	}
	if traced {
		c.opts.Metrics = obs.NewMetrics()
	}
	return &searchInstance{check: c, body: body, expected: exp}, nil
}

var (
	fairDFS   = search.Options{Fair: true, ContextBound: -1}
	unfairDFS = search.Options{ContextBound: -1, MaxSteps: 5000}
)

func with(o search.Options, f func(*search.Options)) search.Options {
	f(&o)
	return o
}

var (
	dporOpts      = with(unfairDFS, func(o *search.Options) { o.DPOR = true })
	dporSleepOpts = with(dporOpts, func(o *search.Options) { o.SleepSets = true })
)

// Canaries: answers from the registry's ExpectBug text (expected.json),
// options from the repository's own tests for the same programs.
var (
	fairCanaries = []check{
		{"peterson-bug", with(fairDFS, func(o *search.Options) { o.MaxSteps = 100000 })},
		{"spinloop-noyield", with(fairDFS, func(o *search.Options) { o.MaxSteps = 400 })},
		{"philosophers-try-2", with(fairDFS, func(o *search.Options) { o.MaxSteps = 400 })},
	}
	dporCanaries      = []check{{"msqueue-bug", dporOpts}, {"seqlock-torn", dporOpts}}
	dporSleepCanaries = []check{{"treiber-aba", dporSleepOpts}, {"seqlock-torn", dporSleepOpts}}
	randomCanaries    = []check{{"seqlock-tso", search.Options{
		Fair: true, RandomWalk: true, MaxExecutions: 20000, MaxSteps: 5000, Seed: 3, MemModel: "tso",
	}}}
)

var workloads = []*workload{
	{
		name:       "fair-dfs",
		gomaxprocs: 1,
		check:      check{"ticketlock", fairDFS},
		canaries:   fairCanaries,
		probes:     []probe{probeFair, probeEngine},
	},
	{
		name:       "dpor-unfair",
		gomaxprocs: 1,
		check:      check{"boundedbuffer", dporOpts},
		canaries:   dporCanaries,
		probes:     []probe{probeAnalyze},
	},
	{
		name:       "random-p2",
		gomaxprocs: 2,
		check: check{"dryad-fifo", search.Options{
			Fair: true, ContextBound: -1, RandomWalk: true, MaxExecutions: 4000, Parallelism: 2,
		}},
		canaries: randomCanaries,
		probes:   []probe{probeFair, probeEngine, probeShards},
	},
	{
		name:       "service-jobs",
		gomaxprocs: 2,
		check:      check{"boundedbuffer", dporSleepOpts},
		jobs:       32,
		canaries:   dporSleepCanaries,
		probes:     []probe{probeAnalyze, probeLedger, probeServiceTax},
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// searchInstance repeats one in-process check.
type searchInstance struct {
	check    check
	body     func(*engine.T)
	expected expectation
}

func (s *searchInstance) repeat(tr *tracer, parent int) repetition {
	start := now()
	rep := search.Explore(s.body, s.check.opts)
	end := now()
	tr.add(parent, "search.Explore", s.check.program, start, end)
	r := repetition{
		wallS:       (end - start) / 1000,
		executions:  rep.Executions,
		latenciesMS: []float64{end - start},
	}
	if msg := s.check.wrong(s.expected, verdictOfReport(s.check.program, s.check.opts, rep)); msg != "" {
		r.failures = append(r.failures, msg)
	}
	return r
}

func (s *searchInstance) counts() obs.Snapshot {
	if s.check.opts.Metrics == nil {
		return obs.Snapshot{}
	}
	return s.check.opts.Metrics.Snapshot()
}

func (s *searchInstance) close() error { return nil }
