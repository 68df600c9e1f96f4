// Package experiments regenerates every table and figure of the
// paper's evaluation (§4) on this reproduction's substrate:
//
//	Figure 2 — nonterminating executions vs. depth bound
//	Table 1  — input program characteristics
//	Table 2  — state coverage per search strategy, fair vs. unfair
//	Figures 5/6 — search completion time, fair vs. unfair
//	Table 3  — executions and time to first bug, fair vs. unfair
//	§4.3.1/§4.3.2 — liveness findings (GS violation, livelock)
//
// Each experiment takes a Budget so the same code serves quick test
// runs and the full cmd/experiments regeneration. Absolute numbers
// differ from the paper's (different substrate and hardware); the
// shapes are what the reproduction checks.
package experiments

import (
	"time"

	"fairmc/conc"
	"fairmc/internal/engine"
	"fairmc/internal/liveness"
	"fairmc/internal/minios"
	"fairmc/internal/search"
	"fairmc/internal/state"
	"fairmc/progs"
)

// Budget bounds one experiment cell.
type Budget struct {
	// CellTime limits each individual search; 0 means no limit.
	CellTime time.Duration
	// MaxExecutions caps executions per search; 0 means unbounded.
	MaxExecutions int64
}

// ----- Figure 2 ---------------------------------------------------------

// Fig2Row is one point of Figure 2.
type Fig2Row struct {
	DepthBound     int
	NonTerminating int64
	Executions     int64
	TimedOut       bool
}

// Fig2 counts, for each depth bound, the nonterminating executions an
// unfair depth-bounded DFS explores on the Figure 1 two-philosopher
// program. The paper's point: the count grows exponentially with the
// bound.
func Fig2(bounds []int, budget Budget) []Fig2Row {
	prog := progs.PhilosophersTry(2)
	rows := make([]Fig2Row, 0, len(bounds))
	for _, db := range bounds {
		rep := search.Explore(prog, search.Options{
			Fair:          false,
			ContextBound:  -1,
			DepthBound:    db,
			RandomTail:    false,
			MaxSteps:      int64(db) + 1,
			TimeLimit:     budget.CellTime,
			MaxExecutions: budget.MaxExecutions,
		})
		rows = append(rows, Fig2Row{
			DepthBound:     db,
			NonTerminating: rep.NonTerminating,
			Executions:     rep.Executions,
			TimedOut:       rep.TimedOut || rep.ExecBounded,
		})
	}
	return rows
}

// ----- Table 1 ----------------------------------------------------------

// Table1Row mirrors the paper's Table 1: program characteristics.
type Table1Row struct {
	Name    string
	LOC     int   // lines of model source
	Threads int   // threads created per execution
	SyncOps int64 // scheduling points per execution
}

// Table1 runs each Table 1 program once under the fair scheduler and
// reports its scale.
func Table1() []Table1Row {
	cells := []struct {
		name, display, file string
	}{
		{"philosophers-try-2", "Dining Philosophers", "philosophers.go"},
		{"wsq-2", "Work-Stealing Queue", "wsq.go"},
		{"promise", "Promise", "promise.go"},
		{"ape", "APE", "ape.go"},
		{"dryad-channels", "Dryad Channels", "dryad.go"},
		{"dryad-fifo", "Dryad Fifo", "dryad.go"},
		{"singularity", "Singularity kernel", "singularity.go"},
	}
	rows := make([]Table1Row, 0, len(cells))
	for _, c := range cells {
		p, ok := progs.Lookup(c.name)
		if !ok {
			panic("experiments: unknown program " + c.name)
		}
		var body func(*conc.T)
		if c.name == "philosophers-try-2" {
			// The livelocked Figure 1 program diverges under the fair
			// scheduler; measure its scale on the livelock-free
			// coverage variant instead.
			body = progs.Philosophers(2)
		} else {
			body = p.Body
		}
		threads, steps := measureOnce(body)
		loc := progs.SourceLOC(c.file)
		if c.name == "singularity" {
			// The Singularity model lives in the minios substrate.
			loc += minios.SourceLOC()
		}
		rows = append(rows, Table1Row{
			Name:    c.display,
			LOC:     loc,
			Threads: threads,
			SyncOps: steps,
		})
	}
	return rows
}

// measureOnce runs one representative fair execution and reports its
// thread count and scheduling-point count.
func measureOnce(body func(*conc.T)) (threads int, steps int64) {
	r := engine.Run(body, engine.RunToCompletionChooser{}, engine.Config{
		Fair:     true,
		MaxSteps: 1 << 20,
	})
	if r.Outcome != engine.Terminated {
		panic("experiments: Table 1 program did not terminate: " + r.Outcome.String())
	}
	return r.Threads, r.Steps
}

// ----- Table 2 ----------------------------------------------------------

// Strategy names a Table 2 search strategy.
type Strategy struct {
	// Name is "cb=1", "cb=2", "cb=3" or "dfs".
	Name string
	// ContextBound is the preemption budget; -1 for dfs.
	ContextBound int
}

// Strategies returns the paper's four Table 2 strategies.
func Strategies() []Strategy {
	return []Strategy{
		{Name: "cb=1", ContextBound: 1},
		{Name: "cb=2", ContextBound: 2},
		{Name: "cb=3", ContextBound: 3},
		{Name: "dfs", ContextBound: -1},
	}
}

// Table2Cell is one strategy row of one configuration.
type Table2Cell struct {
	Config   string
	Strategy string
	// TotalStates is the stateful-search reference count.
	TotalStates int
	// TotalTimedOut marks an incomplete reference search.
	TotalTimedOut bool
	// FairStates is the coverage of the fair stateless search, and
	// FairTime its duration; Fair100 reports full coverage of the
	// reference set.
	FairStates   int
	FairTime     time.Duration
	FairTimedOut bool
	Fair100      bool
	// NoFair maps depth bound -> coverage of the unfair search with
	// random tail (the paper's db=20..60 columns).
	NoFair map[int]Table2NoFairCell
}

// Table2NoFairCell is one unfair depth-bounded run.
type Table2NoFairCell struct {
	States   int
	Time     time.Duration
	TimedOut bool
}

// Table2Config names one program configuration of Table 2.
type Table2Config struct {
	Name string
	Body func(*conc.T)
}

// Table2Configs returns the paper's four configurations.
func Table2Configs() []Table2Config {
	return []Table2Config{
		{Name: "Dining Philosophers 2", Body: progs.Philosophers(2)},
		{Name: "Dining Philosophers 3", Body: progs.Philosophers(3)},
		{Name: "Work-Stealing Queue 1", Body: progs.WorkStealingQueue(progs.WSQConfig{Items: 2, Stealers: 1})},
		{Name: "Work-Stealing Queue 2", Body: progs.WorkStealingQueue(progs.WSQConfig{Items: 2, Stealers: 2})},
	}
}

// Table2 runs the coverage experiment for the given configurations,
// strategies and depth bounds.
func Table2(configs []Table2Config, strategies []Strategy, depthBounds []int, budget Budget) []Table2Cell {
	var cells []Table2Cell
	for _, cfg := range configs {
		for _, st := range strategies {
			cells = append(cells, table2Cell(cfg, st, depthBounds, budget))
		}
	}
	return cells
}

// Table2Reference runs one cell's ground truth, a stateful unfair search
// with the same preemption budget and no depth bound, and returns the
// states it covered.
func Table2Reference(cfg Table2Config, st Strategy, budget Budget) (*state.Coverage, *search.Report) {
	return table2Search(cfg, st, budget, false)
}

// Table2Fair runs one cell's fair stateless search and returns the
// states it covered.
func Table2Fair(cfg Table2Config, st Strategy, budget Budget) (*state.Coverage, *search.Report) {
	return table2Search(cfg, st, budget, true)
}

func table2Search(cfg Table2Config, st Strategy, budget Budget, fair bool) (*state.Coverage, *search.Report) {
	cov := state.NewCoverage()
	return cov, search.Explore(cfg.Body, search.Options{
		Fair:          fair,
		ContextBound:  st.ContextBound,
		MaxSteps:      1 << 16,
		StatefulPrune: !fair,
		Monitor:       cov,
		TimeLimit:     budget.CellTime,
		MaxExecutions: budget.MaxExecutions,
	})
}

func table2Cell(cfg Table2Config, st Strategy, depthBounds []int, budget Budget) Table2Cell {
	cell := Table2Cell{
		Config:   cfg.Name,
		Strategy: st.Name,
		NoFair:   map[int]Table2NoFairCell{},
	}

	ref, refRep := Table2Reference(cfg, st, budget)
	fairCov, fairRep := Table2Fair(cfg, st, budget)
	cell.TotalStates = ref.Count()
	cell.TotalTimedOut = refRep.TimedOut || refRep.ExecBounded
	cell.FairStates = fairCov.Count()
	cell.FairTime = fairRep.Elapsed
	cell.FairTimedOut = fairRep.TimedOut || fairRep.ExecBounded
	cell.Fair100 = len(fairCov.Missing(ref)) == 0

	// Unfair searches pruned at each depth bound, finished with the
	// seeded random tail.
	for _, db := range depthBounds {
		cov := state.NewCoverage()
		rep := search.Explore(cfg.Body, search.Options{
			Fair:          false,
			ContextBound:  st.ContextBound,
			DepthBound:    db,
			RandomTail:    true,
			MaxSteps:      int64(db) * 64,
			Monitor:       cov,
			Seed:          uint64(db),
			TimeLimit:     budget.CellTime,
			MaxExecutions: budget.MaxExecutions,
		})
		cell.NoFair[db] = Table2NoFairCell{
			States:   cov.Count(),
			Time:     rep.Elapsed,
			TimedOut: rep.TimedOut || rep.ExecBounded,
		}
	}
	return cell
}

// ----- Table 3 ----------------------------------------------------------

// Table3Row compares fair and unfair bug finding on one planted bug.
type Table3Row struct {
	Bug string
	// Fair search (cb=2).
	FairExecutions int64
	FairTime       time.Duration
	FairFound      bool
	// FairByDivergence marks detections via fair divergence (stranded
	// thread + retry loop) rather than an assertion/deadlock.
	FairByDivergence bool
	// Unfair search (cb=2, depth bound 250 with random tail).
	UnfairExecutions int64
	UnfairTime       time.Duration
	UnfairFound      bool
}

// Table3Bugs returns the seven planted-bug programs of Table 3.
func Table3Bugs() []string {
	return []string{
		"wsq-bug1-pop-fastpath",
		"wsq-bug2-lockfree-steal",
		"wsq-bug3-stale-head",
		"dryad-bug1-unlocked-occupancy",
		"dryad-bug2-read-after-release",
		"dryad-bug3-lost-wakeup",
		"dryad-bug4-reset-race",
	}
}

// Table3 measures executions and time to the first detection with and
// without fairness, with the paper's parameters: context bound 2, and
// depth bound 250 for the unfair search.
func Table3(bugs []string, budget Budget) []Table3Row {
	rows := make([]Table3Row, 0, len(bugs))
	for _, name := range bugs {
		p, ok := progs.Lookup(name)
		if !ok {
			panic("experiments: unknown program " + name)
		}
		row := Table3Row{Bug: name}

		fair := search.Explore(p.Body, search.Options{
			Fair:          true,
			ContextBound:  2,
			MaxSteps:      5000,
			TimeLimit:     budget.CellTime,
			MaxExecutions: budget.MaxExecutions,
		})
		row.FairTime = fair.Elapsed
		switch {
		case fair.FirstBug != nil:
			row.FairFound = true
			row.FairExecutions = fair.FirstBugExecution
		case fair.Divergence != nil:
			row.FairFound = true
			row.FairByDivergence = true
			row.FairExecutions = fair.DivergenceExecution
		}

		unfair := search.Explore(p.Body, search.Options{
			Fair:          false,
			ContextBound:  2,
			DepthBound:    250,
			RandomTail:    true,
			MaxSteps:      int64(250) * 64,
			Seed:          1,
			TimeLimit:     budget.CellTime,
			MaxExecutions: budget.MaxExecutions,
		})
		row.UnfairTime = unfair.Elapsed
		if unfair.FirstBug != nil {
			row.UnfairFound = true
			row.UnfairExecutions = unfair.FirstBugExecution
		}
		rows = append(rows, row)
	}
	return rows
}

// ----- §4.3 liveness findings -------------------------------------------

// LivenessRow is one §4.3 demonstration.
type LivenessRow struct {
	Program    string
	Found      bool
	Kind       liveness.Kind
	Executions int64
	Steps      int64 // length of the diverging execution
}

// LivenessDemos reproduces §4.3.1 (good-samaritan violation in the
// worker-group library) and §4.3.2 (livelock in Promise).
func LivenessDemos(budget Budget) []LivenessRow {
	// The per-case step bound is the divergence detector. The
	// philosophers' livelock needs many executions before DFS wanders
	// into the unrolled fair cycle, so it runs with a smaller bound.
	cases := []struct {
		name     string
		maxSteps int64
	}{
		{"workergroup-spin", 2000},
		{"promise-livelock", 2000},
		{"philosophers-try-2", 500},
		{"spinloop-noyield", 2000},
	}
	rows := make([]LivenessRow, 0, len(cases))
	for _, c := range cases {
		p, ok := progs.Lookup(c.name)
		if !ok {
			panic("experiments: unknown program " + c.name)
		}
		rep := search.Explore(p.Body, search.Options{
			Fair:          true,
			ContextBound:  -1,
			MaxSteps:      c.maxSteps,
			TimeLimit:     budget.CellTime,
			MaxExecutions: budget.MaxExecutions,
		})
		row := LivenessRow{Program: c.name}
		if rep.Divergence != nil {
			row.Found = true
			row.Executions = rep.DivergenceExecution
			row.Steps = rep.Divergence.Steps
			row.Kind = liveness.Classify(rep.Divergence, liveness.Options{}).Kind
		}
		rows = append(rows, row)
	}
	return rows
}

// ----- Extension: strategy comparison -------------------------------------

// StrategyRow compares bug-finding strategies on one planted bug.
type StrategyRow struct {
	Bug string
	// ExecutionsToBug per strategy; -1 = not found within budget.
	FairDFS    int64
	RandomWalk int64
	PCT        int64
}

// CompareStrategies races the systematic fair search (cb=2), the
// uniform random walk, and PCT (d=3) on the given bugs — an extension
// beyond the paper contrasting its systematic approach with the
// randomized CHESS-lineage schedulers that followed it.
func CompareStrategies(bugs []string, budget Budget) []StrategyRow {
	rows := make([]StrategyRow, 0, len(bugs))
	for _, name := range bugs {
		p, ok := progs.Lookup(name)
		if !ok {
			panic("experiments: unknown program " + name)
		}
		row := StrategyRow{Bug: name, FairDFS: -1, RandomWalk: -1, PCT: -1}

		runOne := func(opts search.Options) int64 {
			opts.MaxSteps = 5000
			opts.TimeLimit = budget.CellTime
			if budget.MaxExecutions > 0 {
				opts.MaxExecutions = budget.MaxExecutions
			} else if opts.RandomWalk || opts.PCT {
				opts.MaxExecutions = 200000
			}
			rep := search.Explore(p.Body, opts)
			switch {
			case rep.FirstBug != nil:
				return rep.FirstBugExecution
			case rep.Divergence != nil:
				return rep.DivergenceExecution
			default:
				return -1
			}
		}
		row.FairDFS = runOne(search.Options{Fair: true, ContextBound: 2})
		row.RandomWalk = runOne(search.Options{Fair: true, ContextBound: -1, RandomWalk: true, Seed: 1})
		row.PCT = runOne(search.Options{Fair: true, ContextBound: -1, PCT: true, PCTDepth: 3, Seed: 1})
		rows = append(rows, row)
	}
	return rows
}
