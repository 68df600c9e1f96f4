package experiments_test

import (
	"testing"
	"time"

	"fairmc/internal/experiments"
	"fairmc/internal/liveness"
)

func TestFig2GrowsWithDepthBound(t *testing.T) {
	rows := experiments.Fig2([]int{8, 12, 16, 20}, experiments.Budget{
		CellTime: 60 * time.Second,
	})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.TimedOut {
			t.Fatalf("row %d timed out: %+v", i, r)
		}
	}
	// Nonterminating executions must grow (the paper: exponentially).
	if rows[0].NonTerminating <= 0 {
		t.Fatalf("no nonterminating executions at db=%d", rows[0].DepthBound)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].NonTerminating <= rows[i-1].NonTerminating {
			t.Fatalf("nonterminating count not growing: %+v", rows)
		}
	}
	// Check the growth is super-linear across the range (shape of
	// Figure 2's log-scale straight line).
	if rows[3].NonTerminating < 4*rows[0].NonTerminating {
		t.Fatalf("growth too slow: %d -> %d", rows[0].NonTerminating, rows[3].NonTerminating)
	}
}

func TestTable1Characteristics(t *testing.T) {
	rows := experiments.Table1()
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	byName := map[string]experiments.Table1Row{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.LOC <= 0 {
			t.Errorf("%s: LOC = %d", r.Name, r.LOC)
		}
		if r.Threads < 3 {
			t.Errorf("%s: threads = %d", r.Name, r.Threads)
		}
		if r.SyncOps <= 0 {
			t.Errorf("%s: sync ops = %d", r.Name, r.SyncOps)
		}
	}
	if got := byName["Singularity kernel"].Threads; got != 14 {
		t.Errorf("singularity threads = %d, want 14", got)
	}
	if got := byName["Dryad Fifo"].Threads; got != 25 {
		t.Errorf("dryad fifo threads = %d, want 25", got)
	}
	// The Singularity row must dwarf the small programs in sync ops,
	// as in the paper (167924 vs. tens).
	if byName["Singularity kernel"].SyncOps < 4*byName["Dining Philosophers"].SyncOps {
		t.Errorf("singularity not the largest: %+v", rows)
	}
}

func TestTable2SmallestConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage experiment in -short mode")
	}
	// The full dfs cells take minutes (as in the paper, where dfs runs
	// took hundreds to thousands of seconds); the test sticks to the
	// small context bounds.
	cfgs := experiments.Table2Configs()[:1] // Dining Philosophers 2
	strategies := []experiments.Strategy{
		{Name: "cb=1", ContextBound: 1},
		{Name: "cb=2", ContextBound: 2},
	}
	cells := experiments.Table2(cfgs, strategies, []int{20, 40}, experiments.Budget{
		CellTime: 60 * time.Second,
	})
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if c.TotalTimedOut || c.FairTimedOut {
			t.Fatalf("%s/%s timed out: %+v", c.Config, c.Strategy, c)
		}
		if c.TotalStates <= 0 {
			t.Fatalf("%s/%s: no reference states", c.Config, c.Strategy)
		}
		// Table 2's headline: fairness achieves 100% state coverage.
		if !c.Fair100 {
			t.Fatalf("%s/%s: fair search missed states (fair %d, total %d)",
				c.Config, c.Strategy, c.FairStates, c.TotalStates)
		}
		// The paper's shape: fair covers the bounded reference, so its
		// count is at least the reference's (here it is equal;
		// TestTable2ReferenceCounts checks the sets).
		if c.FairStates < c.TotalStates {
			t.Fatalf("%s/%s: fair %d < total %d", c.Config, c.Strategy,
				c.FairStates, c.TotalStates)
		}
	}
	// A larger preemption budget must reach at least as many states.
	if cells[1].TotalStates < cells[0].TotalStates {
		t.Fatalf("cb=2 states %d < cb=1 states %d", cells[1].TotalStates, cells[0].TotalStates)
	}
}

// TestTable2ReferenceCounts pins the stateful reference's state count in
// all 16 Table 2 cells, each run to exhaustion on no clock. Under a
// preemption bound the reference keys a visited state on what decides
// whether the next switch is a preemption, so a state first reached
// where a switch costs one does not prune the same state reached where
// it is free. On the cells cheap enough for tier-1, the fair stateless
// search covers exactly the reference's states: none missing, none
// extra.
func TestTable2ReferenceCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage experiment in -short mode")
	}
	want := map[string][4]int{ // cb=1, cb=2, cb=3, dfs
		"Dining Philosophers 2": {68, 72, 72, 72},
		"Dining Philosophers 3": {368, 576, 616, 616},
		"Work-Stealing Queue 1": {352, 473, 519, 519},
		"Work-Stealing Queue 2": {1305, 2936, 3807, 4093},
	}
	equalSets := map[string]bool{
		"Dining Philosophers 2/cb=1": true, "Dining Philosophers 2/cb=2": true, "Dining Philosophers 2/cb=3": true,
		"Dining Philosophers 3/cb=1": true,
		"Work-Stealing Queue 1/cb=1": true, "Work-Stealing Queue 1/cb=2": true,
	}
	for _, cfg := range experiments.Table2Configs() {
		for i, st := range experiments.Strategies() {
			name := cfg.Name + "/" + st.Name
			ref, rep := experiments.Table2Reference(cfg, st, experiments.Budget{})
			if !rep.Exhausted || ref.Count() != want[cfg.Name][i] {
				t.Errorf("%s: reference reached %d states (exhausted %v), want %d", name, ref.Count(), rep.Exhausted, want[cfg.Name][i])
			}
			if !equalSets[name] {
				continue
			}
			fair, rep := experiments.Table2Fair(cfg, st, experiments.Budget{})
			if !rep.Exhausted {
				t.Errorf("%s: fair search not exhausted", name)
			}
			if missing, extra := fair.Missing(ref), ref.Missing(fair); len(missing) > 0 || len(extra) > 0 {
				t.Errorf("%s: fair search misses %d of the reference's %d states and reaches %d more", name, len(missing), ref.Count(), len(extra))
			}
		}
	}
}

func TestTable3SampleBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("bug-finding experiment in -short mode")
	}
	rows := experiments.Table3([]string{
		"wsq-bug2-lockfree-steal",
		"dryad-bug4-reset-race",
	}, experiments.Budget{CellTime: 30 * time.Second})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.FairFound {
			t.Errorf("%s: fair search found nothing", r.Bug)
		}
	}
	// The reset race (bug 4) manifests as a stranded thread, which
	// only the fair search detects (via divergence).
	if rows[1].UnfairFound {
		t.Logf("note: unfair search found dryad-bug4 too: %+v", rows[1])
	}
	if !rows[1].FairByDivergence && rows[1].FairFound {
		t.Logf("note: dryad-bug4 found as safety violation: %+v", rows[1])
	}
}

func TestLivenessDemos(t *testing.T) {
	rows := experiments.LivenessDemos(experiments.Budget{CellTime: 60 * time.Second})
	want := map[string]liveness.Kind{
		"workergroup-spin":   liveness.GoodSamaritanViolation,
		"promise-livelock":   liveness.FairNontermination,
		"philosophers-try-2": liveness.FairNontermination,
		"spinloop-noyield":   liveness.GoodSamaritanViolation,
	}
	for _, r := range rows {
		if !r.Found {
			t.Errorf("%s: no divergence found", r.Program)
			continue
		}
		if want[r.Program] != r.Kind {
			t.Errorf("%s: kind = %v, want %v", r.Program, r.Kind, want[r.Program])
		}
	}
}

func TestCompareStrategies(t *testing.T) {
	if testing.Short() {
		t.Skip("strategy comparison in -short mode")
	}
	rows := experiments.CompareStrategies([]string{
		"dryad-bug2-read-after-release",
		"wsq-bug2-lockfree-steal",
	}, experiments.Budget{CellTime: 30 * time.Second})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FairDFS < 0 {
			t.Errorf("%s: fair DFS found nothing", r.Bug)
		}
		if r.RandomWalk < 0 && r.PCT < 0 {
			t.Errorf("%s: neither randomized strategy found it", r.Bug)
		}
	}
}
