package progs_test

// The DPOR reduction table: executions to exhaustion or to the first
// bug on the registered subjects under unfair DPOR, with and without
// sleep sets. The counts are deterministic, so each is pinned as a
// ceiling — a reducer change may lower a count, never raise it — and
// each row runs sequentially and at Parallelism 4, which must agree.

import (
	"fmt"
	"testing"

	"fairmc"
	"fairmc/progs"
)

func TestDPORReductionTable(t *testing.T) {
	type verdict int
	const (
		clean   verdict = iota // exhausts with no finding
		bug                    // stops at a safety violation
		diverge                // spins past MaxSteps: outside DPOR's premise
	)
	rows := []struct {
		prog      string
		sleepSets bool
		want      verdict
		ceiling   int64 // executions to exhaustion / to the finding
	}{
		{"boundedbuffer", false, clean, 19140},
		{"boundedbuffer", true, clean, 117},
		{"msqueue-bug", false, bug, 307},
		{"seqlock-torn", false, bug, 232},
		{"treiber-aba", true, bug, 222},
		// barrier-bug spin-waits: an unfair schedule never terminates,
		// so the reduction must report the divergence, not "exhausted
		// in 2 executions" (fair DFS falsifies it at execution 1).
		{"barrier-bug", false, diverge, 1},
		{"barrier-bug", true, diverge, 1},
	}
	for _, row := range rows {
		row := row
		name := row.prog + "/dpor"
		if row.sleepSets {
			name += "+sleepsets"
		}
		t.Run(name, func(t *testing.T) {
			p, ok := progs.Lookup(row.prog)
			if !ok {
				t.Fatalf("program %q not registered", row.prog)
			}
			var seq *fairmc.Result
			for _, par := range []int{1, 4} {
				res := mustCheck(t, p.Body, fairmc.Options{
					Fair:         false,
					ContextBound: -1,
					MaxSteps:     5000,
					DPOR:         true,
					SleepSets:    row.sleepSets,
					Parallelism:  par,
				})
				at := fmt.Sprintf("-p %d", par)
				got := res.Executions
				switch row.want {
				case clean:
					if !res.Exhausted || !res.Ok() {
						t.Fatalf("%s: exhausted=%v ok=%v, want a clean exhaustion", at, res.Exhausted, res.Ok())
					}
				case bug:
					if res.FirstBug == nil {
						t.Fatalf("%s: no bug in %d executions", at, res.Executions)
					}
					got = res.FirstBugExecution
				case diverge:
					if res.Exhausted || res.Divergence == nil {
						t.Fatalf("%s: exhausted=%v divergence=%v after %d executions, want a divergence finding",
							at, res.Exhausted, res.Divergence != nil, res.Executions)
					}
					if res.ExitStatus() != fairmc.ExitFinding {
						t.Fatalf("%s: exit status %d, want %d", at, res.ExitStatus(), fairmc.ExitFinding)
					}
					got = res.DivergenceExecution
				}
				if got > row.ceiling {
					t.Errorf("%s: %d executions, ceiling %d", at, got, row.ceiling)
				}
				if seq == nil {
					seq = res
				} else if res.Executions != seq.Executions ||
					res.FirstBugExecution != seq.FirstBugExecution ||
					res.DivergenceExecution != seq.DivergenceExecution {
					t.Errorf("%s: executions/bug/divergence %d/%d/%d differ from sequential %d/%d/%d", at,
						res.Executions, res.FirstBugExecution, res.DivergenceExecution,
						seq.Executions, seq.FirstBugExecution, seq.DivergenceExecution)
				}
			}
		})
	}
}

// Standalone sleep sets share the terminating-program premise and the
// sequential classify path rather than the unit merge.
func TestSleepSetsReportDivergence(t *testing.T) {
	p, _ := progs.Lookup("barrier-bug")
	res := mustCheck(t, p.Body, fairmc.Options{
		Fair: false, ContextBound: -1, MaxSteps: 5000, SleepSets: true,
	})
	if res.Exhausted || res.Divergence == nil {
		t.Fatalf("exhausted=%v divergence=%v after %d executions, want a divergence finding",
			res.Exhausted, res.Divergence != nil, res.Executions)
	}
}
