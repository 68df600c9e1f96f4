package progs_test

// The DPOR reduction table: executions to exhaustion or to the first
// bug on the registered subjects under unfair DPOR, which always
// carries sleep sets. The counts are deterministic, so each is pinned
// exactly — a reducer change that moves one updates its row and says
// why in CHANGES.md — and each row runs sequentially and at
// Parallelism 4, which must agree.

import (
	"fmt"
	"reflect"
	"testing"

	"fairmc"
	"fairmc/progs"
)

func dporOpts(par int) fairmc.Options {
	return fairmc.Options{Fair: false, ContextBound: -1, MaxSteps: 5000, DPOR: true, Parallelism: par}
}

func TestDPORReductionTable(t *testing.T) {
	type verdict int
	const (
		clean   verdict = iota // exhausts with no finding
		bug                    // stops at a safety violation
		diverge                // spins past MaxSteps: outside DPOR's premise
	)
	rows := []struct {
		prog  string
		want  verdict
		count int64 // executions to exhaustion / to the finding
	}{
		{"boundedbuffer", clean, 117},
		// msqueue-bug's consumers spin on a yield while the producer's
		// pending op is independent of theirs. Kept asleep across their
		// yields, the producer would starve and the search would report
		// a divergence at execution 7; a yield wakes every sleeper.
		{"msqueue-bug", bug, 23},
		{"seqlock-torn", bug, 20},
		{"treiber-aba", bug, 258},
		// barrier-bug spin-waits: an unfair schedule never terminates,
		// so the reduction must report the divergence, not "exhausted
		// in 2 executions" (fair DFS falsifies it at execution 1).
		{"barrier-bug", diverge, 1},
	}
	for _, row := range rows {
		row := row
		p, ok := progs.Lookup(row.prog)
		if !ok {
			t.Fatalf("program %q not registered", row.prog)
		}
		t.Run(row.prog+"/dpor", func(t *testing.T) {
			for _, par := range []int{1, 4} {
				res := mustCheck(t, p.Body, dporOpts(par))
				at := fmt.Sprintf("-p %d", par)
				got := res.Executions
				switch row.want {
				case clean:
					if !res.Exhausted || !res.Ok() {
						t.Fatalf("%s: exhausted=%v ok=%v, want a clean exhaustion", at, res.Exhausted, res.Ok())
					}
				case bug:
					if res.FirstBug == nil {
						t.Fatalf("%s: no bug in %d executions (divergence at %d)", at, res.Executions, res.DivergenceExecution)
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
				if got != row.count {
					t.Errorf("%s: %d executions, want %d", at, got, row.count)
				}
			}
		})
		// DPOR carries sleep sets anyway: -sleepsets names the same
		// search, so the report is -dpor's.
		t.Run(row.prog+"/dpor+sleepsets", func(t *testing.T) {
			opts := dporOpts(1)
			dpor := mustCheck(t, p.Body, opts).RunReport(row.prog, opts)
			opts.SleepSets = true
			if both := mustCheck(t, p.Body, opts).RunReport(row.prog, opts); !reflect.DeepEqual(both, dpor) {
				t.Fatalf("-dpor -sleepsets reports %+v, -dpor %+v", both, dpor)
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
