package fairmc_test

import (
	"bytes"
	"testing"

	"fairmc"
	"fairmc/conc"
	"fairmc/progs"
)

// racyConc is a lost-update bug at the conc level, used where the
// report tests need a finding.
func racyConc(t *conc.T) {
	x := conc.NewIntVar(t, "x", 0)
	wg := conc.NewWaitGroup(t, "wg", 2)
	for i := 0; i < 2; i++ {
		t.Go("inc", func(t *conc.T) {
			v := x.Load(t)
			x.Store(t, v+1)
			wg.Done(t)
		})
	}
	wg.Wait(t)
	t.Assert(x.Load(t) == 2, "lost update")
}

func encodeReport(t *testing.T, res *fairmc.Result, program string, opts fairmc.Options) []byte {
	t.Helper()
	data, err := res.RunReport(program, opts).Encode()
	if err != nil {
		t.Fatalf("encoding run report: %v", err)
	}
	return data
}

// TestRunReportParallelDeterminism: for a fixed program, options, and
// seed, the encoded run report is byte-identical at Parallelism 1 and
// 4, for both the prefix-parallel systematic search and the
// stride-parallel random walk (the latter with a finding, confirmed so
// the reproducibility verdict is exercised too).
func TestRunReportParallelDeterminism(t *testing.T) {
	spin, ok := progs.Lookup("spinloop")
	if !ok {
		t.Fatal("spinloop program missing")
	}
	cases := []struct {
		name    string
		prog    func(*conc.T)
		program string
		opts    fairmc.Options
	}{
		{"dfs-spinloop", spin.Body, "spinloop", fairmc.Options{
			Fair:         true,
			ContextBound: -1,
			MaxSteps:     10000,
		}},
		{"random-racy", racyConc, "racy-increment", fairmc.Options{
			Fair:                   true,
			RandomWalk:             true,
			MaxExecutions:          400,
			MaxSteps:               1000,
			Seed:                   3,
			ContinueAfterViolation: true,
			ConfirmRuns:            3,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ref []byte
			for _, p := range []int{1, 4} {
				opts := tc.opts
				opts.Parallelism = p
				res, err := fairmc.Check(tc.prog, opts)
				if err != nil {
					t.Fatalf("p=%d: %v", p, err)
				}
				data := encodeReport(t, res, tc.program, opts)
				if ref == nil {
					ref = data
					continue
				}
				if !bytes.Equal(ref, data) {
					t.Fatalf("run report differs between p=1 and p=%d:\n%s\nvs\n%s", p, ref, data)
				}
			}
		})
	}
}

// TestRunReportSurvivesResume: interrupting a search at an execution
// budget, checkpointing, and resuming produces the same run report
// bytes as the uninterrupted search.
func TestRunReportSurvivesResume(t *testing.T) {
	opts := fairmc.Options{
		Fair:                   true,
		RandomWalk:             true,
		MaxExecutions:          400,
		MaxSteps:               1000,
		Seed:                   7,
		ContinueAfterViolation: true,
		ProgramName:            "racy-increment",
	}
	baseline, err := fairmc.Check(racyConc, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeReport(t, baseline, "racy-increment", opts)

	path := t.TempDir()
	first := opts
	first.MaxExecutions = 150
	first.CheckpointPath = path
	rep1, err := fairmc.Check(racyConc, first)
	if err != nil {
		t.Fatal(err)
	}
	if !rep1.ExecBounded || rep1.CheckpointError != "" {
		t.Fatalf("first phase did not stop on the execution budget with its checkpoint: %+v", rep1.Report)
	}
	second := opts
	second.CheckpointPath = path
	resumed, err := fairmc.Check(racyConc, second)
	if err != nil {
		t.Fatal(err)
	}
	got := encodeReport(t, resumed, "racy-increment", second)
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed run report differs from uninterrupted baseline:\n%s\nvs\n%s", want, got)
	}
}

// TestRunReportShape: spot-checks the report contents for a finding
// run — schema tag, echoed options, and a sorted findings list with
// stack-free messages.
func TestRunReportShape(t *testing.T) {
	opts := fairmc.Defaults()
	res, err := fairmc.Check(racyConc, opts)
	if err != nil {
		t.Fatal(err)
	}
	rr := res.RunReport("racy-increment", opts)
	if rr.Schema != "fairmc/run-report/v2" {
		t.Fatalf("schema = %q", rr.Schema)
	}
	if rr.Program != "racy-increment" || rr.Strategy != "dfs" {
		t.Fatalf("identity wrong: %+v", rr)
	}
	if !rr.Options.Fair || rr.Options.FairK != 1 || !rr.Options.Conformance {
		t.Fatalf("options echo wrong: %+v", rr.Options)
	}
	if len(rr.Findings) != 1 {
		t.Fatalf("findings = %+v, want one violation", rr.Findings)
	}
	f := rr.Findings[0]
	if f.Kind != "violation" || f.Execution != res.FirstBugExecution ||
		f.Message == "" || f.Reproducibility == "" {
		t.Fatalf("finding wrong: %+v", f)
	}
	if rr.Counters.Executions != res.Executions || rr.Counters.Violations == 0 {
		t.Fatalf("counters wrong: %+v", rr.Counters)
	}
}
