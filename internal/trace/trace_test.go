package trace_test

import (
	"strings"
	"testing"

	"fairmc/internal/engine"
	"fairmc/internal/search"
	"fairmc/internal/syncmodel"
	"fairmc/internal/tidset"
	"fairmc/internal/trace"
)

func TestRoundTrip(t *testing.T) {
	meta := trace.Meta{
		Program:  "wsq-bug2",
		Fair:     true,
		FairK:    2,
		MaxSteps: 5000,
		Outcome:  "violation",
		Note:     "found by cb=2 search",
	}
	sched := []engine.Alt{
		{Tid: 0, Arg: -1},
		{Tid: 3, Arg: 2},
		{Tid: 1, Arg: -1},
	}
	data, err := trace.Marshal(meta, sched)
	if err != nil {
		t.Fatal(err)
	}
	gotMeta, gotSched, err := trace.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta = %+v, want %+v", gotMeta, meta)
	}
	if len(gotSched) != len(sched) {
		t.Fatalf("schedule length %d, want %d", len(gotSched), len(sched))
	}
	for i := range sched {
		if gotSched[i] != sched[i] {
			t.Fatalf("step %d: %v != %v", i, gotSched[i], sched[i])
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, _, err := trace.Unmarshal([]byte("not json")); err == nil {
		t.Fatal("no error for garbage input")
	}
	bad := strings.Replace(`{"version": 99, "meta": {"program": "x", "fair": true}, "schedule": []}`, "99", "99", 1)
	if _, _, err := trace.Unmarshal([]byte(bad)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version error missing: %v", err)
	}
	neg := `{"version": 1, "meta": {"program": "x", "fair": true}, "schedule": [[-2, -1]]}`
	if _, _, err := trace.Unmarshal([]byte(neg)); err == nil {
		t.Fatal("no error for negative tid")
	}
	hugeTid := `{"version": 1, "meta": {"program": "x", "fair": true}, "schedule": [[9999999, -1]]}`
	if _, _, err := trace.Unmarshal([]byte(hugeTid)); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("implausible-tid error missing: %v", err)
	}
	badArg := `{"version": 1, "meta": {"program": "x", "fair": true}, "schedule": [[0, -7]]}`
	if _, _, err := trace.Unmarshal([]byte(badArg)); err == nil || !strings.Contains(err.Error(), "choice argument") {
		t.Fatalf("invalid-arg error missing: %v", err)
	}
	truncated := `{"version": 1, "meta": {"program": "x"}, "schedule": [[0,`
	if _, _, err := trace.Unmarshal([]byte(truncated)); err == nil {
		t.Fatal("no error for truncated file")
	}
}

func TestMetaValidate(t *testing.T) {
	m := trace.Meta{Program: "wsq-bug2", Fair: true}
	if err := m.Validate("wsq-bug2"); err != nil {
		t.Fatalf("matching program rejected: %v", err)
	}
	if err := m.Validate("other-prog"); err == nil {
		t.Fatal("program mismatch accepted")
	}
	if err := (&trace.Meta{FairK: -1}).Validate(""); err == nil {
		t.Fatal("negative fairK accepted")
	}
	if err := (&trace.Meta{MaxSteps: -5}).Validate(""); err == nil {
		t.Fatal("negative maxSteps accepted")
	}
}

// TestSavedScheduleReplays round-trips a real counterexample through
// the file format and replays it to the same outcome.
func TestSavedScheduleReplays(t *testing.T) {
	racy := func(t *engine.T) {
		x := syncmodel.NewIntVar(t, "x", 0)
		wg := syncmodel.NewWaitGroup(t, "wg", 2)
		for i := 0; i < 2; i++ {
			t.Go("inc", func(t *engine.T) {
				v := x.Load(t)
				x.Store(t, v+1)
				wg.Done(t)
			})
		}
		wg.Wait(t)
		t.Assert(x.Load(t) == 2, "lost update")
	}
	rep := search.Explore(racy, search.Options{Fair: true, ContextBound: -1, MaxSteps: 1000})
	if rep.FirstBug == nil {
		t.Fatal("no bug found")
	}
	data, err := trace.Marshal(trace.Meta{Program: "racy", Fair: true}, rep.FirstBug.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	_, sched, err := trace.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	r := engine.Run(racy, &engine.ReplayChooser{Schedule: sched}, engine.Config{
		Fair: true, MaxSteps: 1000,
	})
	if r.Outcome != engine.Violation {
		t.Fatalf("replay outcome = %v, want violation", r.Outcome)
	}
	if r.Violation.Tid != tidset.Tid(0) {
		t.Fatalf("violation on thread %d, want main", r.Violation.Tid)
	}
}
