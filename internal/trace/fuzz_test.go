package trace_test

import (
	"reflect"
	"testing"

	"fairmc/internal/engine"
	"fairmc/internal/trace"
)

// FuzzTraceUnmarshal runs the schedule-file decoder on any bytes: it
// never panics, an input it accepts re-marshals to a file that decodes
// to the same metadata and schedule, and every step it accepts names a
// thread in [0, 1<<20] and a choice argument of at least -1. The seeds
// are written by Marshal here.
func FuzzTraceUnmarshal(f *testing.F) {
	seeds := []struct {
		meta  trace.Meta
		sched []engine.Alt
	}{
		{trace.Meta{}, nil},
		{trace.Meta{Program: "peterson-bug", Fair: true, FairK: 2, MaxSteps: 5000, Outcome: "violation"},
			[]engine.Alt{{Tid: 0, Arg: -1}, {Tid: 1, Arg: 0}, {Tid: 2, Arg: 3}}},
		{trace.Meta{Program: "tso-sb", MemModel: "tso", TSOBufCap: 4, Note: "flush steps é"},
			[]engine.Alt{{Tid: 1 << 20, Arg: -1}, {Tid: 0, Arg: 1 << 40}}},
	}
	for _, s := range seeds {
		data, err := trace.Marshal(s.meta, s.sched)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version": 1, "schedule": [[-2, -1]]}`))
	f.Add([]byte(`{"version": 1, "meta": {"program": "x"}, "schedule": [[0,`))
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, sched, err := trace.Unmarshal(data)
		if err != nil {
			return
		}
		for i, a := range sched {
			if a.Tid < 0 || a.Tid > 1<<20 || a.Arg < -1 {
				t.Fatalf("step %d accepted as %+v", i, a)
			}
		}
		again, err := trace.Marshal(meta, sched)
		if err != nil {
			t.Fatalf("an accepted file does not re-marshal: %v", err)
		}
		meta2, sched2, err := trace.Unmarshal(again)
		if err != nil {
			t.Fatalf("a re-marshalled file is refused: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(meta2, meta) || !reflect.DeepEqual(sched2, sched) {
			t.Fatalf("re-marshalled file decodes to %+v %v, want %+v %v", meta2, sched2, meta, sched)
		}
	})
}
