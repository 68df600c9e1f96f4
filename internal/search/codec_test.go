package search_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"fairmc/internal/por"
	"fairmc/internal/search"
	"fairmc/progs"
)

// codecSearches are the DPOR searches whose units and unit reports the
// codec tests read: a clean exhaustion and two searches stopped by their
// first bug (progs' DPOR reduction table pins their counts).
var codecSearches = []string{"boundedbuffer", "msqueue-bug", "treiber-aba"}

// walkDporSearch runs the DPOR search of the program registered as name
// the way a distributed one runs, with every unit and unit report going
// through its JSON carrier, and returns the merged report. Each unit and
// each report is handed to visit as the JSON it travelled as, and the
// decoded value is what the search goes on with.
func walkDporSearch(t testing.TB, name string, visit func(unit, report []byte)) *search.Report {
	p, ok := progs.Lookup(name)
	if !ok {
		t.Fatalf("program %q not registered", name)
	}
	opts := search.Options{ContextBound: -1, MaxSteps: 5000, DPOR: true, ProgramName: name}
	plan, err := search.PlanShards(p.Body, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := search.NewShardMerger(opts, plan)
	for i := 0; !m.Done(); i++ {
		sh := plan.Shards[i]
		ub, err := json.Marshal(sh.Unit)
		if err != nil {
			t.Fatal(err)
		}
		sh.Unit = new(por.Unit)
		if err := json.Unmarshal(ub, sh.Unit); err != nil {
			t.Fatalf("%s unit %d: %v", name, i, err)
		}
		rep := search.RunShard(p.Body, opts, sh, nil)
		rb, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		got := new(search.Report)
		if err := json.Unmarshal(rb, got); err != nil {
			t.Fatalf("%s unit %d's report: %v", name, i, err)
		}
		if !reflect.DeepEqual(got, rep) {
			t.Fatalf("%s unit %d's report decodes to\n%+v\nnot\n%+v", name, i, got.Dpor, rep.Dpor)
		}
		visit(ub, rb)
		m.Offer(i, got)
	}
	return m.Finish(0, nil)
}

// TestUnitCodecRoundTrip: every unit and unit report of the codec
// searches decodes to a value that re-encodes to the same bytes, and the
// search run on the decoded values merges to Explore's report.
func TestUnitCodecRoundTrip(t *testing.T) {
	for _, name := range codecSearches {
		reencodes := func(what string, data []byte, v any) {
			if err := json.Unmarshal(data, v); err != nil {
				t.Fatalf("%s %s: %v", name, what, err)
			}
			again, err := json.Marshal(v)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("%s %s re-encodes to %s (%v), not %s", name, what, again, err, data)
			}
		}
		got := walkDporSearch(t, name, func(unit, report []byte) {
			reencodes("unit", unit, new(por.Unit))
			reencodes("report", report, new(search.Report))
		})
		p, _ := progs.Lookup(name)
		want := search.Explore(p.Body, search.Options{ContextBound: -1, MaxSteps: 5000, DPOR: true, ProgramName: name})
		if !reflect.DeepEqual(normalize(got), normalize(want)) {
			t.Fatalf("%s: the search over decoded units merges to\n%+v\nnot Explore's\n%+v", name, got, want)
		}
	}
}

// codecFuzzSeeds bounds how many units and reports of each codec search
// seed FuzzUnitCodec: the seeds also run as tests, each checking every
// prefix of its input.
const codecFuzzSeeds = 6

// FuzzUnitCodec fuzzes the two DPOR payload decoders, por.Unit's and
// search.DporResult's, with one oracle: a decoder never panics, an input
// it accepts re-encodes to the same bytes, and it refuses every strict
// prefix of such an input. The input is the binary encoding, carried as
// the JSON string its MarshalJSON writes. The seeds are written by the
// encoders, from the first units and reports of the codec searches.
func FuzzUnitCodec(f *testing.F) {
	for _, name := range codecSearches {
		n := 0
		walkDporSearch(f, name, func(unit, report []byte) {
			if n++; n > codecFuzzSeeds {
				return
			}
			var bin []byte
			json.Unmarshal(unit, &bin)
			f.Add(false, bin)
			var rep struct{ Dpor json.RawMessage }
			json.Unmarshal(report, &rep)
			if json.Unmarshal(rep.Dpor, &bin) == nil {
				f.Add(true, bin)
			}
		})
	}
	f.Fuzz(func(t *testing.T, report bool, bin []byte) {
		decode := func(bin []byte) (any, error) {
			data, _ := json.Marshal(bin)
			var v json.Unmarshaler = new(por.Unit)
			if report {
				v = new(search.DporResult)
			}
			return v, v.UnmarshalJSON(data)
		}
		v, err := decode(bin)
		if err != nil {
			if !errors.Is(err, por.ErrCodec) {
				t.Fatalf("refused with %v, not a codec error", err)
			}
			return
		}
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("an accepted input does not encode: %v", err)
		}
		var again []byte
		if err := json.Unmarshal(data, &again); err != nil || !bytes.Equal(again, bin) {
			t.Fatalf("accepted %x, re-encoded to %x", bin, again)
		}
		for i := range bin {
			if _, err := decode(bin[:i]); err == nil {
				t.Fatalf("accepted %x, and its prefix %x too", bin, bin[:i])
			}
		}
	})
}
