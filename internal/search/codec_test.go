package search_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"fairmc/internal/dist"
	"fairmc/internal/por"
	"fairmc/internal/search"
	"fairmc/progs"
)

// codecSearches are the DPOR searches whose units and unit reports the
// codec tests read: a clean exhaustion and two searches stopped by their
// first bug (progs' DPOR reduction table pins their counts).
var codecSearches = []string{"boundedbuffer", "msqueue-bug", "treiber-aba"}

// encode is v's encoding by layout, or the test fails.
func encode(tb testing.TB, layout func(*por.Codec)) []byte {
	tb.Helper()
	data, err := por.Encode(nil, layout)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// walkDporSearch runs the DPOR search of the program registered as name
// the way a distributed one runs, with every unit and unit report going
// through its encoding, and returns the merged report. Each unit and
// each report is handed to visit as the bytes it travelled as, with the
// decoded report, and the decoded values are what the search goes on
// with.
func walkDporSearch(tb testing.TB, name string, visit func(unit, report []byte, rep *search.Report)) *search.Report {
	p, ok := progs.Lookup(name)
	if !ok {
		tb.Fatalf("program %q not registered", name)
	}
	opts := search.Options{ContextBound: -1, MaxSteps: 5000, DPOR: true, ProgramName: name}
	plan, err := search.PlanShards(p.Body, opts, 1)
	if err != nil {
		tb.Fatal(err)
	}
	m := search.NewShardMerger(opts, plan)
	for i := 0; !m.Done(); i++ {
		sh := plan.Shards[i]
		ub := encode(tb, sh.Unit.Code)
		sh.Unit = new(por.Unit)
		if err := por.Decode(ub, sh.Unit.Code); err != nil {
			tb.Fatalf("%s unit %d: %v", name, i, err)
		}
		rep := search.RunShard(p.Body, opts, sh, nil)
		rb := encode(tb, rep.Code)
		got := new(search.Report)
		if err := por.Decode(rb, got.Code); err != nil {
			tb.Fatalf("%s unit %d's report: %v", name, i, err)
		}
		if !reflect.DeepEqual(got, rep) {
			tb.Fatalf("%s unit %d's report decodes to\n%+v\nnot\n%+v", name, i, got, rep)
		}
		visit(ub, rb, got)
		m.Offer(i, got)
	}
	return m.Finish(0, nil)
}

// TestUnitCodecRoundTrip: every unit and unit report of the codec
// searches decodes to a value that re-encodes to the same bytes, and the
// search run on the decoded values merges to Explore's report.
func TestUnitCodecRoundTrip(t *testing.T) {
	for _, name := range codecSearches {
		reencodes := func(what string, data []byte, layout func(*por.Codec)) {
			if err := por.Decode(data, layout); err != nil {
				t.Fatalf("%s %s: %v", name, what, err)
			}
			if again := encode(t, layout); !bytes.Equal(again, data) {
				t.Fatalf("%s %s re-encodes to %x, not %x", name, what, again, data)
			}
		}
		got := walkDporSearch(t, name, func(unit, report []byte, _ *search.Report) {
			reencodes("unit", unit, new(por.Unit).Code)
			reencodes("report", report, new(search.Report).Code)
		})
		p, _ := progs.Lookup(name)
		want := search.Explore(p.Body, search.Options{ContextBound: -1, MaxSteps: 5000, DPOR: true, ProgramName: name})
		if !reflect.DeepEqual(normalize(got), normalize(want)) {
			t.Fatalf("%s: the search over decoded units merges to\n%+v\nnot Explore's\n%+v", name, got, want)
		}
	}
}

// TestReportFieldsClassified: every field of search.Report, and of its
// Counters, travels — in the report's binary layout or in its cold JSON
// section, as the lists below say. Each is set on its own, and the report
// must decode to what was encoded, so a field added later cannot drop
// off the wire unnoticed.
func TestReportFieldsClassified(t *testing.T) {
	inBinary := map[string]bool{
		"Executions": true, "TotalSteps": true, "MaxDepth": true, "Yields": true, "EdgeAdds": true,
		"EdgeErases": true, "FairBlocked": true, "BufferedStores": true, "Flushes": true, "Fences": true,
		"Forwards": true, "NonTerminating": true, "PrunedVisited": true, "PrunedSleep": true,
		"Deadlocks": true, "Violations": true, "Wedges": true, "Quarantined": true, "Skipped": true,
		"FirstBugExecution": true, "DivergenceExecution": true, "FirstWedgeExecution": true,
		"Exhausted": true, "TimedOut": true, "ExecBounded": true, "Interrupted": true,
		"Dpor": true, "Elapsed": true,
	}
	inCold := map[string]bool{
		"FirstBug": true, "Divergence": true, "FirstWedge": true, "Nondeterminism": true,
		"BugReproducibility": true, "DivergenceReproducibility": true, "WorkerFailures": true,
		"CheckpointError": true, "Rest": true,
	}
	var set func(v reflect.Value)
	set = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			v.SetInt(7)
		case reflect.String:
			v.SetString("x")
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		default:
			t.Fatalf("a %s field: teach this test to set one", v.Type())
		}
	}
	typ := reflect.TypeOf(search.Report{})
	for _, f := range reflect.VisibleFields(typ) {
		if f.Anonymous {
			continue // Counters: its fields are visited on their own
		}
		var r search.Report
		set(reflect.ValueOf(&r).Elem().FieldByIndex(f.Index))
		data := encode(t, r.Code)
		var back search.Report
		if err := por.Decode(data, back.Code); err != nil || !reflect.DeepEqual(back, r) {
			t.Errorf("%s does not survive the report's encoding (%v): %+v", f.Name, err, back)
			continue
		}
		cold := data[len(data)-1] != 0 // the binary layout ends in an empty cold section
		switch {
		case !inBinary[f.Name] && !inCold[f.Name]:
			t.Errorf("%s is classified as neither binary nor cold", f.Name)
		case cold != inCold[f.Name]:
			t.Errorf("%s travels in the cold section: %v, the lists say %v", f.Name, cold, inCold[f.Name])
		}
	}
}

// codecFuzzSeeds bounds how many units and reports of each codec search
// seed FuzzUnitCodec: the seeds also run as tests, each checking every
// prefix of its input.
const codecFuzzSeeds = 4

// codecLayouts are the decoders FuzzUnitCodec holds to its oracle, by
// kind: each decodes an encoding and returns what encodes the value it
// decoded.
var codecLayouts = []func([]byte) (func() ([]byte, error), error){
	func(b []byte) (func() ([]byte, error), error) { return layout(b, new(por.Unit).Code) },
	func(b []byte) (func() ([]byte, error), error) { return layout(b, new(search.DporResult).CodeForTest) },
	func(b []byte) (func() ([]byte, error), error) { return layout(b, new(search.Report).Code) },
	func(b []byte) (func() ([]byte, error), error) { return layout(b, new(search.Shard).Code) },
	func(b []byte) (func() ([]byte, error), error) { return layout(b, new(search.Plan).CodeForTest) },
	func(b []byte) (func() ([]byte, error), error) {
		lr, err := dist.DecodeLease(b)
		return func() ([]byte, error) { return lr.Encode(nil) }, err
	},
	func(b []byte) (func() ([]byte, error), error) {
		rr, err := dist.DecodeResult(b)
		return func() ([]byte, error) { return rr.Encode(nil) }, err
	},
}

// Kinds of FuzzUnitCodec's input, indices into codecLayouts.
const (
	kindUnit uint8 = iota
	kindDpor
	kindReport
	kindShard
	kindPlan
	kindLease
	kindResult
)

func layout(b []byte, code func(*por.Codec)) (func() ([]byte, error), error) {
	return func() ([]byte, error) { return por.Encode(nil, code) }, por.Decode(b, code)
}

// FuzzUnitCodec fuzzes every decoder of por's codec — a por.Unit's, a
// unit report's DPOR payload's, a search.Report's, a Shard's and a
// Plan's, and the lease and result frames' — with one oracle: a decoder
// never panics, an input it accepts re-encodes to the same bytes, and it
// refuses every strict prefix of such an input. The seeds are written by
// the encoders: the first units and reports of the codec searches, the
// plans and shards of a DPOR, a frontier and a random search, and the
// frames that would carry them.
func FuzzUnitCodec(f *testing.F) {
	var reports []*search.Report
	for _, name := range codecSearches {
		n := 0
		walkDporSearch(f, name, func(unit, report []byte, rep *search.Report) {
			if n++; n > codecFuzzSeeds {
				return
			}
			f.Add(kindUnit, unit)
			f.Add(kindReport, report)
			if rep.Dpor != nil {
				f.Add(kindDpor, encode(f, rep.Dpor.CodeForTest))
			}
			reports = append(reports, rep)
		})
	}
	var grants []dist.Grant
	for _, opts := range fuzzSearches {
		p, _ := progs.Lookup(opts.ProgramName)
		plan, err := search.PlanShards(p.Body, opts, 2)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(kindPlan, encode(f, plan.CodeForTest))
		sh := plan.Shards[len(plan.Shards)-1]
		f.Add(kindShard, encode(f, sh.Code))
		grants = append(grants, dist.Grant{LeaseID: "l1-x", Shard: sh})
	}
	spec := []byte(`{"fair":true,"contextBound":-1,"maxSteps":10000,"seed":0,"program":"fig3"}`)
	for _, lr := range []*dist.LeaseResponse{
		{Status: dist.LeaseWait},
		{Status: dist.LeaseWork, Grants: grants, Job: "j1", Path: "/job/j1", Spec: spec, OptionsHash: 7, LeaseTTLMS: 15000, WantEvents: true},
	} {
		data, err := lr.Encode(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(kindLease, data)
	}
	rr := &dist.ResultRequest{WorkerID: "w1", Results: []dist.ShardResult{
		{LeaseID: "l1-x", Shard: 0, Report: reports[0]},
		{LeaseID: "l2-x", Shard: 1, Failure: "panic: injected"},
		{Shard: -1, Failure: "corrupt spool entry"},
	}}
	data, err := rr.Encode(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(kindResult, data)
	f.Fuzz(func(t *testing.T, kind uint8, bin []byte) {
		decode := codecLayouts[int(kind)%len(codecLayouts)]
		enc, err := decode(bin)
		if err != nil {
			if !errors.Is(err, por.ErrCodec) {
				t.Fatalf("refused with %v, not a codec error", err)
			}
			return
		}
		again, err := enc()
		if err != nil || !bytes.Equal(again, bin) {
			t.Fatalf("accepted %x, re-encoded to %x (%v)", bin, again, err)
		}
		for i := range bin {
			if _, err := decode(bin[:i]); err == nil {
				t.Fatalf("accepted %x, and its prefix %x too", bin, bin[:i])
			}
		}
	})
}
