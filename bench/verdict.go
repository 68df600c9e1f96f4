package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"fairmc"
	"fairmc/internal/engine"
	"fairmc/internal/obs"
	"fairmc/internal/search"
	"fairmc/progs"
)

// expectedJSON is the hand-written answer sheet: per program, the
// registry's ExpectBug text and the finding kinds a sound search may
// report (empty: the program is correct and any finding is wrong). It
// is never regenerated from a run.
//
//go:embed expected.json
var expectedJSON []byte

// expectation is one program's entry in expected.json.
type expectation struct {
	ExpectBug string   `json:"expect_bug"`
	Finding   []string `json:"finding"`
}

func loadExpected() (map[string]expectation, error) {
	var m map[string]expectation
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

// Outcomes of a check, as the verdict names them.
const (
	outcomeExhausted   = "exhausted"
	outcomeExecBounded = "exec-bounded"
	outcomeStopped     = "stopped"
)

// verdict is what a check concluded: how the search ended and the kind
// of its first finding ("" for none).
type verdict struct {
	Outcome string
	Finding string
}

func (v verdict) String() string {
	if v.Finding == "" {
		return v.Outcome + "/no finding"
	}
	return v.Outcome + "/" + v.Finding
}

// verdictOfRunReport reads a verdict off the run report, the one
// artifact local checks and service jobs both produce.
func verdictOfRunReport(rr *obs.RunReport) verdict {
	v := verdict{Outcome: outcomeStopped}
	switch {
	case rr.Outcome.Exhausted:
		v.Outcome = outcomeExhausted
	case rr.Outcome.ExecBounded:
		v.Outcome = outcomeExecBounded
	}
	if len(rr.Findings) > 0 {
		v.Finding = rr.Findings[0].Kind
	}
	return v
}

// verdictOfReport is verdictOfRunReport for a local search, with a
// diverging execution refined by the liveness classifier: a thread that
// spins without yielding is a good-samaritan violation, not a livelock.
func verdictOfReport(program string, opts search.Options, rep *search.Report) verdict {
	res := fairmc.ResultFromReport(rep)
	v := verdictOfRunReport(res.RunReport(program, opts))
	if v.Finding == "livelock" && res.Liveness != nil && res.Liveness.Kind == fairmc.GoodSamaritanViolation {
		v.Finding = "good-samaritan-violation"
	}
	return v
}

// check is one model-checking problem: a registered program and the
// options to search it with.
type check struct {
	program string
	opts    search.Options
}

func (c check) body() (func(*engine.T), error) {
	p, ok := progs.Lookup(c.program)
	if !ok {
		return nil, fmt.Errorf("program %q is not registered", c.program)
	}
	return p.Body, nil
}

// wrong compares a verdict with the program's expected answer and
// returns a description of the disagreement, or "" when they agree. A
// correct program must end the way its strategy ends (a systematic
// search exhausts, a random one spends its budget) with no finding; a
// buggy one must stop at a finding of an expected kind.
func (c check) wrong(exp expectation, got verdict) string {
	want := outcomeExhausted
	switch {
	case len(exp.Finding) > 0:
		want = outcomeStopped
	case c.opts.RandomWalk || c.opts.PCT:
		want = outcomeExecBounded
	}
	ok := got.Outcome == want && len(exp.Finding) == 0 && got.Finding == ""
	for _, f := range exp.Finding {
		ok = ok || (got.Outcome == want && got.Finding == f)
	}
	if ok {
		return ""
	}
	return fmt.Sprintf("%s: verdict %s, want %s with finding in %v", c.program, got, want, exp.Finding)
}

// canaries runs untimed checks of programs with a known bug, each one
// operation. They run after the timed repetitions so that a search made
// faster by pruning unsoundly fails the run instead of winning it.
func (o *opCount) canaries(tr *tracer, parent int, canaries []check, expected map[string]expectation) {
	for _, c := range canaries {
		o.attempted++
		body, err := c.body()
		exp, known := expected[c.program]
		if err != nil || !known {
			o.failures = append(o.failures, fmt.Sprintf("canary %s: not registered or not in expected.json", c.program))
			continue
		}
		start := now()
		rep := search.Explore(body, c.opts)
		tr.add(parent, "bench.canary", c.program, start, now())
		if msg := c.wrong(exp, verdictOfReport(c.program, c.opts, rep)); msg != "" {
			o.failures = append(o.failures, "canary "+msg)
		}
	}
}
