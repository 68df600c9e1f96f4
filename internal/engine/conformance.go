package engine

import (
	"encoding/binary"
	"fmt"

	"fairmc/internal/tidset"
)

// This file implements schedule-conformance checking: the defense
// against programs that are not a deterministic function of the
// scheduler's choices (wall-clock reads, unseeded randomness, map
// iteration, goroutines outside the conc API). The stateless-checking
// contract — replay a schedule, get the same execution — silently
// breaks on such programs; CHESS detects the break as *schedule
// divergence* during replay. Here every scheduling point can be
// summarized into a StepDigest (a fingerprint of the candidate set
// plus the chosen thread's pending operation), and every replay, step
// by step, asks Conform to compare the digest it observes against the
// digest recorded when the schedule was first explored. The first
// mismatch is reported as a structured DivergenceError instead of an
// exploration of the wrong tree.

// StepDigest is the conformance summary of one scheduling point: a
// hash of the full candidate set (thread ids, choice values, and each
// candidate thread's pending op kind/object/aux) plus the chosen
// alternative's thread and pending operation in the clear, so a
// mismatch can name the expected and observed ops.
type StepDigest struct {
	// Hash fingerprints the candidate set at this scheduling point.
	Hash uint64 `json:"hash"`
	// Tid is the thread the recorded schedule runs at this step.
	Tid tidset.Tid `json:"tid"`
	// Op is that thread's pending operation at the time the digest was
	// recorded.
	Op OpInfo `json:"op"`
}

func (d StepDigest) String() string {
	return fmt.Sprintf("t%d pending %s (cands %#x)", d.Tid, d.Op, d.Hash)
}

// DivergenceError reports the first step at which a replayed schedule
// stopped conforming to the program: either the scheduled alternative
// was not schedulable at all (NotSchedulable), or the candidate set /
// pending operation differed from what was recorded. Either the
// schedule is not this program's (corrupted, truncated, recorded for a
// different program or configuration) or the program has nondeterminism
// outside the checker's control. It is the one replay error, built only
// by Engine.Conform.
type DivergenceError struct {
	// Step is the 0-based schedule index that failed to conform.
	Step int
	// Want is the alternative the schedule asked for.
	Want Alt
	// Expected is the digest recorded when the schedule was explored;
	// Observed is the digest of the state the replay actually reached.
	Expected StepDigest
	Observed StepDigest
	// NumCands is how many alternatives were schedulable at the
	// divergent step.
	NumCands int
	// NotSchedulable marks the harder failure: Want was not among the
	// candidates at all.
	NotSchedulable bool
}

func (e *DivergenceError) Error() string {
	if e.NotSchedulable {
		return fmt.Sprintf("schedule divergence at step %d: %s not among the %d schedulable alternatives "+
			"(observed %s): the schedule is corrupted, truncated or from a different program or "+
			"configuration, or the program is not a deterministic function of the schedule",
			e.Step, e.Want, e.NumCands, e.Observed)
	}
	return fmt.Sprintf("schedule divergence at step %d: thread %d expected %s, observed %s "+
		"(candidate-set digest %#x vs %#x): the program is not a deterministic function of the schedule",
		e.Step, e.Want.Tid, e.Expected.Op, e.Observed.Op, e.Expected.Hash, e.Observed.Hash)
}

// Conform is the one verified replay step: it answers whether want, the
// alternative recorded for schedule index step, is schedulable among
// cands at this scheduling point, and whether the state still matches
// what was recorded. exp is the recorded digest: nil when nothing was
// recorded for the step (only schedulability is checked), compared as a
// whole with withOp, and by its candidate-set hash alone without it
// (the pending op was not recorded; Expected reports the observed one).
// It returns nil for a conforming step, and is the only place a
// DivergenceError is built, so every replayer — ReplayChooser and the
// searcher's stack, DPOR-unit and frontier-expansion replays — reports
// the same failure the same way.
func (e *Engine) Conform(step int, cands []Alt, want Alt, exp *StepDigest, withOp bool) *DivergenceError {
	schedulable := false
	for _, c := range cands {
		if c == want {
			schedulable = true
			break
		}
	}
	if schedulable && exp == nil {
		return nil
	}
	obs := e.StepDigest(cands, want)
	var expected StepDigest
	if exp != nil {
		expected = *exp
		if !withOp {
			expected.Op = obs.Op
		}
	}
	if schedulable && obs == expected {
		return nil
	}
	return &DivergenceError{
		Step:           step,
		Want:           want,
		Expected:       expected,
		Observed:       obs,
		NumCands:       len(cands),
		NotSchedulable: !schedulable,
	}
}

// PendingOpInfo returns the pending-operation description of thread t,
// or a zero OpInfo when t is out of range (a schedule recorded against
// a different program may name threads that were never created here).
func (e *Engine) PendingOpInfo(t tidset.Tid) OpInfo {
	if int(t) < 0 || int(t) >= len(e.threads) {
		return OpInfo{}
	}
	return e.threads[t].pending.Info()
}

// CandsDigest hashes the current candidate set: for each candidate its
// thread id, choice value, and the thread's pending op kind, object
// and aux. The encoding reuses the engine-owned scratch buffer, so a
// digest costs no allocations on the search hot path.
func (e *Engine) CandsDigest(cands []Alt) uint64 {
	buf := e.digBuf[:0]
	buf = binary.AppendUvarint(buf, uint64(len(cands)))
	for _, c := range cands {
		buf = binary.AppendVarint(buf, int64(c.Tid))
		buf = binary.AppendVarint(buf, int64(c.Arg))
		info := e.PendingOpInfo(c.Tid)
		buf = appendString(buf, info.Kind)
		buf = binary.AppendVarint(buf, int64(info.Obj))
		buf = binary.AppendVarint(buf, info.Aux)
	}
	e.digBuf = buf
	return HashBytes(buf).Hi
}

// StepDigest summarizes the scheduling point where alt was (or is
// about to be) chosen among cands.
func (e *Engine) StepDigest(cands []Alt, alt Alt) StepDigest {
	return StepDigest{
		Hash: e.CandsDigest(cands),
		Tid:  alt.Tid,
		Op:   e.PendingOpInfo(alt.Tid),
	}
}
