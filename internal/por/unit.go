package por

// This file defines the serializable work unit the parallel DPOR
// driver (internal/search) fans out, following the parsimonious-
// optimal formulation: instead of mutating shared backtrack/sleep-set
// state on a DFS stack, every detected race yields one self-contained
// Unit — a prefix of scheduling choices plus the race-reversal
// obligation that spawned it. Units carry everything a worker needs
// (schedule, conformance digests, initial sleep entries), so they can
// be executed by any process in any order; Analyze is the pure
// race-detection function both the sequential and the distributed
// drivers share.

import "fairmc/internal/engine"

// Unit is one self-contained DPOR work unit: a schedule prefix ending
// in the race reversal that spawned it. A worker replays Sched
// (verifying Digs), then extends the execution with leftmost-awake
// choices until it ends; the races found along the trace become child
// units. The zero Unit is the root: an empty prefix whose run is the
// search's first execution.
//
// A unit leaves its process in this package's binary codec (codec.go):
// plan records, checkpoints and lease grants carry it as Shard.Unit.
type Unit struct {
	// Path identifies the unit's position in the schedule tree:
	// Path[i] is the index of the chosen alternative within the
	// context-bound-filtered candidate list at step i. Paths are the
	// dedup keys of the merge's seen set; they deliberately index the
	// budget-filtered list, not the sleep-filtered one, because sleep
	// state differs between units visiting the same state while the
	// preemption-budget filter does not.
	Path []int
	// Sched is the concrete alternative chosen at each Path step.
	Sched []engine.Alt
	// Digs are the conformance digests recorded when each Path step
	// was first explored; the replay verifies against them. Empty when
	// conformance is disabled.
	Digs []engine.StepDigest
	// Sleep[i] holds the moves to install into the live sleep set
	// before step i executes: the already-covered siblings at that
	// state. Entries past the unit's branch point are nil, and so is
	// the root's Sleep.
	Sleep [][]Move
}

// ExecStep is the per-step record a unit run produces for Analyze: the
// executed move and the candidate landscape it was chosen from.
type ExecStep struct {
	// Chosen is the move that executed at this step.
	Chosen Move
	// Alts is the context-bound-filtered candidate list at the step's
	// state (owned by the recorder, not the engine's reused buffer).
	Alts []engine.Alt
	// Moves[i] is the Move of Alts[i] at that state.
	Moves []Move
	// Awake[i] reports whether Alts[i] was awake in the unit's live
	// sleep set when the step executed.
	Awake []bool
}

// Proposal is one race-reversal obligation found by Analyze: explore
// candidate index Idx (into the step's filtered candidate list) at
// step Pos instead of what this unit chose there.
type Proposal struct {
	// Pos is the 0-based step the reversal branches at.
	Pos int
	// Idx is the index of the alternative to take at Pos, within the
	// context-bound-filtered candidate list recorded for that step.
	Idx int
}

// Analyze runs the conservative race detection of Flanagan/Godefroid-
// style DPOR over one unit's executed trace and returns the reversal
// proposals, deduplicated in discovery order.
//
// branch is the index of the unit's last replayed step (len(Sched)-1;
// -1 for the root unit). Only pairs whose later step q is at or past
// the branch are analyzed: every pair with q < branch occurred
// identically in the parent's trace and was analyzed when the parent
// merged, so each racing pair is analyzed exactly once globally.
//
// For each dependent pair (p, q) of distinct threads, the proposals
// are every awake alternative of q's thread at step p; if that thread
// has no awake alternative there, conservatively every awake
// alternative at p (the classic fallback when the racing thread was
// not directly schedulable at the earlier state).
func Analyze(branch int, steps []ExecStep) []Proposal {
	var out []Proposal
	// proposed[off[p]+i] records that alternative i of step p is already
	// in out: two flat arrays, linear in the trace however many pairs race.
	off := make([]int, len(steps)+1)
	for p := range steps {
		off[p+1] = off[p] + len(steps[p].Alts)
	}
	proposed := make([]bool, off[len(steps)])
	propose := func(pos, idx int) {
		if k := off[pos] + idx; !proposed[k] {
			proposed[k] = true
			out = append(out, Proposal{Pos: pos, Idx: idx})
		}
	}
	lo := branch
	if lo < 0 {
		lo = 0
	}
	for q := lo; q < len(steps); q++ {
		mq := steps[q].Chosen
		for p := q - 1; p >= 0; p-- {
			mp := steps[p].Chosen
			if mp.Tid == mq.Tid || Independent(mp, mq) {
				continue
			}
			st := &steps[p]
			added := false
			for i := range st.Alts {
				if st.Moves[i].Tid == mq.Tid && st.Awake[i] {
					propose(p, i)
					added = true
				}
			}
			if !added {
				for i := range st.Alts {
					if st.Awake[i] {
						propose(p, i)
					}
				}
			}
		}
	}
	return out
}
