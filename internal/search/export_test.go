package search

import "fairmc/internal/ledger"

// SetWorkerFaultHook installs (or, with nil, removes) the fault-
// injection hook run at the start of every parallel work unit. Test
// helper only; see workerFaultHook.
func SetWorkerFaultHook(h func(mode string, unit int64)) { workerFaultHook = h }

// SetCheckpointHook installs (or, with nil, removes) the hook called
// after every append and sync of a checkpoint ledger. Test helper only;
// see checkpointHook.
func SetCheckpointHook(h func(event string, l *ledger.Ledger)) { checkpointHook = h }

// FoldCheck folds a plan record and decisions as a checkpoint
// directory's are folded and returns the first reason one of them could
// not have been recorded: the fold's checks, seen from a test.
func FoldCheck(opts Options, plan *PlanRec, done []ShardDoneRec) error {
	if err := opts.Matches(plan); err != nil {
		return err
	}
	m := NewShardMerger(opts, plan.Plan)
	for i := range done {
		if err := m.check(&done[i]); err != nil {
			return err
		}
		m.Fold(done[i])
	}
	return nil
}
