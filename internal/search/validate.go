package search

import (
	"errors"
	"fmt"
	"math"

	"fairmc/internal/core"
)

// Validate reports whether the option combination is usable. It is the
// user-facing gate for every misconfiguration the package used to
// panic on: the fairmc facade and the CLI call it and surface the
// error; search.Explore keeps a panic backstop for internal callers
// that bypass validation. Panics remain only for internal invariant
// violations (e.g. a chooser returning a non-candidate).
func (o *Options) Validate() error {
	if _, err := core.ParseMemModel(o.MemModel); err != nil {
		return fmt.Errorf("search: %w", err)
	}
	if o.TSOBufCap < 0 {
		return fmt.Errorf("search: TSOBufCap must be >= 0 (0 = unbounded), got %d", o.TSOBufCap)
	}
	if o.StatefulPrune && o.Fair {
		return errors.New("search: StatefulPrune is unsound with Fair (the fair scheduler's state is path-dependent)")
	}
	if o.SleepSets && o.Fair {
		return errors.New("search: SleepSets is unsound with Fair (the reduction assumes transitions commute)")
	}
	if o.RandomWalk && o.PCT {
		return errors.New("search: RandomWalk and PCT are mutually exclusive")
	}
	if (o.RandomWalk || o.PCT) && o.MaxExecutions <= 0 && o.TimeLimit <= 0 {
		return errors.New("search: RandomWalk/PCT never exhausts; set MaxExecutions or TimeLimit")
	}
	if o.DPOR && (o.Fair || o.RandomWalk || o.PCT ||
		o.DepthBound > 0 || o.RandomTail || o.StatefulPrune) {
		return errors.New("search: DPOR requires a plain unfair systematic search (no Fair/RandomWalk/PCT/DepthBound/RandomTail/StatefulPrune)")
	}
	if o.Parallelism > 1 {
		if o.StatefulPrune {
			return errors.New("search: StatefulPrune requires Parallelism <= 1 (the visited map is shared across executions)")
		}
		if o.SleepSets && !o.DPOR {
			// Under DPOR the sleep state rides inside the serializable
			// work units (por.Unit.Sleep) and parallelizes with them.
			return errors.New("search: SleepSets requires Parallelism <= 1 (sleep sets depend on sibling exploration order)")
		}
		if o.Monitor != nil {
			return errors.New("search: Monitor requires Parallelism <= 1 (monitors observe executions from one goroutine)")
		}
	}
	if o.CheckpointPath != "" || o.Resume != nil {
		switch {
		case o.StatefulPrune:
			return errors.New("search: checkpointing is incompatible with StatefulPrune (the visited map is not serialized)")
		case o.SleepSets && !o.DPOR:
			return errors.New("search: checkpointing is incompatible with SleepSets (sleep state is not serialized)")
		case o.Monitor != nil:
			return errors.New("search: checkpointing is incompatible with Monitor (monitor state is not serialized)")
		}
	}
	if ck := o.Resume; ck != nil {
		if err := o.validateResume(ck); err != nil {
			return err
		}
	}
	return nil
}

// random reports whether a random strategy replaces the systematic
// search: no schedule tree, executions seeded by global index.
func (o *Options) random() bool { return o.RandomWalk || o.PCT }

// memModel returns the parsed memory model the options select. Unknown
// names have been rejected by Validate; internal callers reaching this
// with an unvalidated string get the backstop panic.
func (o *Options) memModel() core.MemModel {
	m, err := core.ParseMemModel(o.MemModel)
	if err != nil {
		panic(err)
	}
	return m
}

// validateResume checks that a checkpoint belongs to this exact search
// so a resume silently exploring the wrong tree is impossible.
func (o *Options) validateResume(ck *Checkpoint) error {
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("search: resume: checkpoint format version %d, this build reads version %d",
			ck.Version, CheckpointVersion)
	}
	if ck.Done {
		return errors.New("search: resume: checkpoint marks a completed search (stopped on a finding or exhausted the tree); re-running it would double-count results")
	}
	if ck.Meta.Program != o.ProgramName {
		return fmt.Errorf("search: resume: checkpoint was written for program %q, options name %q",
			ck.Meta.Program, o.ProgramName)
	}
	if got, want := strategyOf(o), ck.Meta.Strategy; got != want {
		return fmt.Errorf("search: resume: checkpoint strategy %q, options strategy %q", want, got)
	}
	if ck.Meta.Seed != o.Seed {
		return fmt.Errorf("search: resume: checkpoint seed %d, options seed %d", ck.Meta.Seed, o.Seed)
	}
	if ck.Meta.Parallelism != o.Parallelism {
		return fmt.Errorf("search: resume: checkpoint parallelism %d, options parallelism %d (sharding must match for deterministic continuation)",
			ck.Meta.Parallelism, o.Parallelism)
	}
	if got := OptionsHash(o); ck.Meta.OptionsHash != got {
		return fmt.Errorf("search: resume: options hash mismatch (checkpoint %#x, options %#x): a semantic option differs from the checkpointed search; only budgets (MaxExecutions, TimeLimit) and operational settings may change across a resume",
			ck.Meta.OptionsHash, got)
	}
	if ck.Counters.Quarantined != int64(len(ck.Nondeterminism)) {
		return fmt.Errorf("search: resume: checkpoint counts %d quarantined subtrees but carries %d nondeterminism reports (corrupted checkpoint)",
			ck.Counters.Quarantined, len(ck.Nondeterminism))
	}
	if ck.Counters.Executions < 0 || ck.Counters.Skipped < 0 {
		return fmt.Errorf("search: resume: checkpoint counts %d executions and %d skipped (corrupted checkpoint)",
			ck.Counters.Executions, ck.Counters.Skipped)
	}
	// The position must be the one the path that will run restores, and
	// one it can restore.
	switch {
	case o.DPOR || o.Parallelism > 1:
		if ck.Frontier == nil {
			return errors.New("search: resume: checkpoint is missing the shard frontier")
		}
		return o.validateFrontier(ck)
	case o.random():
		if ck.Stride == nil {
			return errors.New("search: resume: checkpoint is missing the random-strategy position")
		}
	default:
		if ck.Seq == nil {
			return errors.New("search: resume: checkpoint is missing the DFS stack")
		}
		for i, fr := range ck.Seq.Stack {
			if fr.Idx < 0 || fr.Idx >= len(fr.Alts) {
				return fmt.Errorf("search: resume: DFS frame %d takes alternative %d of %d (corrupted checkpoint)",
					i, fr.Idx, len(fr.Alts))
			}
			if fr.HasDig && len(fr.Ops) != len(fr.Alts) {
				return fmt.Errorf("search: resume: DFS frame %d records %d pending ops for %d alternatives (corrupted checkpoint)",
					i, len(fr.Ops), len(fr.Alts))
			}
		}
	}
	return nil
}

// validateFrontier checks a sharded search's position: the unmerged
// shards are numbered on from the merged ones (without overflowing an
// index), are of the kind the strategy plans, and every merged shard is
// accounted for by the counters (each merges at least one execution,
// quarantine or skip).
func (o *Options) validateFrontier(ck *Checkpoint) error {
	f, c := ck.Frontier, &ck.Counters
	if f.Merged < 0 || int64(f.Merged) > c.Executions+c.Quarantined+c.Skipped ||
		f.Merged > math.MaxInt-len(f.Shards) {
		return fmt.Errorf("search: resume: frontier has %d shards merged for %d executions (corrupted checkpoint)",
			f.Merged, c.Executions)
	}
	kind := "prefix"
	switch {
	case o.DPOR:
		kind = "dpor"
	case o.random():
		kind = "none" // ranges are re-planned, never stored
	}
	for i := range f.Shards {
		sh := &f.Shards[i]
		if sh.Index != f.Merged+i || sh.kind() != kind {
			return fmt.Errorf("search: resume: frontier shard %d is %s shard %d, want %s shard %d (corrupted checkpoint)",
				i, sh.kind(), sh.Index, kind, f.Merged+i)
		}
	}
	return nil
}
