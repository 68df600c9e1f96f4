package search

import (
	"errors"
	"fmt"

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
	if o.sharded() {
		// The search is split into shards that run concurrently or
		// across a checkpoint: state shared across executions cannot
		// follow it. (DPOR at Parallelism 1 runs on the driver too, but
		// its one worker sees every unit in turn; under DPOR the sleep
		// state rides inside the work units, por.Unit.Sleep.)
		switch {
		case o.StatefulPrune:
			return errors.New("search: StatefulPrune requires Parallelism <= 1 and no checkpoint (the visited map is shared across executions)")
		case o.SleepSets && !o.DPOR:
			return errors.New("search: SleepSets requires Parallelism <= 1 and no checkpoint (sleep sets depend on sibling exploration order)")
		case o.Monitor != nil:
			return errors.New("search: Monitor requires Parallelism <= 1 and no checkpoint (a monitor observes every execution of the search, in order, from one goroutine)")
		}
	}
	return nil
}

// sharded reports whether the search is cut into shards beyond what
// its strategy needs: Parallelism > 1, or a checkpoint directory to
// record them in. Such a search runs on the sharded driver (driver.go),
// as DPOR always does.
func (o *Options) sharded() bool {
	return o.Parallelism > 1 || o.CheckpointPath != ""
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
