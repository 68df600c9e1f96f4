// check and replay: a search in this process, and the re-execution of
// one schedule it saved. finishSearch, the single end of every search,
// is shared with serve -prog.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fairmc"
	"fairmc/internal/search"
	"fairmc/internal/trace"
)

// check searches one program in this process.
func (c *cli) check(args []string) int {
	var (
		opts      fairmc.Options
		race      bool
		iterative int
		pprofAddr string
		out       outputConfig
		live      liveConfig
	)
	fs := c.flagSet("check", "")
	finish := searchFlags(fs, &opts)
	fs.DurationVar(&opts.TimeLimit, "timelimit", 0, "wall-clock budget; 0 = unbounded")
	fs.BoolVar(&race, "race", false, "attach the happens-before race detector")
	fs.IntVar(&iterative, "iterative", -1, "iterative context bounding up to this preemption budget")
	fs.StringVar(&opts.CheckpointPath, "checkpoint", "", "record the search's progress in this directory; rerunning over it resumes the search, and it supplies -prog, -random/-pct, -seed and -p unless given")
	fs.DurationVar(&opts.CheckpointInterval, "ckpt-interval", 30*time.Second, "interval between checkpoints")
	fs.StringVar(&pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	outputFlags(fs, &out)
	liveFlags(fs, &live)
	if status, stop := c.parseFlags(fs, args, 0); stop {
		return status
	}
	finish()
	explicit := map[string]bool{} // flags given on the command line
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	// Modes that share state across executions cannot shard; fall back
	// to the sequential searcher unless the user asked for -p
	// explicitly, in which case refuse rather than silently comply.
	// DPOR is exempt: its state lives in serializable work units, so it
	// shards at any -p (and -sleepsets rides inside the units).
	if opts.Parallelism > 1 && (race || (opts.SleepSets && !opts.DPOR)) {
		if explicit["p"] {
			return c.usageError("-p > 1 is incompatible with -race and with -sleepsets without -dpor")
		}
		opts.Parallelism = 1
	}
	// Checkpoints, the live telemetry and the run report each follow one
	// search; -iterative runs one per bound.
	if iterative >= 0 && (opts.CheckpointPath != "" || live != (liveConfig{}) || out.metricsOut != "") {
		return c.usageError("-iterative runs one search per bound: -checkpoint and -progress/-metrics-out/-events-out follow a single search and do not apply")
	}
	if c.parseOnly {
		return fairmc.ExitOK
	}

	// A checkpoint directory records the search it belongs to, so a
	// rerun over it gets the program, strategy, seed and worker count
	// from there when the matching flags are not given explicitly.
	// Everything else that shapes the search (e.g. -fair, -cb) must
	// match; budgets (-maxexec, -timelimit) are fresh on every run.
	if dir := opts.CheckpointPath; dir != "" {
		rec, err := search.ReadPlan(dir)
		if err != nil {
			return c.usageError(err)
		}
		if rec != nil {
			if opts.ProgramName == "" {
				opts.ProgramName = rec.Spec.ProgramName
			}
			if !explicit["random"] && !explicit["pct"] {
				opts.RandomWalk, opts.PCT = rec.Spec.RandomWalk, rec.Spec.PCT
			}
			if !explicit["seed"] {
				opts.Seed = rec.Spec.Seed
			}
			if !explicit["p"] {
				opts.Parallelism = rec.Plan.RefParallelism
			}
			if err := opts.Matches(rec); err != nil {
				return c.usageError(err)
			}
		}
	}
	p, err := lookup(opts.ProgramName)
	if err != nil {
		return c.usageError(err)
	}

	if pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				fmt.Fprintf(c.stderr, "pprof: %v\n", err)
			}
		}()
	}
	// A first SIGINT/SIGTERM asks the search to stop at the next
	// execution boundary, which also flushes a final checkpoint.
	stop, release := stopOnSignal()
	defer release()
	opts.Stop = stop

	if iterative >= 0 {
		reports, err := fairmc.CheckIterative(p.Body, iterative, opts)
		if err != nil {
			return c.usageError(err)
		}
		fmt.Fprintf(c.stdout, "program:     %s\n", p.Name)
		for _, br := range reports {
			status := "clean"
			switch {
			case br.FirstBug != nil:
				status = "FOUND " + br.FirstBug.Outcome.String()
			case br.Divergence != nil:
				status = "FOUND divergence"
			case !br.Exhausted:
				status = "incomplete"
			}
			fmt.Fprintf(c.stdout, "cb=%d: %d executions, %s (%.2fs)\n",
				br.Bound, br.Executions, status, br.Elapsed.Seconds())
		}
		last := reports[len(reports)-1]
		if last.FirstBug != nil || last.Divergence != nil {
			return fairmc.ExitFinding
		}
		return fairmc.ExitOK
	}

	// Observability. The live metrics registry feeds the -progress
	// reporter; the run report written by -metrics-out derives from the
	// merged search report instead and is deterministic (see
	// docs/OBSERVABILITY.md).
	var recorder *fairmc.EventRecorder
	var eventsFile *os.File
	if live.eventsOut != "" {
		f, err := os.Create(live.eventsOut)
		if err != nil {
			return c.usageError(err)
		}
		eventsFile = f
		// Parallel workers emit in bursts that outrun the single encoder
		// goroutine; a deep queue keeps short searches lossless. Long
		// searches may still drop (and count) events — by design the
		// queue never blocks the scheduler.
		recorder = fairmc.NewEventRecorder(f, 1<<16)
		opts.EventSink = recorder
	}

	stopProgress := func() {}
	if live.progress {
		opts.Metrics = fairmc.NewMetrics()
		stopProgress = c.startProgress(opts.Metrics)
	}
	start := time.Now()
	var res *fairmc.Result
	if race {
		res, err = fairmc.CheckRaces(p.Body, opts)
	} else {
		res, err = fairmc.Check(p.Body, opts)
	}
	stopProgress()
	if recorder != nil {
		if cerr := recorder.Close(); cerr != nil {
			fmt.Fprintf(c.stderr, "event stream: %v\n", cerr)
		}
		if n := recorder.Dropped(); n > 0 {
			fmt.Fprintf(c.stderr, "warning: %d trace event(s) dropped by the bounded event queue (slow writer)\n", n)
		}
		if cerr := eventsFile.Close(); cerr != nil {
			fmt.Fprintf(c.stderr, "event stream: %v\n", cerr)
		}
	}
	if err != nil {
		return c.usageError(err)
	}
	out.interruptHint = "no -checkpoint set; progress lost"
	if f := opts.CheckpointPath; f != "" {
		out.interruptHint = fmt.Sprintf("rerun with -checkpoint %s to resume", f)
	}
	return c.finishSearch(res, p.Name, opts, start, out)
}

// replay re-executes the schedule in a file check -save wrote, under
// the scheduler and memory-model parameters the file records.
func (c *cli) replay(args []string) int {
	var prog string
	var printTrace bool
	fs := c.flagSet("replay", " FILE")
	progFlag(fs, &prog, "program to replay against, when FILE does not name one")
	traceFlag(fs, &printTrace, "print the replayed trace")
	if status, stop := c.parseFlags(fs, args, 1); stop || c.parseOnly {
		return status
	}
	file := fs.Arg(0)
	data, err := os.ReadFile(file)
	if err != nil {
		return c.usageError(err)
	}
	meta, sched, err := trace.Unmarshal(data)
	if err != nil {
		return c.usageError(err)
	}
	if err := meta.Validate(prog); err != nil {
		return c.usageError(err)
	}
	if meta.Program != "" {
		prog = meta.Program
	}
	if prog == "" {
		return c.usageError(file + " names no program: pass -prog")
	}
	p, err := lookup(prog)
	if err != nil {
		return c.usageError(err)
	}
	opts := fairmc.Defaults()
	opts.Fair = meta.Fair
	if meta.FairK > 0 {
		opts.FairK = meta.FairK
	}
	if meta.MaxSteps > 0 {
		opts.MaxSteps = meta.MaxSteps
	}
	opts.MemModel, opts.TSOBufCap = meta.MemModel, meta.TSOBufCap
	r, err := fairmc.Replay(p.Body, sched, opts)
	if err != nil {
		fmt.Fprintf(c.stderr, "replay of %s failed: %v\n", file, err)
		if r != nil {
			fmt.Fprintf(c.stderr, "  got %d steps in before the divergence (outcome %s, expected %s)\n",
				r.Steps, r.Outcome, meta.Outcome)
		}
		return fairmc.ExitFinding
	}
	fmt.Fprintf(c.stdout, "replayed %s: outcome %s (expected %s)\n", file, r.Outcome, meta.Outcome)
	if printTrace {
		fmt.Fprint(c.stdout, r.FormatTrace())
	}
	if r.Outcome != fairmc.Terminated {
		return fairmc.ExitFinding
	}
	return fairmc.ExitOK
}

// finishSearch prints the human summary, writes the run report, and
// returns the shared fairmc exit status. It is the single end of every
// search, local or distributed.
func (c *cli) finishSearch(res *fairmc.Result, program string, opts fairmc.Options, start time.Time, out outputConfig) int {
	if out.metricsOut != "" {
		data, rerr := res.RunReport(program, opts).Encode()
		if rerr == nil {
			rerr = os.WriteFile(out.metricsOut, data, 0o644)
		}
		if rerr != nil {
			fmt.Fprintf(c.stderr, "run report: %v\n", rerr)
		} else {
			fmt.Fprintf(c.stdout, "run report written to %s\n", out.metricsOut)
		}
	}
	fmt.Fprintf(c.stdout, "program:     %s\n", program)
	fmt.Fprintf(c.stdout, "executions:  %d (%.2fs, max depth %d)\n",
		res.Executions, time.Since(start).Seconds(), res.MaxDepth)
	if res.CheckpointError != "" {
		fmt.Fprintf(c.stderr, "warning: %s\n", res.CheckpointError)
	}
	for _, wf := range res.WorkerFailures {
		fmt.Fprintf(c.stderr, "worker failure (%s unit %d, attempt %d): %s\n",
			wf.Mode, wf.Unit, wf.Attempt, wf.Panic)
	}
	if res.Skipped > 0 {
		fmt.Fprintf(c.stderr, "warning: %d work unit(s) skipped after repeated worker failures; coverage is incomplete\n",
			res.Skipped)
	}
	if res.Quarantined > 0 {
		fmt.Fprintf(c.stderr, "warning: %d subtree(s) quarantined — the program is not a deterministic function of its schedule there; coverage is incomplete\n",
			res.Quarantined)
		const maxShown = 8
		for i, nr := range res.Nondeterminism {
			if i == maxShown {
				fmt.Fprintf(c.stderr, "  … and %d more\n", len(res.Nondeterminism)-maxShown)
				break
			}
			fmt.Fprintf(c.stderr, "  nondeterminism: %s\n", nr.String())
		}
	}
	for _, r := range res.Races {
		fmt.Fprintf(c.stdout, "RACE: %s\n", r)
	}
	save := func(r *fairmc.ExecResult) {
		if out.saveFile == "" {
			return
		}
		data, err := trace.Marshal(trace.Meta{
			Program:   program,
			Fair:      opts.Fair,
			FairK:     opts.FairK,
			MaxSteps:  opts.MaxSteps,
			MemModel:  opts.MemModel,
			TSOBufCap: opts.TSOBufCap,
			Outcome:   r.Outcome.String(),
		}, r.Schedule)
		if err == nil {
			err = os.WriteFile(out.saveFile, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(c.stderr, "saving schedule: %v\n", err)
			return
		}
		fmt.Fprintf(c.stdout, "schedule saved to %s\n", out.saveFile)
	}
	// A flaky confirmation verdict prints its first failure so the
	// nondeterminism is diagnosable; the distinct ExitFlaky status lets
	// scripts keep treating ExitFinding as a trustworthy counterexample.
	reproLine := func(v *fairmc.Reproducibility) {
		if v == nil {
			return
		}
		fmt.Fprintf(c.stdout, "reproducibility: %s\n", v)
		if !v.Stable() && v.FirstFailure != "" {
			fmt.Fprintf(c.stdout, "  %s\n", v.FirstFailure)
		}
	}
	switch {
	case res.FirstBug != nil:
		fmt.Fprintf(c.stdout, "FOUND %s at execution %d:\n", res.FirstBug.Outcome, res.FirstBugExecution)
		if res.FirstBug.Violation != nil {
			fmt.Fprintf(c.stdout, "  %s\n", res.FirstBug.Violation)
		}
		for _, b := range res.FirstBug.Blocked {
			fmt.Fprintf(c.stdout, "  blocked: thread %d (%s) at %s\n", b.Tid, b.Name, b.Op)
		}
		if out.printTrace {
			fmt.Fprint(c.stdout, res.FirstBug.FormatTrace())
		}
		save(res.FirstBug)
		reproLine(res.BugReproducibility)
	case res.Divergence != nil:
		fmt.Fprintf(c.stdout, "FOUND divergence at execution %d (after %d steps)\n",
			res.DivergenceExecution, res.Divergence.Steps)
		if opts.Fair {
			fmt.Fprintf(c.stdout, "classification: %s\n", res.Liveness)
		} else {
			// Only DPOR and sleep sets report an unfair divergence.
			fmt.Fprintln(c.stdout, "the reduction's terminating-program precondition failed: an unfair execution ran past -maxsteps")
			fmt.Fprintln(c.stdout, "rerun with the default fair search (without -dpor, -sleepsets and -fair=false)")
		}
		if out.printTrace {
			fmt.Fprint(c.stdout, res.Divergence.FormatTrace())
		}
		save(res.Divergence)
		reproLine(res.DivergenceReproducibility)
	case res.FirstWedge != nil:
		fmt.Fprintf(c.stdout, "FOUND wedged execution at execution %d:\n", res.FirstWedgeExecution)
		if res.FirstWedge.Wedge != nil {
			fmt.Fprintf(c.stdout, "  %s\n", res.FirstWedge.Wedge)
		}
		if out.printTrace {
			fmt.Fprint(c.stdout, res.FirstWedge.FormatTrace())
		}
		// No save(): a wedge is timing-dependent and its final step is
		// deliberately absent from the schedule, so replay cannot
		// reproduce it.
	case len(res.Races) > 0:
		fmt.Fprintf(c.stdout, "FOUND %d race(s)\n", len(res.Races))
	case res.Interrupted:
		fmt.Fprintf(c.stdout, "interrupted (%s)\n", out.interruptHint)
	case res.Exhausted:
		fmt.Fprintln(c.stdout, "OK: schedule tree exhausted, no findings")
	default:
		fmt.Fprintln(c.stdout, "no findings within budget (search incomplete)")
	}
	return res.ExitStatus()
}

// startProgress starts the live telemetry line and returns its stop
// function.
func (c *cli) startProgress(metrics *fairmc.Metrics) (stop func()) {
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(2 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				s := metrics.Snapshot()
				fmt.Fprintf(c.stderr,
					"progress: %d execs, %d steps, frontier %d, yields %d, fair-blocked %d, edges +%d/-%d, quarantined %d, wedges %d\n",
					s.Executions, s.Steps, s.Frontier, s.Yields,
					s.FairBlocked, s.EdgeAdds, s.EdgeErases,
					s.Quarantined, s.Wedges)
			}
		}
	}()
	return func() { close(done) }
}

// stopOnSignal returns a channel that the first SIGINT/SIGTERM closes —
// a request to wind down; a second signal kills the process the classic
// way. release ends the watch.
func stopOnSignal() (stop chan struct{}, release func()) {
	stop = make(chan struct{})
	done := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		for first := true; ; first = false {
			select {
			case <-done:
				return
			case <-sigs:
				if !first {
					os.Exit(130)
				}
				close(stop)
			}
		}
	}()
	return stop, func() {
		signal.Stop(sigs)
		close(done)
	}
}
