// Command fairmc runs the fair stateless model checker on one of the
// built-in model programs.
//
// Usage:
//
//	fairmc -list
//	fairmc -prog wsq-bug2-lockfree-steal [-cb 2] [-fair=true]
//	       [-maxsteps 5000] [-depthbound 0] [-randomtail]
//	       [-maxexec 0] [-timelimit 60s] [-trace] [-seed 1] [-p N]
//
// -p sets the parallel worker count (default GOMAXPROCS) and applies
// to both systematic and random searches; -p 1 is the sequential
// searcher. -race (and -sleepsets without -dpor) force sequential
// search; -dpor parallelizes via serializable work units (docs/DPOR.md)
// and produces the identical report at any -p.
//
// Long runs can be hardened with -watchdog (per-step wedge detector),
// -checkpoint FILE (periodic resumable snapshots; also written on
// SIGINT/SIGTERM), and -resume FILE (continue a checkpointed search).
//
// The nondeterminism defense is on by default: prefix replays are
// verified against per-step conformance digests, a persistently
// diverging subtree is quarantined after -div-retries replay attempts
// (reported as a warning; a search with quarantines never claims
// exhaustion), and every finding is replayed -confirm times and tagged
// with a reproducibility verdict ("stable (n/n)" or "flaky (k/n)").
// -no-conformance disables the digest verification, -confirm 0 the
// confirmation pass.
//
// Observability: -progress prints a live telemetry line every few
// seconds, -metrics-out FILE writes the deterministic run report
// (JSON, schema docs/run-report.schema.json), -events-out FILE streams
// structured JSONL trace events, and -pprof ADDR serves net/http/pprof.
// See docs/OBSERVABILITY.md.
//
// Distributed search (docs/DISTRIBUTED.md, docs/SERVICE.md): -serve
// ADDR starts the jobs service, which hands lease-based shards to
// workers started with -worker URL on any machine with the same build.
// With -prog it runs that one search as the service's job and reports
// it like a local run — the final report is byte-identical to a local
// run with the same -p. Submissions, shard decisions and final reports
// are committed to a write-ahead ledger (-ledger DIR; a temporary one
// without it), so rerunning a killed -serve command over the same
// ledger resumes the search and never re-runs committed work. -serve
// -ledger DIR without -prog serves whatever -submit sends it;
// -status/-cancel (with -job) are its other clients. Worker calls retry
// with exponential backoff (-retry-base, -retry-max, -retry-attempts),
// joins and rejoins are bounded by -join-timeout, and -chaos-scenario
// NAME with -chaos-seed N injects a deterministic fault schedule
// (drops, delays, duplicates, truncations, resets, partitions) for
// resilience testing — the merged report stays byte-identical under
// chaos.
//
// Exit status: codes 0–4, defined once on the fairmc facade
// (fairmc.ExitStatusHelp, printed by -h) and summarized in the
// README's "Exit status" section.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"fairmc"
	"fairmc/internal/dist"
	"fairmc/internal/dist/jobs"
	"fairmc/internal/dist/transport"
	"fairmc/internal/faultinject"
	"fairmc/internal/trace"
	"fairmc/progs"
)

// fatalUsage prints a diagnostic and exits with the usage status.
func fatalUsage(v any) {
	fmt.Fprintln(os.Stderr, v)
	os.Exit(fairmc.ExitUsage)
}

func main() {
	var (
		list       = flag.Bool("list", false, "list the built-in programs and exit")
		prog       = flag.String("prog", "", "program to check (see -list)")
		fair       = flag.Bool("fair", true, "use the fair scheduler (Algorithm 1)")
		fairK      = flag.Int("fairk", 1, "process every k-th yield (the paper's parameterization)")
		cb         = flag.Int("cb", -1, "preemption bound; -1 = unbounded DFS")
		depthBound = flag.Int("depthbound", 0, "stop branching after this many steps (unfair searches)")
		randomTail = flag.Bool("randomtail", false, "finish depth-bounded executions with random scheduling")
		maxSteps   = flag.Int64("maxsteps", 100000, "per-execution step bound (divergence detector)")
		memModel   = flag.String("mm", "sc", "memory model for conc.Memory programs: sc (sequential consistency) or tso (store buffers with searched flush scheduling)")
		tsoBufCap  = flag.Int("tso-buf", 0, "per-thread store-buffer capacity under -mm=tso; 0 = unbounded")
		maxExec    = flag.Int64("maxexec", 0, "execution budget; 0 = unbounded")
		timeLimit  = flag.Duration("timelimit", 0, "wall-clock budget; 0 = unbounded")
		seed       = flag.Uint64("seed", 1, "seed for random tails and random walks")
		printTrace = flag.Bool("trace", false, "print the repro trace of any finding")
		saveFile   = flag.String("save", "", "write the finding's schedule to this file")
		replayFile = flag.String("replay", "", "replay a saved schedule file instead of searching")
		randomWalk = flag.Bool("random", false, "random-walk search instead of systematic DFS (needs -maxexec or -timelimit)")
		pct        = flag.Bool("pct", false, "probabilistic concurrency testing (needs -maxexec or -timelimit)")
		pctDepth   = flag.Int("pctdepth", 3, "PCT target bug depth d")
		sleepSets  = flag.Bool("sleepsets", false, "sleep-set partial-order reduction (unfair searches only)")
		dpor       = flag.Bool("dpor", false, "dynamic partial-order reduction (unfair, terminating programs only)")
		raceDetect = flag.Bool("race", false, "attach the happens-before race detector")
		iterative  = flag.Int("iterative", -1, "iterative context bounding up to this preemption budget")
		parallel   = flag.Int("p", runtime.GOMAXPROCS(0), "worker count for the search; 1 = sequential")
		watchdog   = flag.Duration("watchdog", 30*time.Second, "per-step wedge detector: abort an execution whose thread reaches no scheduling point within this interval; 0 disables")
		ckptFile   = flag.String("checkpoint", "", "write resumable search checkpoints to this file")
		ckptEvery  = flag.Duration("ckpt-interval", 30*time.Second, "interval between periodic checkpoints")
		resumeFile = flag.String("resume", "", "resume a search from this checkpoint file")
		confirm    = flag.Int("confirm", 3, "confirmation replays per finding (reproducibility verdict); 0 disables")
		divRetries = flag.Int("div-retries", 2, "replay attempts before a diverging (nondeterministic) subtree is quarantined; 0 quarantines on first divergence")
		noConform  = flag.Bool("no-conformance", false, "disable per-step conformance digests on prefix replays")
		noFastPath = flag.Bool("no-fastpath", false, "disable the engine fast path (step batching, prefix memoization, engine pooling); reports are byte-identical either way")
		progress   = flag.Bool("progress", false, "print a live telemetry line to stderr every 2s")
		metricsOut = flag.String("metrics-out", "", "write the final deterministic run report (JSON) to this file")
		eventsOut  = flag.String("events-out", "", "stream structured trace events (JSONL) to this file")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		serveAddr  = flag.String("serve", "", "serve the jobs service on this address (e.g. 127.0.0.1:7171): with -prog, run that search as its job and exit with its status (-p sets the local run the merged report mirrors); with -ledger and no -prog, serve submitted jobs until signalled")
		workerURL  = flag.String("worker", "", "run as a pool worker for the jobs service at this URL (e.g. http://host:7171) until it closes; -p sets the concurrent shard capacity")
		leaseTTL   = flag.Duration("lease-ttl", dist.DefaultLeaseTTL, "shard lease duration; a worker silent this long loses its shard (with -serve)")
		workDir    = flag.String("workdir", "", "worker scratch directory for per-shard checkpoints and spooled results (with -worker)")
		chaosName  = flag.String("chaos-scenario", "", "inject a deterministic fault schedule from this preset scenario: with -worker into its calls to the service, with -serve into the job protocol it serves (see docs/DISTRIBUTED.md)")
		chaosSeed  = flag.Uint64("chaos-seed", 1, "seed for the deterministic fault schedule (with -chaos-scenario)")
		retryBase  = flag.Duration("retry-base", 100*time.Millisecond, "initial backoff between retries of a worker-to-coordinator call (with -worker)")
		retryMax   = flag.Duration("retry-max", 5*time.Second, "backoff ceiling for worker-to-coordinator retries (with -worker)")
		retryTries = flag.Int("retry-attempts", 8, "attempts per worker-to-coordinator call before it counts as a failure (with -worker)")
		joinWait   = flag.Duration("join-timeout", dist.DefaultJoinTimeout, "give up joining (or rejoining) the coordinator after this long (with -worker)")
		ledgerDir  = flag.String("ledger", "", "service ledger directory (with -serve): submissions, shard decisions and reports are committed here, so a killed service resumes when restarted over it; without it a -serve -prog run keeps its ledger in a temporary directory (docs/SERVICE.md)")
		maxJobs    = flag.Int("max-jobs", 0, "admission bound on queued+running jobs; excess submissions get 429 (with -serve -ledger); 0 = default")
		maxActive  = flag.Int("max-active", 0, "how many jobs explore concurrently (with -serve -ledger); 0 = default")
		submitURL  = flag.String("submit", "", "submit this search as a job to the service at this URL and exit; -p sets the local run the report mirrors")
		statusURL  = flag.String("status", "", "print job status from the service at this URL and exit (-job selects one job; add -metrics-out to download its run report)")
		cancelURL  = flag.String("cancel", "", "cancel -job at the service at this URL and exit")
		jobID      = flag.String("job", "", "job id for -status and -cancel")
	)
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "usage: fairmc [flags]\n\n")
		flag.PrintDefaults()
		fmt.Fprintf(out, "\n%s\n", fairmc.ExitStatusHelp)
	}
	flag.Parse()

	// Modes that share state across executions cannot shard; fall back
	// to the sequential searcher unless the user asked for -p
	// explicitly, in which case refuse rather than silently comply.
	// DPOR is exempt: its state lives in serializable work units, so it
	// shards at any -p (and -sleepsets rides inside the units).
	if *parallel > 1 && (*raceDetect || (*sleepSets && !*dpor)) {
		explicit := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "p" {
				explicit = true
			}
		})
		if explicit {
			fmt.Fprintln(os.Stderr, "-p > 1 is incompatible with -race and with -sleepsets without -dpor")
			os.Exit(2)
		}
		*parallel = 1
	}

	if *list {
		for _, p := range progs.All() {
			bug := ""
			if p.ExpectBug != "" {
				bug = " [expect: " + p.ExpectBug + "]"
			}
			fmt.Printf("%-32s %s%s\n", p.Name, p.Description, bug)
		}
		return
	}

	// Worker mode: the service's jobs supply the program and every
	// search option, so all search flags are ignored; only -p
	// (capacity), -workdir, the retry/join tuning and the chaos flags
	// apply.
	if *workerURL != "" {
		if *serveAddr != "" {
			fatalUsage("-worker and -serve are mutually exclusive")
		}
		runWorker(*workerURL, *parallel, *workDir, transport.Policy{
			MaxAttempts: *retryTries,
			BaseDelay:   *retryBase,
			MaxDelay:    *retryMax,
			Seed:        *chaosSeed,
		}, *joinWait, chaosInjector(*chaosName, *chaosSeed))
		return
	}

	// Service clients and the service itself need no local search setup.
	if *statusURL != "" {
		clientStatus(*statusURL, *jobID, *metricsOut)
		return
	}
	if *cancelURL != "" {
		clientCancel(*cancelURL, *jobID)
		return
	}
	service := jobs.Config{Dir: *ledgerDir, MaxJobs: *maxJobs, MaxActive: *maxActive}
	if *serveAddr != "" {
		service.Coordinator = dist.CoordinatorConfig{LeaseTTL: *leaseTTL, Chaos: chaosInjector(*chaosName, *chaosSeed)}
		if *prog == "" {
			if *ledgerDir == "" {
				fatalUsage("-serve needs -prog (run that search as the service's one job) or -ledger DIR (serve submitted jobs)")
			}
			runService(*serveAddr, service, *eventsOut, *progress, nil)
			return
		}
	}
	// A checkpoint records the identity of the search it belongs to, so
	// -resume can supply the program, strategy, seed and worker count
	// when the matching flags are not given explicitly. Semantic options
	// beyond those (e.g. -fair, -cb) still have to match; Validate
	// rejects the resume otherwise. Budgets (-maxexec, -timelimit) are
	// deliberately fresh on every resume.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	var resumeCkpt *fairmc.Checkpoint
	if *resumeFile != "" {
		ck, err := fairmc.LoadCheckpoint(*resumeFile)
		if err != nil {
			fatalUsage(err)
		}
		resumeCkpt = ck
		if *prog == "" {
			*prog = ck.Meta.Program
		}
		if !explicit["random"] && !explicit["pct"] {
			switch ck.Meta.Strategy {
			case "random":
				*randomWalk = true
			case "pct":
				*pct = true
			}
		}
		if !explicit["seed"] {
			*seed = ck.Meta.Seed
		}
		if !explicit["p"] && ck.Meta.Parallelism > 0 {
			*parallel = ck.Meta.Parallelism
		}
		// Keep checkpointing the resumed search to the same file
		// unless the user redirected it.
		if *ckptFile == "" {
			*ckptFile = *resumeFile
		}
	}

	p, ok := progs.Lookup(*prog)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown program %q (use -list)\n", *prog)
		os.Exit(2)
	}

	opts := fairmc.Options{
		Fair:          *fair,
		FairK:         *fairK,
		ContextBound:  *cb,
		DepthBound:    *depthBound,
		RandomTail:    *randomTail,
		RandomWalk:    *randomWalk,
		PCT:           *pct,
		PCTDepth:      *pctDepth,
		SleepSets:     *sleepSets,
		DPOR:          *dpor,
		MaxSteps:      *maxSteps,
		MemModel:      *memModel,
		TSOBufCap:     *tsoBufCap,
		MaxExecutions: *maxExec,
		TimeLimit:     *timeLimit,
		Seed:          *seed,
		Parallelism:   *parallel,
		Watchdog:      *watchdog,
		ProgramName:   *prog,
		ConfirmRuns:   *confirm,
		// In Options, 0 means "default retries" and negative means none;
		// on the command line 0 plainly means none.
		DivergenceRetries:  *divRetries,
		DisableConformance: *noConform,
		NoFastPath:         *noFastPath,
	}
	if *divRetries == 0 {
		opts.DivergenceRetries = -1
	}
	if *ckptFile != "" {
		opts.CheckpointPath = *ckptFile
		opts.CheckpointInterval = *ckptEvery
	}
	opts.Resume = resumeCkpt

	// The search as a job: what -submit ships to a service and what
	// -serve -prog gives its own. The program must exist in this build
	// too — same-build is already the distributed-mode contract, and it
	// catches typos locally.
	req := jobs.SubmitRequest{
		Spec:           dist.SpecFromOptions(p.Name, opts),
		RefParallelism: max(1, *parallel),
		ConfirmRuns:    opts.ConfirmRuns,
	}
	if *submitURL != "" {
		if *timeLimit != 0 {
			fatalUsage("-submit needs a deterministic budget: use -maxexec (-timelimit cannot be sharded)")
		}
		if *ckptFile != "" || resumeCkpt != nil {
			fatalUsage("-submit jobs persist in the service ledger, not -checkpoint/-resume")
		}
		clientSubmit(*submitURL, req)
		return
	}

	// -serve -prog: start the service, submit the search as its job, and
	// report the merged result through the same path as a local run. The
	// merged report is byte-identical to a local run with the same -p,
	// so everything downstream (run report, exit status) behaves as if
	// the search had run in this process.
	if *serveAddr != "" {
		if *replayFile != "" || *iterative >= 0 || *raceDetect || (*sleepSets && !*dpor) {
			fatalUsage("-serve is incompatible with -replay, -iterative, -race, and -sleepsets without -dpor (their state cannot be sharded)")
		}
		if *timeLimit != 0 {
			fatalUsage("-serve needs a deterministic budget: use -maxexec (-timelimit cannot be sharded)")
		}
		if *ckptFile != "" || resumeCkpt != nil {
			fatalUsage("-serve persists progress in -ledger, not -checkpoint/-resume")
		}
		runService(*serveAddr, service, *eventsOut, *progress, &oneJob{req: req, opts: opts,
			out: outputConfig{printTrace: *printTrace, saveFile: *saveFile, metricsOut: *metricsOut}})
		return
	}

	// Observability. The live metrics registry feeds the -progress
	// reporter; the run report written by -metrics-out derives from the
	// merged search report instead and is deterministic (see
	// docs/OBSERVABILITY.md). Both apply to a single search, so reject
	// them for -replay (no search) and -iterative (many searches).
	if (*progress || *metricsOut != "" || *eventsOut != "") &&
		(*replayFile != "" || *iterative >= 0) {
		fatalUsage("-progress/-metrics-out/-events-out observe a single search; they are not supported with -replay or -iterative")
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			}
		}()
	}
	var metrics *fairmc.Metrics
	if *progress {
		metrics = fairmc.NewMetrics()
		opts.Metrics = metrics
	}
	var recorder *fairmc.EventRecorder
	var eventsFile *os.File
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			fatalUsage(err)
		}
		eventsFile = f
		// Parallel workers emit in bursts that outrun the single encoder
		// goroutine; a deep queue keeps short searches lossless. Long
		// searches may still drop (and count) events — by design the
		// queue never blocks the scheduler.
		recorder = fairmc.NewEventRecorder(f, 1<<16)
		opts.EventSink = recorder
	}

	// A first SIGINT/SIGTERM asks the search to stop at the next
	// execution boundary, which also flushes a final checkpoint; a
	// second signal kills the process the classic way.
	stop := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		close(stop)
		<-sigs
		os.Exit(130)
	}()
	opts.Stop = stop

	if *replayFile != "" {
		data, err := os.ReadFile(*replayFile)
		if err != nil {
			fatalUsage(err)
		}
		meta, sched, err := trace.Unmarshal(data)
		if err != nil {
			fatalUsage(err)
		}
		if err := meta.Validate(p.Name); err != nil {
			fatalUsage(err)
		}
		opts.Fair = meta.Fair
		if meta.FairK > 0 {
			opts.FairK = meta.FairK
		}
		if meta.MaxSteps > 0 {
			opts.MaxSteps = meta.MaxSteps
		}
		if meta.MemModel != "" {
			opts.MemModel = meta.MemModel
			opts.TSOBufCap = meta.TSOBufCap
		}
		r, err := fairmc.Replay(p.Body, sched, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "replay of %s failed: %v\n", *replayFile, err)
			if r != nil {
				fmt.Fprintf(os.Stderr, "  got %d steps in before the divergence (outcome %s, expected %s)\n",
					r.Steps, r.Outcome, meta.Outcome)
			}
			os.Exit(1)
		}
		fmt.Printf("replayed %s: outcome %s (expected %s)\n", *replayFile, r.Outcome, meta.Outcome)
		if *printTrace {
			fmt.Print(r.FormatTrace())
		}
		if r.Outcome != fairmc.Terminated {
			os.Exit(1)
		}
		return
	}

	if *iterative >= 0 {
		if *ckptFile != "" || resumeCkpt != nil {
			fatalUsage("-checkpoint/-resume are not supported with -iterative (each bound is its own search)")
		}
		reports, err := fairmc.CheckIterative(p.Body, *iterative, opts)
		if err != nil {
			fatalUsage(err)
		}
		fmt.Printf("program:     %s\n", p.Name)
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
			fmt.Printf("cb=%d: %d executions, %s (%.2fs)\n",
				br.Bound, br.Executions, status, br.Elapsed.Seconds())
		}
		last := reports[len(reports)-1]
		if last.FirstBug != nil || last.Divergence != nil {
			os.Exit(1)
		}
		return
	}

	start := time.Now()
	var stopProgress func()
	if *progress {
		stopProgress = startProgress(metrics)
	}
	var res *fairmc.Result
	var err error
	if *raceDetect {
		res, err = fairmc.CheckRaces(p.Body, opts)
	} else {
		res, err = fairmc.Check(p.Body, opts)
	}
	if stopProgress != nil {
		stopProgress()
	}
	// The exit switch below calls os.Exit, which skips deferred
	// functions — flush the event stream and write the run report here,
	// before any classification can exit.
	if recorder != nil {
		if cerr := recorder.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "event stream: %v\n", cerr)
		}
		if n := recorder.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "warning: %d trace event(s) dropped by the bounded event queue (slow writer)\n", n)
		}
		if cerr := eventsFile.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "event stream: %v\n", cerr)
		}
	}
	if err != nil {
		fatalUsage(err)
	}
	hint := "no -checkpoint set; progress lost"
	if *ckptFile != "" {
		hint = fmt.Sprintf("checkpoint written to %s (resume with -resume %s)", *ckptFile, *ckptFile)
	}
	finishSearch(res, p.Name, opts, start, outputConfig{
		printTrace:    *printTrace,
		saveFile:      *saveFile,
		metricsOut:    *metricsOut,
		interruptHint: hint,
	})
}

// outputConfig is the reporting configuration finishSearch needs; the
// local and -serve paths both end here.
type outputConfig struct {
	printTrace    bool
	saveFile      string
	metricsOut    string
	interruptHint string // printed after "interrupted; "
}

// finishSearch prints the human summary, writes the run report, and
// exits with the shared fairmc exit status. It is the single end of
// every search, local or distributed.
func finishSearch(res *fairmc.Result, program string, opts fairmc.Options, start time.Time, out outputConfig) {
	if out.metricsOut != "" {
		data, rerr := res.RunReport(program, opts).Encode()
		if rerr == nil {
			rerr = os.WriteFile(out.metricsOut, data, 0o644)
		}
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "run report: %v\n", rerr)
		} else {
			fmt.Printf("run report written to %s\n", out.metricsOut)
		}
	}
	fmt.Printf("program:     %s\n", program)
	fmt.Printf("executions:  %d (%.2fs, max depth %d)\n",
		res.Executions, time.Since(start).Seconds(), res.MaxDepth)
	if res.CheckpointError != "" {
		fmt.Fprintf(os.Stderr, "warning: %s\n", res.CheckpointError)
	}
	for _, wf := range res.WorkerFailures {
		fmt.Fprintf(os.Stderr, "worker failure (%s unit %d, attempt %d): %s\n",
			wf.Mode, wf.Unit, wf.Attempt, wf.Panic)
	}
	if res.Skipped > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d work unit(s) skipped after repeated worker failures; coverage is incomplete\n",
			res.Skipped)
	}
	if res.Quarantined > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d subtree(s) quarantined — the program is not a deterministic function of its schedule there; coverage is incomplete\n",
			res.Quarantined)
		const maxShown = 8
		for i, nr := range res.Nondeterminism {
			if i == maxShown {
				fmt.Fprintf(os.Stderr, "  … and %d more\n", len(res.Nondeterminism)-maxShown)
				break
			}
			fmt.Fprintf(os.Stderr, "  nondeterminism: %s\n", nr.String())
		}
	}
	for _, r := range res.Races {
		fmt.Printf("RACE: %s\n", r)
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
			fmt.Fprintf(os.Stderr, "saving schedule: %v\n", err)
			return
		}
		fmt.Printf("schedule saved to %s\n", out.saveFile)
	}
	// A flaky confirmation verdict prints its first failure so the
	// nondeterminism is diagnosable; the distinct ExitFlaky status lets
	// scripts keep treating ExitFinding as a trustworthy counterexample.
	reproLine := func(v *fairmc.Reproducibility) {
		if v == nil {
			return
		}
		fmt.Printf("reproducibility: %s\n", v)
		if !v.Stable() && v.FirstFailure != "" {
			fmt.Printf("  %s\n", v.FirstFailure)
		}
	}
	switch {
	case res.FirstBug != nil:
		fmt.Printf("FOUND %s at execution %d:\n", res.FirstBug.Outcome, res.FirstBugExecution)
		if res.FirstBug.Violation != nil {
			fmt.Printf("  %s\n", res.FirstBug.Violation)
		}
		for _, b := range res.FirstBug.Blocked {
			fmt.Printf("  blocked: thread %d (%s) at %s\n", b.Tid, b.Name, b.Op)
		}
		if out.printTrace {
			fmt.Print(res.FirstBug.FormatTrace())
		}
		save(res.FirstBug)
		reproLine(res.BugReproducibility)
	case res.Divergence != nil:
		fmt.Printf("FOUND divergence at execution %d (after %d steps)\n",
			res.DivergenceExecution, res.Divergence.Steps)
		if opts.Fair {
			fmt.Printf("classification: %s\n", res.Liveness)
		} else {
			// Only DPOR and sleep sets report an unfair divergence.
			fmt.Println("the reduction's terminating-program precondition failed: an unfair execution ran past -maxsteps")
			fmt.Println("rerun with the default fair search (without -dpor, -sleepsets and -fair=false)")
		}
		if out.printTrace {
			fmt.Print(res.Divergence.FormatTrace())
		}
		save(res.Divergence)
		reproLine(res.DivergenceReproducibility)
	case res.FirstWedge != nil:
		fmt.Printf("FOUND wedged execution at execution %d:\n", res.FirstWedgeExecution)
		if res.FirstWedge.Wedge != nil {
			fmt.Printf("  %s\n", res.FirstWedge.Wedge)
		}
		if out.printTrace {
			fmt.Print(res.FirstWedge.FormatTrace())
		}
		// No save(): a wedge is timing-dependent and its final step is
		// deliberately absent from the schedule, so replay cannot
		// reproduce it.
	case len(res.Races) > 0:
		fmt.Printf("FOUND %d race(s)\n", len(res.Races))
	case res.Interrupted:
		fmt.Printf("interrupted (%s)\n", out.interruptHint)
	case res.Exhausted:
		fmt.Println("OK: schedule tree exhausted, no findings")
	default:
		fmt.Println("no findings within budget (search incomplete)")
	}
	if code := res.ExitStatus(); code != fairmc.ExitOK {
		os.Exit(code)
	}
}

// startProgress starts the live telemetry line and returns its stop
// function.
func startProgress(metrics *fairmc.Metrics) (stop func()) {
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
				fmt.Fprintf(os.Stderr,
					"progress: %d execs, %d steps, frontier %d, yields %d, fair-blocked %d, edges +%d/-%d, quarantined %d, wedges %d\n",
					s.Executions, s.Steps, s.Frontier, s.Yields,
					s.FairBlocked, s.EdgeAdds, s.EdgeErases,
					s.Quarantined, s.Wedges)
			}
		}
	}()
	return func() { close(done) }
}

// chaosInjector resolves the -chaos-scenario/-chaos-seed flags into a
// deterministic fault injector, or nil when chaos is off.
func chaosInjector(name string, seed uint64) *faultinject.Injector {
	if name == "" {
		return nil
	}
	sc, ok := faultinject.Lookup(name)
	if !ok {
		fatalUsage(fmt.Sprintf("unknown -chaos-scenario %q (have: %s)",
			name, strings.Join(faultinject.Names(), ", ")))
	}
	return faultinject.New(seed, sc)
}
