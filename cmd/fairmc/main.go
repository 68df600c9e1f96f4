// Command fairmc runs the fair stateless model checker on the built-in
// model programs. It is six commands, each with its own flags
// (fairmc <command> -h lists them):
//
//	fairmc list                      the program catalogue
//	fairmc check -prog P [flags]     search P's schedules in this process
//	fairmc replay [flags] FILE       re-execute a schedule saved by check -save
//	fairmc serve -addr A [flags]     the jobs service (docs/SERVICE.md); with
//	                                 -prog P it runs P as its one job and
//	                                 reports it like check
//	fairmc worker -url U [flags]     a pool worker for a jobs service
//	fairmc job submit|status|cancel  the service's clients
//
// The search flags (-prog, -fair, -cb, -dpor, -p, …) fill one
// fairmc.Options and mean the same to check, serve and job submit. The
// exit status is fairmc.ExitStatusHelp, printed by fairmc -h.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"fairmc"
	"fairmc/internal/faultinject"
	"fairmc/progs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program: it returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	return (&cli{stdout: stdout, stderr: stderr}).dispatch(args)
}

// exitFailed is the status of a worker, a service or a client that
// could not do its job (the service unreachable, a submission refused).
// No search ran, so it is not one of fairmc's search statuses.
const exitFailed = 1

// cli is where a command writes. With parseOnly a command stops once
// its arguments have parsed and passed its checks, before it opens a
// file or a socket: that is how the tests hold the documents' command
// lines to the flags.
type cli struct {
	stdout, stderr io.Writer
	parseOnly      bool
}

// usageError prints a diagnostic and returns the usage status.
func (c *cli) usageError(v any) int {
	fmt.Fprintln(c.stderr, v)
	return fairmc.ExitUsage
}

const usage = `usage: fairmc <command> [flags]

  fairmc list      list the built-in programs
  fairmc check     search a program's schedules for bugs and livelocks
  fairmc replay    re-execute a schedule saved by check -save
  fairmc serve     serve the jobs service; with -prog, run that one search through it
  fairmc worker    run shards for a jobs service
  fairmc job       submit | status | cancel: the jobs service's clients

fairmc <command> -h lists a command's flags.

` + fairmc.ExitStatusHelp

// dispatch runs the command args[0] names on args[1:].
func (c *cli) dispatch(args []string) int {
	if len(args) == 0 {
		return c.usageError(usage)
	}
	switch cmd, args := args[0], args[1:]; cmd {
	case "list":
		return c.list(args)
	case "check":
		return c.check(args)
	case "replay":
		return c.replay(args)
	case "serve":
		return c.serve(args)
	case "worker":
		return c.worker(args)
	case "job":
		return c.job(args)
	case "help", "-h", "-help", "--help":
		fmt.Fprintln(c.stdout, usage)
		return fairmc.ExitOK
	default:
		return c.usageError(fmt.Sprintf("unknown command %q\n%s", cmd, usage))
	}
}

// flagSet returns the empty flag set of a command; operands names what
// follows the flags, if anything.
func (c *cli) flagSet(name, operands string) *flag.FlagSet {
	fs := flag.NewFlagSet("fairmc "+name, flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	fs.Usage = func() {
		fmt.Fprintf(c.stderr, "usage: fairmc %s [flags]%s\n\n", name, operands)
		fs.PrintDefaults()
	}
	return fs
}

// parseFlags parses args, which must leave exactly operands non-flag
// arguments and give each required flag a value. stop means the command
// is over with that status: help was printed, or the arguments are wrong.
func (c *cli) parseFlags(fs *flag.FlagSet, args []string, operands int, required ...string) (status int, stop bool) {
	switch err := fs.Parse(args); {
	case err == flag.ErrHelp:
		return fairmc.ExitOK, true
	case err != nil:
		return fairmc.ExitUsage, true // fs has printed it
	case fs.NArg() != operands:
		fmt.Fprintf(c.stderr, "%s: %d argument(s) after the flags, want %d: %q\n", fs.Name(), fs.NArg(), operands, fs.Args())
		fs.Usage()
		return fairmc.ExitUsage, true
	}
	for _, name := range required {
		if fs.Lookup(name).Value.String() == "" {
			return c.usageError(fs.Name() + " needs -" + name), true
		}
	}
	return 0, false
}

// searchFlags registers the flags that define a search, bound straight
// into o: what check runs, what serve -prog and job submit ship as a
// job. finish completes o once fs is parsed.
func searchFlags(fs *flag.FlagSet, o *fairmc.Options) (finish func()) {
	progFlag(fs, &o.ProgramName, "program to check (see fairmc list)")
	fs.BoolVar(&o.Fair, "fair", true, "use the fair scheduler (Algorithm 1)")
	fs.IntVar(&o.FairK, "fairk", 1, "process every k-th yield (the paper's parameterization)")
	fs.IntVar(&o.ContextBound, "cb", -1, "preemption bound; -1 = unbounded DFS")
	fs.IntVar(&o.DepthBound, "depthbound", 0, "stop branching after this many steps (unfair searches)")
	fs.BoolVar(&o.RandomTail, "randomtail", false, "finish depth-bounded executions with random scheduling")
	fs.Int64Var(&o.MaxSteps, "maxsteps", 100000, "per-execution step bound (divergence detector)")
	fs.StringVar(&o.MemModel, "mm", "sc", "memory model for conc.Memory programs: sc (sequential consistency) or tso (store buffers with searched flush scheduling)")
	fs.IntVar(&o.TSOBufCap, "tso-buf", 0, "per-thread store-buffer capacity under -mm=tso; 0 = unbounded")
	fs.Int64Var(&o.MaxExecutions, "maxexec", 0, "execution budget; 0 = unbounded")
	fs.Uint64Var(&o.Seed, "seed", 1, "seed for random tails and random walks")
	fs.BoolVar(&o.RandomWalk, "random", false, "random-walk search instead of systematic DFS (needs an execution or time budget)")
	fs.BoolVar(&o.PCT, "pct", false, "probabilistic concurrency testing (needs an execution or time budget)")
	fs.IntVar(&o.PCTDepth, "pctdepth", 3, "PCT target bug depth d")
	fs.BoolVar(&o.SleepSets, "sleepsets", false, "sleep-set partial-order reduction (unfair searches only)")
	fs.BoolVar(&o.DPOR, "dpor", false, "dynamic partial-order reduction (unfair, terminating programs only)")
	parallelFlag(fs, &o.Parallelism, "worker count for the search; 1 = sequential")
	fs.DurationVar(&o.Watchdog, "watchdog", 30*time.Second, "per-step wedge detector: abort an execution whose thread reaches no scheduling point within this interval; 0 disables")
	fs.IntVar(&o.ConfirmRuns, "confirm", 3, "confirmation replays per finding (reproducibility verdict); 0 disables")
	fs.IntVar(&o.DivergenceRetries, "div-retries", 2, "replay attempts before a diverging (nondeterministic) subtree is quarantined; 0 quarantines on first divergence")
	fs.BoolVar(&o.DisableConformance, "no-conformance", false, "disable per-step conformance digests on prefix replays")
	fs.BoolVar(&o.NoFastPath, "no-fastpath", false, "disable the engine fast path (step batching, prefix memoization, engine pooling); reports are byte-identical either way")
	return func() {
		// In Options, 0 means "default retries" and negative means none;
		// on the command line 0 plainly means none.
		if o.DivergenceRetries == 0 {
			o.DivergenceRetries = -1
		}
	}
}

// The flags that commands with different flag groups share, so that
// each name and default is still written once.
func progFlag(fs *flag.FlagSet, p *string, usage string) { fs.StringVar(p, "prog", "", usage) }
func parallelFlag(fs *flag.FlagSet, p *int, usage string) {
	fs.IntVar(p, "p", runtime.GOMAXPROCS(0), usage)
}
func traceFlag(fs *flag.FlagSet, p *bool, usage string) { fs.BoolVar(p, "trace", false, usage) }
func metricsOutFlag(fs *flag.FlagSet, p *string, usage string) {
	fs.StringVar(p, "metrics-out", "", usage)
}
func jobFlag(fs *flag.FlagSet, p *string, usage string) { fs.StringVar(p, "job", "", usage) }
func urlFlag(fs *flag.FlagSet, p *string) {
	fs.StringVar(p, "url", "", "the jobs service (e.g. http://host:7171)")
}

// outputConfig is how a finished search is reported; check and serve
// -prog both end in finishSearch with one.
type outputConfig struct {
	printTrace    bool
	saveFile      string
	metricsOut    string
	interruptHint string // printed after "interrupted; "
}

func outputFlags(fs *flag.FlagSet, out *outputConfig) {
	traceFlag(fs, &out.printTrace, "print the repro trace of any finding")
	fs.StringVar(&out.saveFile, "save", "", "write the finding's schedule to this file (fairmc replay re-executes it)")
	metricsOutFlag(fs, &out.metricsOut, "write the final deterministic run report (JSON) to this file")
}

// liveConfig is the observation of a run in progress.
type liveConfig struct {
	progress  bool
	eventsOut string
}

func liveFlags(fs *flag.FlagSet, l *liveConfig) {
	fs.BoolVar(&l.progress, "progress", false, "print a live telemetry line to stderr every 2s")
	fs.StringVar(&l.eventsOut, "events-out", "", "stream structured trace events (JSONL) to this file")
}

// chaosFlags registers the fault-injection flags, the seed into *seed;
// where says what the faults go into. The returned function resolves
// them once fs is parsed (nil when chaos is off).
func chaosFlags(fs *flag.FlagSet, seed *uint64, where string) func() (*faultinject.Injector, error) {
	name := fs.String("chaos-scenario", "", "inject a deterministic fault schedule from this preset scenario into "+where+" (see docs/DISTRIBUTED.md)")
	fs.Uint64Var(seed, "chaos-seed", 1, "seed for the deterministic fault schedule (with -chaos-scenario)")
	return func() (*faultinject.Injector, error) {
		if *name == "" {
			return nil, nil
		}
		sc, ok := faultinject.Lookup(*name)
		if !ok {
			return nil, fmt.Errorf("unknown -chaos-scenario %q (have: %s)",
				*name, strings.Join(faultinject.Names(), ", "))
		}
		return faultinject.New(*seed, sc), nil
	}
}

func (c *cli) list(args []string) int {
	if status, stop := c.parseFlags(c.flagSet("list", ""), args, 0); stop || c.parseOnly {
		return status
	}
	for _, p := range progs.All() {
		bug := ""
		if p.ExpectBug != "" {
			bug = " [expect: " + p.ExpectBug + "]"
		}
		fmt.Fprintf(c.stdout, "%-32s %s%s\n", p.Name, p.Description, bug)
	}
	return fairmc.ExitOK
}

// lookup resolves a program name against this build's catalogue.
func lookup(name string) (progs.Program, error) {
	p, ok := progs.Lookup(name)
	if !ok {
		return p, fmt.Errorf("unknown program %q (see fairmc list)", name)
	}
	return p, nil
}
