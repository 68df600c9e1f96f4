// The jobs service and its clients: serve starts the one server there
// is (internal/dist/jobs) — with -prog it submits that search as the
// service's job and reports it like check, without it serves whatever
// is submitted; job submit, status and cancel talk to one; worker is a
// pool worker for one. See docs/SERVICE.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"fairmc"
	"fairmc/internal/dist"
	"fairmc/internal/dist/jobs"
	"fairmc/internal/engine"
	"fairmc/progs"
)

// progLookup adapts the built-in program registry to the service's
// Lookup signature.
func progLookup(name string) (func(*engine.T), bool) {
	p, ok := progs.Lookup(name)
	if !ok {
		return nil, false
	}
	return p.Body, true
}

// scratchDir returns dir and, when that is empty, a new temporary
// directory instead; cleanup removes what scratchDir made.
func scratchDir(dir, pattern string) (_ string, cleanup func(), err error) {
	if dir != "" {
		return dir, func() {}, nil
	}
	d, err := os.MkdirTemp("", pattern)
	return d, func() { os.RemoveAll(d) }, err
}

// jobRequest is the search in o as a job: what job submit ships to a
// service and what serve -prog gives its own. The program must exist in
// this build too — same-build is already the distributed-mode contract,
// and it catches typos locally.
func jobRequest(o fairmc.Options) (req jobs.SubmitRequest, err error) {
	p, err := lookup(o.ProgramName)
	if err != nil {
		return req, err
	}
	if (o.RandomWalk || o.PCT) && o.MaxExecutions <= 0 {
		return req, errors.New("a random or PCT job needs a deterministic budget: use -maxexec (a wall-clock budget cannot be sharded)")
	}
	// A job's shards run beside each other whatever -p says, so what a
	// parallel search cannot do (plain -sleepsets) a job cannot either.
	par := o
	par.Parallelism = max(2, o.Parallelism)
	if err := par.Validate(); err != nil {
		return req, err
	}
	return jobs.SubmitRequest{
		Spec:           dist.SpecFromOptions(p.Name, o),
		RefParallelism: max(1, o.Parallelism),
	}, nil
}

// adopt returns the id of req's submission in the service's ledger: a
// new one in an empty ledger, the recorded one when the ledger holds
// exactly this search (unfinished: it resumes; finished: its report is
// served without re-exploring), and an error for any other ledger.
func adopt(s *jobs.Server, req jobs.SubmitRequest) (string, error) {
	ids := s.JobIDs()
	if len(ids) == 0 {
		return s.Submit(req)
	}
	if prev, _ := s.Submission(ids[0]); len(ids) > 1 || prev != req {
		return "", fmt.Errorf("the ledger holds a different search (%d job(s), the first %s at -p %d): rerun that command, or name a new -ledger directory",
			len(ids), prev.Spec.ProgramName, prev.RefParallelism)
	}
	return ids[0], nil
}

// serveSetup is what serve's flags describe: the service's
// configuration and, with -prog, the search that is its one job.
type serveSetup struct {
	addr   string
	cfg    jobs.Config
	ledger string // -ledger as given; cfg.Dir may become a scratch directory
	live   liveConfig
	out    outputConfig
	opts   fairmc.Options     // with -prog: the one job ...
	req    jobs.SubmitRequest // ... as it is submitted
	oneJob bool
}

// serve serves the jobs service until the first SIGINT/SIGTERM
// (unfinished jobs stay resumable in the ledger) or, given -prog, until
// that search — its one job — is over; then it reports it through
// finishSearch, so output and exit status are those of check at the
// same -p. Either way it stops listening only when the workers it had
// granted work have come back and been told that the service is done.
// Without -ledger the service gets a temporary one, removed on exit.
func (c *cli) serve(args []string) int {
	st, status, stop := c.serveFlags(args)
	if stop {
		return status
	}
	return c.runService(st)
}

// serveFlags parses serve's flags into the service's configuration;
// stop reports that serve ends here, with status.
func (c *cli) serveFlags(args []string) (st *serveSetup, status int, stop bool) {
	st = &serveSetup{}
	cfg := &st.cfg
	fs := c.flagSet("serve", "")
	fs.StringVar(&st.addr, "addr", "", "listen on this address (e.g. 127.0.0.1:7171)")
	fs.StringVar(&cfg.Dir, "ledger", "", "service ledger directory: submissions, shard decisions and reports are committed here, so a killed service resumes when restarted over it; without it a serve -prog run keeps its ledger in a temporary directory (docs/SERVICE.md)")
	fs.IntVar(&cfg.MaxJobs, "max-jobs", 0, "admission bound on queued+running jobs; excess submissions get 429; 0 = default")
	fs.IntVar(&cfg.MaxActive, "max-active", 0, "how many jobs explore concurrently; 0 = default")
	fs.DurationVar(&cfg.LeaseTTL, "lease-ttl", dist.DefaultLeaseTTL, "shard lease duration; a worker silent this long loses its shard")
	chaos := chaosFlags(fs, new(uint64), "the job protocol served")
	liveFlags(fs, &st.live)
	finish := searchFlags(fs, &st.opts)
	outputFlags(fs, &st.out)
	if status, stop := c.parseFlags(fs, args, 0, "addr"); stop {
		return nil, status, true
	}
	finish()
	st.oneJob, st.ledger = st.opts.ProgramName != "", cfg.Dir
	if !st.oneJob && st.ledger == "" {
		return nil, c.usageError("fairmc serve needs -prog (run that search as the service's one job) or -ledger DIR (serve submitted jobs)"), true
	}
	var err error
	if cfg.Chaos, err = chaos(); err != nil {
		return nil, c.usageError(err), true
	}
	if c.parseOnly {
		return nil, fairmc.ExitOK, true
	}
	if st.oneJob {
		if st.req, err = jobRequest(st.opts); err != nil {
			return nil, c.usageError(err), true
		}
	}
	// Worker heartbeat deltas merge into this registry; it is served at
	// /metrics and read by -progress like a local run's.
	cfg.Lookup, cfg.Metrics = progLookup, fairmc.NewMetrics()
	if cfg.Chaos != nil {
		cfg.Chaos.OnFault = func(string) { cfg.Metrics.DistFaultsInjected.Inc() }
	}
	cfg.Logf = func(format string, args ...any) {
		fmt.Fprintf(c.stderr, format+"\n", args...)
	}
	return st, 0, false
}

// runService runs the service st describes: its one job to the end, or
// whatever is submitted until a signal.
func (c *cli) runService(st *serveSetup) int {
	cfg := st.cfg
	var (
		cleanup func()
		err     error
	)
	if cfg.Dir, cleanup, err = scratchDir(st.ledger, "fairmc-serve-"); err != nil {
		return c.usageError(err)
	}
	defer cleanup()
	if st.live.eventsOut != "" {
		events, err := os.Create(st.live.eventsOut)
		if err != nil {
			return c.usageError(err)
		}
		defer func() {
			if cerr := events.Close(); cerr != nil {
				fmt.Fprintf(c.stderr, "event stream: %v\n", cerr)
			}
		}()
		cfg.EventWriter = events
	}
	ln, err := net.Listen("tcp", st.addr)
	if err != nil {
		return c.usageError(err)
	}
	s, err := jobs.New(cfg)
	if err != nil {
		ln.Close()
		return c.usageError(err)
	}
	var (
		start    = time.Now()
		finished = make(chan struct{}) // closed when the one job is over; never without one
		status   jobs.JobStatus
		rep      *fairmc.Report
	)
	if st.oneJob {
		id, err := adopt(s, st.req)
		if err != nil {
			s.Close()
			ln.Close()
			return c.usageError(err)
		}
		fmt.Fprintf(c.stderr, "service: %s is job %s (report mirrors -p %d)\n", st.req.Spec.ProgramName, id, st.req.RefParallelism)
		go func() {
			status, rep = s.Wait(id)
			close(finished)
		}()
	}
	fmt.Fprintf(c.stderr, "service: serving jobs on http://%s (ledger %s)\n", ln.Addr(), cfg.Dir)
	srv := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	stop, release := stopOnSignal()
	defer release()
	stopProgress := func() {}
	if st.live.progress {
		stopProgress = c.startProgress(cfg.Metrics)
	}
	var serveFailed bool
	select {
	case <-stop:
		fmt.Fprintln(c.stderr, "service: shutting down (unfinished jobs resume on restart over the same -ledger)")
	case <-finished:
	case err := <-serveErr: // before Shutdown, so not http.ErrServerClosed
		fmt.Fprintf(c.stderr, "service: serve: %v\n", err)
		serveFailed = true
	}
	stopProgress()
	if cerr := s.Close(); cerr != nil {
		fmt.Fprintf(c.stderr, "service: close: %v\n", cerr)
	}
	// Close has waited for the workers out on a lease to come back and
	// be told the service is done; Shutdown lets the answers still being
	// written go out.
	grace, cancel := context.WithTimeout(context.Background(), jobs.DefaultDrainGrace)
	srv.Shutdown(grace) // past the grace the process is exiting anyway
	cancel()
	switch {
	case serveFailed:
		return exitFailed
	case !st.oneJob:
		return fairmc.ExitOK
	}
	<-finished // Close ended the job's incarnation, so Wait has returned
	if rep == nil {
		if status.State == jobs.StateFailed {
			return c.usageError("job failed: " + status.Error)
		}
		rep = &fairmc.Report{Interrupted: true} // closed before the job ran
	}
	out := st.out
	out.interruptHint = "no -ledger set; progress lost"
	if st.ledger != "" {
		out.interruptHint = fmt.Sprintf("rerun with -ledger %s to resume", st.ledger)
	}
	return c.finishSearch(fairmc.ResultFromReport(rep), st.req.Spec.ProgramName, st.opts, start, out)
}

// worker serves a jobs service with this process until SIGINT/SIGTERM
// or until the service says it is done. The service's jobs supply the
// program and every search option.
func (c *cli) worker(args []string) int {
	cfg := dist.WorkerConfig{Lookup: progLookup}
	fs := c.flagSet("worker", "")
	urlFlag(fs, &cfg.URL)
	parallelFlag(fs, &cfg.Capacity, "how many shards to run at a time")
	fs.StringVar(&cfg.WorkDir, "workdir", "", "scratch directory for spooled results; name one to keep them across a restart")
	fs.DurationVar(&cfg.Retry.BaseDelay, "retry-base", 100*time.Millisecond, "initial backoff between retries of a call to the service")
	fs.DurationVar(&cfg.Retry.MaxDelay, "retry-max", 5*time.Second, "backoff ceiling for retries")
	fs.IntVar(&cfg.Retry.MaxAttempts, "retry-attempts", 8, "attempts per call to the service before it counts as a failure")
	fs.DurationVar(&cfg.JoinTimeout, "join-timeout", dist.DefaultJoinTimeout, "give up after the service has been unreachable for this long")
	injector := chaosFlags(fs, &cfg.Retry.Seed, "this worker's calls to the service")
	if status, stop := c.parseFlags(fs, args, 0, "url"); stop {
		return status
	}
	chaos, err := injector()
	if err != nil {
		return c.usageError(err)
	}
	if c.parseOnly {
		return fairmc.ExitOK
	}
	// A scratch directory still helps within one worker process: a
	// spooled result survives until its replay.
	var cleanup func()
	if cfg.WorkDir, cleanup, err = scratchDir(cfg.WorkDir, "fairmc-worker-"); err != nil {
		return c.usageError(err)
	}
	defer cleanup()
	stop, release := stopOnSignal()
	defer release()
	cfg.Stop = stop
	cfg.Metrics = fairmc.NewMetrics()
	if chaos != nil {
		chaos.OnFault = func(string) { cfg.Metrics.DistFaultsInjected.Inc() }
		cfg.Transport = chaos.RoundTripper(nil)
	}
	cfg.Logf = func(format string, args ...any) {
		fmt.Fprintf(c.stderr, "worker: "+format+"\n", args...)
	}
	fmt.Fprintf(c.stderr, "worker: serving jobs service %s\n", cfg.URL)
	err = dist.RunWorker(cfg)
	if chaos != nil {
		fmt.Fprintf(c.stderr, "worker: chaos: %d faults injected\n", chaos.Total())
	}
	if err == nil {
		return fairmc.ExitOK
	}
	fmt.Fprintf(c.stderr, "worker: %v\n", err)
	if errors.Is(err, dist.ErrSpecMismatch) {
		return fairmc.ExitUsage
	}
	return exitFailed
}

// httpDo performs one request, surfacing non-2xx replies as errors with
// the body text. A *[]byte out receives the reply body as it is, any
// other non-nil out what the JSON in it decodes to.
func httpDo(method, url string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	switch out := out.(type) {
	case nil:
		return nil
	case *[]byte:
		*out = data
		return nil
	}
	return json.Unmarshal(data, out)
}

// job is the service's clients: submit ships the search the search
// flags describe and prints its id; status prints the job table, or one
// job — and with -metrics-out downloads its run report; cancel cancels
// one.
func (c *cli) job(args []string) int {
	const jobUsage = "usage: fairmc job submit|status|cancel -url URL [flags]"
	if len(args) == 0 {
		return c.usageError(jobUsage)
	}
	var (
		verb                   = args[0]
		fs                     = c.flagSet("job "+verb, "")
		required               = []string{"url"}
		opts                   fairmc.Options
		finish                 = func() {}
		url, jobID, metricsOut string
	)
	urlFlag(fs, &url)
	switch verb {
	case "submit":
		finish = searchFlags(fs, &opts)
		required = append(required, "prog")
	case "status":
		jobFlag(fs, &jobID, "print this job only")
		metricsOutFlag(fs, &metricsOut, "with -job: download the job's run report to this file")
	case "cancel":
		jobFlag(fs, &jobID, "the job to cancel")
		required = append(required, "job")
	default:
		return c.usageError(fmt.Sprintf("unknown command %q\n%s", "job "+verb, jobUsage))
	}
	if status, stop := c.parseFlags(fs, args[1:], 0, required...); stop || c.parseOnly {
		return status
	}
	finish()
	failed := func(what string, err error) int {
		fmt.Fprintf(c.stderr, "%s: %v\n", what, err)
		return exitFailed
	}
	jobURL := url + jobs.PathJobs + "/" + jobID
	switch verb {
	case "submit":
		req, err := jobRequest(opts)
		if err != nil {
			return c.usageError(err)
		}
		body, err := json.Marshal(req)
		if err != nil {
			return c.usageError(err)
		}
		var sr jobs.SubmitResponse
		if err := httpDo(http.MethodPost, url+jobs.PathJobs, body, &sr); err != nil {
			return failed("submit", err)
		}
		fmt.Fprintf(c.stdout, "submitted %s (program %s, report mirrors -p %d)\n", sr.JobID, req.Spec.ProgramName, req.RefParallelism)
	case "cancel":
		var cr jobs.CancelResponse
		if err := httpDo(http.MethodPost, jobURL+"/cancel", nil, &cr); err != nil {
			return failed("cancel", err)
		}
		fmt.Fprintf(c.stdout, "%s: %s\n", cr.JobID, cr.State)
	case "status":
		if jobID == "" {
			var list jobs.ListResponse
			if err := httpDo(http.MethodGet, url+jobs.PathJobs, nil, &list); err != nil {
				return failed("status", err)
			}
			if len(list.Jobs) == 0 {
				fmt.Fprintln(c.stdout, "no jobs")
			}
			for _, js := range list.Jobs {
				c.printJob(js)
			}
			break
		}
		var js jobs.JobStatus
		if err := httpDo(http.MethodGet, jobURL, nil, &js); err != nil {
			return failed("status", err)
		}
		c.printJob(js)
		if metricsOut == "" {
			break
		}
		if !js.HasReport {
			return failed("status", fmt.Errorf("%s has no report yet", jobID))
		}
		var data []byte
		err := httpDo(http.MethodGet, jobURL+"/report", nil, &data)
		if err == nil {
			err = os.WriteFile(metricsOut, data, 0o644)
		}
		if err != nil {
			return failed("artifact", err)
		}
		fmt.Fprintf(c.stdout, "run report written to %s\n", metricsOut)
	}
	return fairmc.ExitOK
}

func (c *cli) printJob(js jobs.JobStatus) {
	extra := ""
	if js.Shards > 0 {
		extra = fmt.Sprintf(" %d/%d shards", js.Decided, js.Shards)
	}
	if js.Error != "" {
		extra += " (" + js.Error + ")"
	}
	if js.HasReport {
		extra += " [report]"
	}
	fmt.Fprintf(c.stdout, "%-8s %-32s %-10s%s\n", js.JobID, js.Program, js.State, extra)
}
