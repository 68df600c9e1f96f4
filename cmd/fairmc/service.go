// The jobs service and its clients: -serve starts the one server there
// is (internal/dist/jobs) — with -prog it submits that search as the
// service's job and reports it like a local run, without it serves
// whatever is submitted; -submit, -status and -cancel talk to one;
// -worker is a pool worker for one. See docs/SERVICE.md.
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
	"os/signal"
	"syscall"
	"time"

	"fairmc"
	"fairmc/internal/dist"
	"fairmc/internal/dist/jobs"
	"fairmc/internal/dist/transport"
	"fairmc/internal/engine"
	"fairmc/internal/faultinject"
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
func scratchDir(dir, pattern string) (_ string, cleanup func()) {
	if dir != "" {
		return dir, func() {}
	}
	d, err := os.MkdirTemp("", pattern)
	if err != nil {
		fatalUsage(err)
	}
	return d, func() { os.RemoveAll(d) }
}

// oneJob is the search a -serve -prog run gives its service, and how
// the result is reported.
type oneJob struct {
	req  jobs.SubmitRequest
	opts fairmc.Options // what req.Spec was made from
	out  outputConfig
}

// adopt returns the id of job's submission in the service's ledger: a
// new one in an empty ledger, the recorded one when the ledger holds
// exactly this search (unfinished: it resumes; finished: its report is
// served without re-exploring), and an error for any other ledger.
func (job *oneJob) adopt(s *jobs.Server) (string, error) {
	ids := s.JobIDs()
	if len(ids) == 0 {
		return s.Submit(job.req)
	}
	if prev, _ := s.Submission(ids[0]); len(ids) > 1 || prev != job.req {
		return "", fmt.Errorf("the ledger holds a different search (%d job(s), the first %s at -p %d): rerun that command, or name a new -ledger directory",
			len(ids), prev.Spec.Program, prev.RefParallelism)
	}
	return ids[0], nil
}

// runService serves the jobs service on addr until the first
// SIGINT/SIGTERM (unfinished jobs stay resumable in the ledger; a
// second signal exits hard) or, given a job, until that job is over —
// then reports it through finishSearch, so output and exit status are
// those of a local run at the same -p. Either way it stops listening
// only when its workers have been told that the service is closing.
// cfg carries the flags; without a ledger directory the service gets a
// temporary one, removed on exit.
func runService(addr string, cfg jobs.Config, eventsOut string, progress bool, job *oneJob) {
	ledger := cfg.Dir
	var cleanup func()
	cfg.Dir, cleanup = scratchDir(ledger, "fairmc-serve-")
	fail := func(v any) {
		cleanup()
		fatalUsage(v)
	}
	// Worker heartbeat deltas merge into this registry; it is served at
	// /metrics and read by -progress like a local run's.
	metrics := fairmc.NewMetrics()
	if chaos := cfg.Coordinator.Chaos; chaos != nil {
		chaos.OnFault = func(string) { metrics.DistFaultsInjected.Inc() }
	}
	var events *os.File
	if eventsOut != "" {
		var err error
		if events, err = os.Create(eventsOut); err != nil {
			fail(err)
		}
		cfg.Coordinator.EventWriter = events
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fail(err)
	}
	cfg.Lookup, cfg.Metrics = progLookup, metrics
	cfg.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	s, err := jobs.New(cfg)
	if err != nil {
		fail(err)
	}
	var (
		start    = time.Now()
		finished = make(chan struct{}) // closed when job is over; never without one
		status   jobs.JobStatus
		rep      *fairmc.Report
	)
	if job != nil {
		id, err := job.adopt(s)
		if err != nil {
			s.Close()
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "service: %s is job %s (report mirrors -p %d)\n", job.req.Spec.Program, id, job.req.RefParallelism)
		go func() {
			status, rep = s.Wait(id)
			close(finished)
		}()
	}
	fmt.Fprintf(os.Stderr, "service: serving jobs on http://%s (ledger %s)\n", ln.Addr(), cfg.Dir)
	srv := &http.Server{Handler: s.Handler()}
	go func() {
		if serr := srv.Serve(ln); serr != nil && serr != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "service: serve: %v\n", serr)
			os.Exit(1)
		}
	}()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	stopProgress := func() {}
	if progress {
		stopProgress = startProgress(metrics)
	}
	select {
	case <-sigs:
		fmt.Fprintln(os.Stderr, "service: shutting down (unfinished jobs resume on restart over the same -ledger)")
		go func() {
			<-sigs
			os.Exit(130)
		}()
	case <-finished:
	}
	stopProgress()
	if cerr := s.Close(); cerr != nil {
		fmt.Fprintf(os.Stderr, "service: close: %v\n", cerr)
	}
	// Close has waited for the workers on its jobs to come back and be
	// told the service is closing; Shutdown lets the answers still being
	// written go out.
	grace, cancel := context.WithTimeout(context.Background(), jobs.DefaultDrainGrace)
	srv.Shutdown(grace) // past the grace the process is exiting anyway
	cancel()
	if events != nil {
		if cerr := events.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "event stream: %v\n", cerr)
		}
	}
	cleanup()
	if job == nil {
		return
	}
	<-finished // Close ended the job's incarnation, so Wait has returned
	if rep == nil {
		if status.State == jobs.StateFailed {
			fatalUsage("job failed: " + status.Error)
		}
		rep = &fairmc.Report{Interrupted: true} // closed before the job ran
	}
	job.out.interruptHint = "no -ledger set; progress lost"
	if ledger != "" {
		job.out.interruptHint = fmt.Sprintf("rerun with -ledger %s to resume", ledger)
	}
	finishSearch(fairmc.ResultFromReport(rep), job.req.Spec.Program, job.opts, start, job.out)
}

// httpJSON performs one request and decodes the JSON reply into out
// (skipped when out is nil), surfacing non-2xx replies as errors with
// the body text.
func httpJSON(method, url string, body []byte, out any) error {
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
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// clientSubmit submits the job built from the search flags and prints
// its id.
func clientSubmit(url string, req jobs.SubmitRequest) {
	body, err := json.Marshal(req)
	if err != nil {
		fatalUsage(err)
	}
	var sr jobs.SubmitResponse
	if err := httpJSON(http.MethodPost, url+jobs.PathJobs, body, &sr); err != nil {
		fmt.Fprintf(os.Stderr, "submit: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("submitted %s (program %s, report mirrors -p %d)\n", sr.JobID, req.Spec.Program, req.RefParallelism)
}

// clientStatus prints the job table, or one job's status; with -job
// and -metrics-out it also downloads the artifact.
func clientStatus(url, jobID, metricsOut string) {
	if jobID == "" {
		var list jobs.ListResponse
		if err := httpJSON(http.MethodGet, url+jobs.PathJobs, nil, &list); err != nil {
			fmt.Fprintf(os.Stderr, "status: %v\n", err)
			os.Exit(1)
		}
		if len(list.Jobs) == 0 {
			fmt.Println("no jobs")
			return
		}
		for _, js := range list.Jobs {
			printJob(js)
		}
		return
	}
	var js jobs.JobStatus
	if err := httpJSON(http.MethodGet, url+jobs.PathJobs+"/"+jobID, nil, &js); err != nil {
		fmt.Fprintf(os.Stderr, "status: %v\n", err)
		os.Exit(1)
	}
	printJob(js)
	if metricsOut != "" {
		if !js.HasReport {
			fmt.Fprintf(os.Stderr, "status: %s has no report yet\n", jobID)
			os.Exit(1)
		}
		resp, err := http.Get(url + jobs.PathJobs + "/" + jobID + "/report")
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "artifact: %v\n", err)
			os.Exit(1)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err == nil {
			err = os.WriteFile(metricsOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "artifact: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("run report written to %s\n", metricsOut)
	}
}

func printJob(js jobs.JobStatus) {
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
	fmt.Printf("%-8s %-32s %-10s%s\n", js.JobID, js.Program, js.State, extra)
}

// clientCancel asks the service to cancel one job.
func clientCancel(url, jobID string) {
	if jobID == "" {
		fatalUsage("-cancel needs -job ID")
	}
	var cr jobs.CancelResponse
	if err := httpJSON(http.MethodPost, url+jobs.PathJobs+"/"+jobID+"/cancel", nil, &cr); err != nil {
		fmt.Fprintf(os.Stderr, "cancel: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s: %s\n", cr.JobID, cr.State)
}

// runWorker serves the jobs service at url with this process until
// SIGINT/SIGTERM or until the service says it is closing. The service's
// jobs supply the program and every search option.
func runWorker(url string, capacity int, workDir string,
	retry transport.Policy, joinTimeout time.Duration, chaos *faultinject.Injector) {
	// A scratch directory still helps within one worker process: a
	// cancelled shard that comes back keeps its checkpoint and a spooled
	// result survives until replay. Survive restarts by passing -workdir
	// explicitly.
	workDir, cleanup := scratchDir(workDir, "fairmc-worker-")
	stop := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		close(stop)
		<-sigs
		os.Exit(130)
	}()
	metrics := fairmc.NewMetrics()
	var rt http.RoundTripper
	if chaos != nil {
		chaos.OnFault = func(string) { metrics.DistFaultsInjected.Inc() }
		rt = chaos.RoundTripper(nil)
	}
	fmt.Fprintf(os.Stderr, "worker: serving jobs service %s\n", url)
	err := jobs.RunPoolWorker(jobs.PoolConfig{
		URL:         url,
		Capacity:    capacity,
		WorkDir:     workDir,
		Lookup:      progLookup,
		Metrics:     metrics,
		Retry:       retry,
		JoinTimeout: joinTimeout,
		Transport:   rt,
		Stop:        stop,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "worker: "+format+"\n", args...)
		},
	})
	cleanup()
	if chaos != nil {
		fmt.Fprintf(os.Stderr, "worker: chaos: %d faults injected\n", chaos.Total())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker: %v\n", err)
		if errors.Is(err, dist.ErrSpecMismatch) {
			os.Exit(fairmc.ExitUsage)
		}
		os.Exit(1)
	}
}
