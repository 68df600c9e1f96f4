package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fairmc/internal/ledger"
	"fairmc/internal/search"
)

// crashSubs is the multi-job workload the crash harness drives: one
// job that decides every shard, one that seals early on a violation,
// and a DPOR job whose units are leased and committed a wave at a time
// — so crash points cover both completion shapes and every position in
// a commit group: before it, between two of its frames, between its
// last frame and its fsync, after it. Jobs are numbered in this order.
var crashSubs = []struct {
	program string
	opts    search.Options
	refPar  int
}{
	{"fig3", baseOpts, 2},
	{"racy", baseOpts, 1},
	{"racy", search.Options{ContextBound: -1, MaxSteps: 10000, DPOR: true, SleepSets: true}, 2},
}

// crashSubOf maps a job id back to its submission. Ids are handed out
// in submission order and only to submissions that committed, and a
// crash that refuses one submission refuses every later one, so "jN"
// is always crashSubs[N-1].
func crashSubOf(t *testing.T, id string) (program string, opts search.Options, refPar int) {
	t.Helper()
	var n int
	if _, err := fmt.Sscanf(id, "j%d", &n); err != nil || n < 1 || n > len(crashSubs) {
		t.Fatalf("job id %q is not one of the %d crash-run submissions", id, len(crashSubs))
	}
	sb := crashSubs[n-1]
	return sb.program, sb.opts, sb.refPar
}

// driveCrashRun starts a service on dir with the given crash hook,
// submits the workload (tolerating failures — a crash during submit
// is part of the exercise), and serves it with ONE pool worker so the
// sequence of commit points is deterministic. It runs until
// until(url) holds, then tears everything down.
func driveCrashRun(t *testing.T, dir string, hook func(string) bool, until func(url string) bool) {
	t.Helper()
	s, err := New(Config{
		Dir:        dir,
		Lookup:     testLookup,
		LeaseTTL:   5 * time.Second,
		DrainGrace: 50 * time.Millisecond,
		Logf:       func(string, ...any) {},
		crashHook:  hook,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := httptest.NewServer(s.Handler())

	for _, sb := range crashSubs {
		trySubmit(srv.URL, sb.program, sb.opts, sb.refPar)
	}

	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		RunPoolWorker(PoolConfig{
			URL: srv.URL, WorkDir: t.TempDir(), Lookup: testLookup,
			Retry: fastPolicy(7), Stop: stopCh,
		})
	}()

	deadline := time.After(60 * time.Second)
	for !until(srv.URL) {
		select {
		case <-deadline:
			close(stopCh)
			wg.Wait()
			srv.Close()
			s.Close()
			t.Fatal("crash run did not reach its stopping condition")
		case <-time.After(10 * time.Millisecond):
		}
	}
	// Close first: the worker comes back from its last job, is told the
	// service is closing and leaves — no drain grace to sit out.
	s.Close() // ledger may be frozen; the unclean-close error is the point
	close(stopCh)
	wg.Wait()
	srv.Close()
}

// allTerminal reports whether the service lists at least one job and
// every listed job is terminal.
func allTerminal(url string) bool {
	resp, err := http.Get(url + PathJobs)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var list ListResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return false
	}
	if len(list.Jobs) == 0 {
		return false
	}
	for _, js := range list.Jobs {
		if js.State != StateDone && js.State != StateFailed && js.State != StateCancelled {
			return false
		}
	}
	return true
}

// auditLedger replays the WAL and fails on the forbidden pattern: a
// shard granted AFTER its completion committed — a recovered service
// re-exploring work the ledger already owns.
func auditLedger(t *testing.T, dir string) {
	t.Helper()
	led, rec, err := ledger.Open(dir, ledger.Options{})
	if err != nil {
		t.Fatalf("audit open: %v", err)
	}
	defer led.Close()
	type key struct {
		job   string
		shard int
	}
	done := map[key]bool{}
	for _, r := range rec.Records {
		switch r.Type {
		case search.RecShardDone:
			sd, err := search.DecodeShardDone(r.Data)
			if err != nil {
				t.Fatalf("audit: seq %d: %v", r.Seq, err)
			}
			done[key{sd.Job, sd.Shard}] = true
		case recGrant:
			var g grantRec
			if err := json.Unmarshal(r.Data, &g); err != nil {
				t.Fatalf("audit: seq %d: %v", r.Seq, err)
			}
			for _, shard := range g.Shards {
				if done[key{g.Job, shard}] {
					t.Fatalf("audit: seq %d grants %s shard %d after its completion committed", r.Seq, g.Job, shard)
				}
			}
		}
	}
}

// verifyRecovered restarts the service on dir with no crash hook,
// lets a fresh pool finish whatever the WAL says is unfinished, and
// checks every surviving job lands done with the artifact its local
// reference run produces.
func verifyRecovered(t *testing.T, dir string, point string) {
	t.Helper()
	s, srv := startService(t, Config{Dir: dir, Logf: func(string, ...any) {}})
	defer s.Close()
	startPool(t, srv.URL, t.TempDir(), 1)

	if len(s.JobIDs()) == 0 {
		// The crash landed before the first submission committed; full
		// recovery of an empty service is just an empty service.
		return
	}
	deadline := time.After(60 * time.Second)
	for !allTerminal(srv.URL) {
		select {
		case <-deadline:
			t.Fatalf("crash at %q: recovery never finished", point)
		case <-time.After(10 * time.Millisecond):
		}
	}
	for _, id := range s.JobIDs() {
		st := jobStatus(t, srv.URL, id)
		if st.State != StateDone {
			t.Fatalf("crash at %q: %s recovered to %q (%s), want done", point, id, st.State, st.Error)
		}
		got := fetchReport(t, srv.URL, id)
		program, opts, refPar := crashSubOf(t, id)
		want := localReportBytes(t, program, opts, refPar)
		if !bytes.Equal(got, want) {
			t.Fatalf("crash at %q: %s artifact differs after recovery:\n%s\nvs\n%s", point, id, got, want)
		}
	}
}

func isGrantPoint(p string) bool {
	return strings.HasPrefix(p, "pre:grant:") || strings.HasPrefix(p, "post:grant:")
}

// TestJobsCrashAtEveryCommitPoint kills the service (by freezing its
// ledger — the disk's view of kill -9) at every synchronous WAL
// commit point of a three-job run — around every commit group, between
// the frames of a group, and between a group's last frame and its
// fsync — restarts it on the same directory, and asserts full
// recovery: all surviving jobs complete, artifacts are byte-identical
// to local reference runs (a group cut short recovers to a prefix of
// its decided shards), and no ledger-committed shard is ever granted
// again.
func TestJobsCrashAtEveryCommitPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is slow")
	}

	// Pass 0: enumerate commit points from an uninterrupted run. Grant
	// records are async audit entries, not commit points — crashing on
	// them is covered by the neighbouring sync points.
	var mu sync.Mutex
	var points []string
	seen := map[string]bool{}
	baseDir := t.TempDir()
	driveCrashRun(t, baseDir, func(p string) bool {
		mu.Lock()
		if !seen[p] && !isGrantPoint(p) {
			seen[p] = true
			points = append(points, p)
		}
		mu.Unlock()
		return false
	}, allTerminal)
	if len(points) < 8 {
		t.Fatalf("baseline hit only %d commit points: %v", len(points), points)
	}
	// The DPOR job's wave must have committed as a group: two "pre:"
	// points in a row are a kill between two frames of one group.
	between := 0
	for i := 1; i < len(points); i++ {
		if strings.HasPrefix(points[i], "pre:shard_done:") && strings.HasPrefix(points[i-1], "pre:shard_done:") {
			between++
		}
	}
	if between == 0 {
		t.Fatalf("baseline committed no group of more than one frame: %v", points)
	}
	t.Logf("crash matrix: %d commit points, %d of them between the frames of a group", len(points), between)
	auditLedger(t, baseDir)

	skipped := 0
	for _, point := range points {
		point := point
		dir := t.TempDir()
		var fired sync.WaitGroup
		fired.Add(1)
		var once sync.Once
		hit := make(chan struct{})
		driveCrashRun(t, dir, func(p string) bool {
			if p == point {
				once.Do(func() { close(hit); fired.Done() })
				return true
			}
			return false
		}, func(url string) bool {
			select {
			case <-hit:
				return true
			default:
				// If the whole workload finished without reaching the
				// point (possible only for early-seal shard decisions that
				// landed differently this run), stop too.
				return allTerminal(url)
			}
		})
		select {
		case <-hit:
		default:
			skipped++
			t.Logf("crash point %q not reached in its run; skipped", point)
			continue
		}
		verifyRecovered(t, dir, point)
		auditLedger(t, dir)
	}
	if skipped*4 > len(points) {
		t.Fatalf("%d/%d crash points skipped — workload not deterministic enough", skipped, len(points))
	}
}
