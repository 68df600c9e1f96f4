package main

import (
	"bufio"
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"fairmc"
)

// fairmcRun runs the command line in-process.
func fairmcRun(args ...string) (status int, stdout, stderr string) {
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return status, out.String(), errb.String()
}

// fairmcParse stops where the command would start doing things.
func fairmcParse(args ...string) (status int, stderr string) {
	var errb bytes.Buffer
	status = (&cli{stdout: io.Discard, stderr: &errb, parseOnly: true}).dispatch(args)
	return status, errb.String()
}

// leaves are the commands that own a flag set.
var leaves = map[string][]string{
	"list":       {"list"},
	"check":      {"check"},
	"replay":     {"replay"},
	"serve":      {"serve"},
	"worker":     {"worker"},
	"job submit": {"job", "submit"},
	"job status": {"job", "status"},
	"job cancel": {"job", "cancel"},
}

// flagRow is one flag: a value it accepts and the commands that define it.
type flagRow struct {
	value string
	cmds  []string
}

// flagTable is the whole flag surface. Everything a row does not list
// must be refused by the flag package.
var flagTable = func() map[string]flagRow {
	t := map[string]flagRow{}
	add := func(cmds []string, flags ...string) {
		for _, f := range flags {
			name, value, _ := strings.Cut(f, "=")
			t[name] = flagRow{value, append(t[name].cmds, cmds...)}
		}
	}
	// The 21 search flags.
	add([]string{"check", "serve", "job submit"},
		"fair=true", "fairk=1", "cb=2", "depthbound=0", "randomtail=false", "maxsteps=100",
		"mm=sc", "tso-buf=0", "maxexec=10", "seed=1", "random=false", "pct=false", "pctdepth=3",
		"sleepsets=false", "dpor=false", "watchdog=1s", "confirm=1", "div-retries=1",
		"no-conformance=false")
	add([]string{"check", "serve", "job submit", "replay"}, "prog=spinloop")
	add([]string{"check", "serve", "job submit", "worker"}, "p=1")
	// check's own.
	add([]string{"check"}, "timelimit=1s", "race=false", "iterative=-1", "checkpoint=", "ckpt-interval=1s", "pprof=")
	// Reporting and live observation.
	add([]string{"check", "serve"}, "save=", "progress=false", "events-out=")
	add([]string{"check", "serve", "replay"}, "trace=false")
	add([]string{"check", "serve", "job status"}, "metrics-out=")
	// The service, its workers and its clients.
	add([]string{"serve"}, "addr=127.0.0.1:0", "ledger=", "max-jobs=0", "max-active=0", "lease-ttl=1s")
	add([]string{"serve", "worker"}, "chaos-scenario=", "chaos-seed=1")
	add([]string{"worker"}, "workdir=", "retry-base=1ms", "retry-max=1ms", "retry-attempts=1", "join-timeout=1s")
	add([]string{"worker", "job submit", "job status", "job cancel"}, "url=http://127.0.0.1:1")
	add([]string{"job status", "job cancel"}, "job=j1")
	// The parent's mode selectors are the command words now, the
	// search-level fast-path switch is gone, and so is the resume flag:
	// a rerun over the checkpoint directory resumes.
	add(nil, "list=true", "replay=f", "serve=127.0.0.1:0", "worker=u", "submit=u", "status=u", "cancel=u",
		"no-fastpath=false", "resume=f")
	return t
}()

// TestFlagSurface: every flag is accepted by exactly the commands the
// table lists and is "not defined" everywhere else — which is what
// replaced the hand-written mode checks — and the table is the parent's
// 53 names minus the seven mode selectors, -no-fastpath and the resume
// flag, plus -addr and -url.
func TestFlagSurface(t *testing.T) {
	defined := 0
	for name, row := range flagTable {
		if len(row.cmds) > 0 {
			defined++
		}
		for leaf, words := range leaves {
			_, stderr := fairmcParse(append(append([]string{}, words...), "-"+name+"="+row.value)...)
			refused := strings.Contains(stderr, "flag provided but not defined: -"+name)
			want := true
			for _, c := range row.cmds {
				if c == leaf {
					want = false
				}
			}
			if refused != want {
				t.Errorf("fairmc %s -%s: refused as undefined = %v, want %v\n%s", leaf, name, refused, want, stderr)
			}
			if strings.Contains(stderr, "invalid value") {
				t.Errorf("fairmc %s -%s=%s: the table's sample value does not parse", leaf, name, row.value)
			}
		}
	}
	if defined != 53-7-2+2 {
		t.Errorf("%d flag names defined, want the parent's 53 - 7 mode selectors - no-fastpath, resume + addr, url = 46", defined)
	}
}

// TestDeletedModeChecks: the combinations the parent policed by hand,
// and one it accepted in silence, are usage errors from the flag package.
func TestDeletedModeChecks(t *testing.T) {
	for _, args := range [][]string{
		{"serve", "-addr", "127.0.0.1:0", "-prog", "spinloop", "-checkpoint", "f"},
		{"serve", "-addr", "127.0.0.1:0", "-prog", "spinloop", "-timelimit", "1s"},
		{"serve", "-addr", "127.0.0.1:0", "-prog", "spinloop", "-iterative", "2"},
		{"job", "submit", "-url", "http://127.0.0.1:1", "-prog", "spinloop", "-checkpoint", "f"},
		{"replay", "-progress", "f"},
		{"worker", "-url", "http://127.0.0.1:1", "-cb", "2"},
		{"worker", "-url", "http://127.0.0.1:1", "-addr", "127.0.0.1:0"},
	} {
		status, _, stderr := fairmcRun(args...)
		if status != fairmc.ExitUsage || !strings.Contains(stderr, "flag provided but not defined") {
			t.Errorf("fairmc %v: exit %d, stderr %q; want exit 2 and an undefined flag", args, status, stderr)
		}
	}
}

func TestHelp(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{{nil, 2}, {[]string{"-h"}, 0}, {[]string{"help"}, 0}, {[]string{"-prog", "spinloop"}, 2}} {
		status, stdout, stderr := fairmcRun(tc.args...)
		text := stdout + stderr
		if status != tc.want {
			t.Errorf("fairmc %v: exit %d, want %d", tc.args, status, tc.want)
		}
		for _, cmd := range []string{"list", "check", "replay", "serve", "worker", "job"} {
			if !strings.Contains(text, "\n  fairmc "+cmd+" ") {
				t.Errorf("fairmc %v: %q missing from the command list:\n%s", tc.args, cmd, text)
			}
		}
		if !strings.Contains(text, fairmc.ExitStatusHelp) {
			t.Errorf("fairmc %v: exit status help missing", tc.args)
		}
	}
	status, _, stderr := fairmcRun("worker", "-h")
	if status != 0 || !strings.Contains(stderr, "-retry-base") || strings.Contains(stderr, "-cb") {
		t.Errorf("fairmc worker -h: exit %d, want 0 and the worker's flags only:\n%s", status, stderr)
	}
	if status, _, _ := fairmcRun("job"); status != 2 {
		t.Errorf("fairmc job: exit %d, want 2", status)
	}
}

// TestUsageErrors: what is still checked by hand, each in one place.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // in stderr
	}{
		{[]string{"check", "-prog", "nosuch"}, `unknown program "nosuch"`},
		{[]string{"check", "-prog", "spinloop", "-dpor"}, "search: DPOR requires a plain unfair systematic search"},
		{[]string{"check", "-prog", "spinloop", "-race", "-p", "2"}, "-p > 1 is incompatible with -race"},
		{[]string{"check", "-prog", "spinloop", "-fair=false", "-sleepsets", "-p", "2"}, "-p > 1 is incompatible with -race"},
		{[]string{"check", "-prog", "spinloop", "-iterative", "1", "-checkpoint", "f"}, "-iterative runs one search per bound"},
		{[]string{"check", "-prog", "spinloop", "-iterative", "1", "-metrics-out", "f"}, "-iterative runs one search per bound"},
		{[]string{"check", "spinloop"}, "1 argument(s) after the flags, want 0"},
		{[]string{"replay"}, "0 argument(s) after the flags, want 1"},
		{[]string{"serve", "-prog", "spinloop"}, "fairmc serve needs -addr"},
		{[]string{"serve", "-addr", "127.0.0.1:0"}, "needs -prog (run that search as the service's one job) or -ledger DIR"},
		{[]string{"serve", "-addr", "127.0.0.1:0", "-prog", "spinloop", "-chaos-scenario", "nosuch"}, "unknown -chaos-scenario"},
		{[]string{"serve", "-addr", "127.0.0.1:0", "-prog", "bakery-2", "-random"}, "needs a deterministic budget: use -maxexec"},
		{[]string{"serve", "-addr", "127.0.0.1:0", "-prog", "spinloop", "-fair=false", "-sleepsets"}, "search: SleepSets requires Parallelism <= 1"},
		{[]string{"worker"}, "fairmc worker needs -url"},
		{[]string{"job", "submit", "-url", "http://127.0.0.1:1"}, "fairmc job submit needs -prog"},
		{[]string{"job", "submit", "-url", "http://127.0.0.1:1", "-prog", "bakery-2", "-pct"}, "needs a deterministic budget: use -maxexec"},
		{[]string{"job", "cancel", "-url", "http://127.0.0.1:1"}, "fairmc job cancel needs -job"},
		{[]string{"job", "nosuch"}, `unknown command "job nosuch"`},
	} {
		status, _, stderr := fairmcRun(tc.args...)
		if status != fairmc.ExitUsage || !strings.Contains(stderr, tc.want) {
			t.Errorf("fairmc %v: exit %d, stderr %q; want exit 2 and %q", tc.args, status, stderr, tc.want)
		}
	}
}

func TestCheckVerdicts(t *testing.T) {
	status, stdout, _ := fairmcRun("check", "-prog", "spinloop", "-p", "1")
	if status != fairmc.ExitOK || !strings.Contains(stdout, "OK: schedule tree exhausted") {
		t.Errorf("check spinloop: exit %d\n%s", status, stdout)
	}
	if status, stdout, _ = fairmcRun("check", "-prog", "peterson-bug", "-p", "1"); status != fairmc.ExitFinding {
		t.Errorf("check peterson-bug: exit %d, want 1\n%s", status, stdout)
	}
	status, stdout, _ = fairmcRun("list")
	if status != fairmc.ExitOK || !strings.Contains(stdout, "peterson-bug") {
		t.Errorf("list: exit %d\n%s", status, stdout)
	}
	status, stdout, _ = fairmcRun("check", "-prog", "peterson-bug", "-iterative", "2")
	if status != fairmc.ExitFinding || !strings.Contains(stdout, "cb=") {
		t.Errorf("check -iterative: exit %d\n%s", status, stdout)
	}
}

// TestRaceFallsBackToSequential: -race cannot shard, so a defaulted -p
// quietly becomes 1; only an explicit -p > 1 is refused (TestUsageErrors).
func TestRaceFallsBackToSequential(t *testing.T) {
	status, stdout, stderr := fairmcRun("check", "-prog", "spinloop", "-race")
	if status != fairmc.ExitFinding || !strings.Contains(stdout, "RACE:") {
		t.Errorf("check -race: exit %d\n%s%s", status, stdout, stderr)
	}
}

// TestSaveThenReplay: replay needs nothing but the file — program and
// scheduler parameters travel in it.
func TestSaveThenReplay(t *testing.T) {
	file := filepath.Join(t.TempDir(), "bug.sched")
	status, stdout, _ := fairmcRun("check", "-prog", "peterson-bug", "-p", "1", "-save", file)
	if status != fairmc.ExitFinding || !strings.Contains(stdout, "schedule saved to "+file) {
		t.Fatalf("check -save: exit %d\n%s", status, stdout)
	}
	status, stdout, stderr := fairmcRun("replay", file)
	if status != fairmc.ExitFinding || !strings.Contains(stdout, "replayed "+file+": outcome violation") {
		t.Errorf("replay: exit %d\n%s%s", status, stdout, stderr)
	}
	status, stdout, _ = fairmcRun("replay", "-trace", "-prog", "peterson-bug", file)
	if status != fairmc.ExitFinding || strings.Count(stdout, "\n") < 5 {
		t.Errorf("replay -trace: exit %d, want the trace printed\n%s", status, stdout)
	}
	if status, _, stderr = fairmcRun("replay", "-prog", "spinloop", file); status != fairmc.ExitUsage ||
		!strings.Contains(stderr, `recorded for program "peterson-bug"`) {
		t.Errorf("replay against another program: exit %d, stderr %q", status, stderr)
	}
}

// TestResumeInference: rerunning check over a -checkpoint directory
// supplies -prog, the strategy, -seed and -p from its plan record; a
// flag given explicitly wins (and here then fails the directory's
// identity check, which names the option). Over a finished search the
// rerun prints the same report again.
func TestResumeInference(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck")
	status, stdout, stderr := fairmcRun("check", "-prog", "bakery-2", "-random", "-seed", "9", "-p", "1", "-maxexec", "50", "-checkpoint", ck)
	if status != fairmc.ExitOK {
		t.Fatalf("checkpointed run: exit %d\n%s%s", status, stdout, stderr)
	}
	status, stdout, stderr = fairmcRun("check", "-checkpoint", ck, "-maxexec", "80")
	if status != fairmc.ExitOK || !strings.Contains(stdout, "program:     bakery-2") || !strings.Contains(stdout, "executions:  80 ") {
		t.Errorf("rerun: exit %d\n%s%s", status, stdout, stderr)
	}
	if status, _, stderr = fairmcRun("check", "-checkpoint", ck, "-maxexec", "80", "-seed", "10"); status != fairmc.ExitUsage ||
		!strings.Contains(stderr, "seed is 9 there, 10 here") {
		t.Errorf("rerun -seed 10: exit %d, stderr %q", status, stderr)
	}
	if status, _, stderr = fairmcRun("check", "-checkpoint", ck, "-maxexec", "80", "-random=false"); status != fairmc.ExitUsage ||
		!strings.Contains(stderr, "randomWalk is true there, unset here") {
		t.Errorf("rerun -random=false: exit %d, stderr %q", status, stderr)
	}
	again, _, _ := fairmcRun("check", "-checkpoint", ck, "-maxexec", "80")
	_, stdout2, _ := fairmcRun("check", "-checkpoint", ck, "-maxexec", "80")
	timeless := regexp.MustCompile(`\([0-9.]+s,`)
	if again != fairmc.ExitOK || timeless.ReplaceAllString(stdout2, "") != timeless.ReplaceAllString(stdout, "") {
		t.Errorf("rerun of the finished search: exit %d\n%s\nwant\n%s", again, stdout2, stdout)
	}
}

// TestSearchFlagsFillOptions: the one registration binds straight into
// fairmc.Options, with the library's defaults, and maps the command
// line's "-div-retries 0 = none" onto Options' "negative = none".
func TestSearchFlagsFillOptions(t *testing.T) {
	parseOpts := func(args ...string) fairmc.Options {
		var o fairmc.Options
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		finish := searchFlags(fs, &o)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		finish()
		return o
	}
	o, d := parseOpts(), fairmc.Defaults()
	if o.Fair != d.Fair || o.ContextBound != d.ContextBound || o.MaxSteps != d.MaxSteps || o.ConfirmRuns != d.ConfirmRuns {
		t.Errorf("flag defaults %+v differ from fairmc.Defaults() %+v", o, d)
	}
	if o.DivergenceRetries != 2 || o.Seed != 1 || o.Watchdog != 30*time.Second {
		t.Errorf("defaults: %+v", o)
	}
	if o = parseOpts("-div-retries", "0"); o.DivergenceRetries != -1 {
		t.Errorf("-div-retries 0: DivergenceRetries = %d, want -1", o.DivergenceRetries)
	}
	o = parseOpts("-prog", "x", "-fair=false", "-dpor", "-cb", "2", "-mm", "tso", "-p", "3")
	if o.ProgramName != "x" || o.Fair || !o.DPOR || o.ContextBound != 2 || o.MemModel != "tso" || o.Parallelism != 3 {
		t.Errorf("bound options: %+v", o)
	}
}

// TestServeAndWorker runs the one-job service and a pool worker in this
// process over loopback: the merged report is check's at the same -p.
func TestServeAndWorker(t *testing.T) {
	dir := t.TempDir()
	local, dist := filepath.Join(dir, "local.json"), filepath.Join(dir, "dist.json")
	if status, _, stderr := fairmcRun("check", "-prog", "spinloop", "-p", "2", "-metrics-out", local); status != 0 {
		t.Fatalf("local run: exit %d\n%s", status, stderr)
	}
	logR, logW := io.Pipe()
	var stdout bytes.Buffer
	served := make(chan int, 1)
	go func() {
		served <- run([]string{"serve", "-addr", "127.0.0.1:0", "-prog", "spinloop", "-p", "2", "-metrics-out", dist}, &stdout, logW)
		logW.Close()
	}()
	// The service logs where it listens; the worker needs nothing else.
	lines := bufio.NewScanner(logR)
	url := ""
	for url == "" && lines.Scan() {
		url = regexp.MustCompile(`http://127\.0\.0\.1:\d+`).FindString(lines.Text())
	}
	go io.Copy(io.Discard, logR)
	if url == "" {
		t.Fatalf("serve exited %d without listening", <-served)
	}
	if status, _, stderr := fairmcRun("worker", "-url", url, "-p", "2", "-retry-base", "10ms", "-join-timeout", "10s"); status != 0 {
		t.Errorf("worker: exit %d\n%s", status, stderr)
	}
	if status := <-served; status != 0 || !strings.Contains(stdout.String(), "OK: schedule tree exhausted") {
		t.Errorf("serve: exit %d\n%s", status, stdout.String())
	}
	want, _ := os.ReadFile(local)
	got, err := os.ReadFile(dist)
	if err != nil || !bytes.Equal(want, got) {
		t.Errorf("served run report differs from check -p 2 (%v):\n%s\nvs\n%s", err, got, want)
	}
}

// TestDocumentedCommandsParse: every fairmc command line in a fenced
// code block of the documents must parse under today's flags. (Parsing
// only: nothing is executed, no file is opened.)
func TestDocumentedCommandsParse(t *testing.T) {
	docs, _ := filepath.Glob("../../docs/*.md")
	docs = append(docs, "../../README.md", "../../DESIGN.md", "../../EXPERIMENTS.md", "../../.claude/skills/verify/SKILL.md")
	sort.Strings(docs)
	total := 0
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, args := range documentedCommands(string(data)) {
			total++
			if status, stderr := fairmcParse(args...); status != fairmc.ExitOK {
				reason, _, _ := strings.Cut(stderr, "\n")
				t.Errorf("%s: fairmc %s: does not parse (exit %d): %s", doc, strings.Join(args, " "), status, reason)
			}
		}
	}
	if total < 30 {
		t.Errorf("found only %d documented command lines; is the extractor still matching the documents?", total)
	}
}

// documentedCommands extracts the argument lists of the fairmc
// invocations in md's fenced code blocks: lines whose first word is
// fairmc, ./fairmc, /tmp/fairmc or "go run ./cmd/fairmc", continuation
// lines joined, cut at a comment, a redirection or a control operator.
func documentedCommands(md string) [][]string {
	var cmds [][]string
	fenced, pending := false, ""
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced, pending = !fenced, ""
			continue
		}
		if !fenced {
			continue
		}
		line = pending + strings.TrimSpace(line)
		if pending = ""; strings.HasSuffix(line, "\\") {
			pending = strings.TrimSuffix(line, "\\")
			continue
		}
		words := strings.Fields(line)
		switch {
		case len(words) > 3 && strings.Join(words[:3], " ") == "go run ./cmd/fairmc":
			words = words[3:]
		case len(words) > 0 && (words[0] == "fairmc" || words[0] == "./fairmc" || words[0] == "/tmp/fairmc"):
			words = words[1:]
		default:
			continue
		}
		var args []string
		for _, w := range words {
			if strings.HasPrefix(w, "#") || strings.ContainsAny(w[:1], "<>|&") || strings.HasPrefix(w, "2>") {
				break
			}
			args = append(args, strings.Trim(w, `"'`))
		}
		cmds = append(cmds, args)
	}
	return cmds
}
