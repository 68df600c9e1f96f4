// Command bench is the repository's performance benchmark: four pinned
// workloads, six end-to-end metrics from an untraced run, and the
// per-layer metrics from a separate traced run. BENCHMARK.json at the
// repository root names the workloads and metrics; README.md in this
// directory defines them.
//
//	go run -C bench . --workload fair-dfs --seed 1 --seconds 18 --trace 0
//	go run -C bench . --workload service-jobs --seed 1 --seconds 18 --trace 1
//	go run -C bench . --selfcheck 5
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// processStart anchors setup_s and every span offset. Package
// initialisation runs before main, so this is as close to process
// start as the program itself can observe.
var processStart = time.Now()

// outDir receives span files, CPU profiles and the service's ledger.
// It is relative to the working directory, which `go run -C bench`
// makes this directory.
const outDir = "out"

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Uint64("seed", 1, "workload seed (recorded by every workload, used by random-p2)")
		seconds   = flag.Float64("seconds", 18, "how long the timed repetitions measure")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
		selfcheck = flag.Int("selfcheck", 0, "run two interleaved sets of N full runs and compare them against the bounds")
	)
	flag.Parse()
	if *selfcheck > 0 {
		os.Exit(runSelfcheck(*selfcheck, *seconds))
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "bench: --trace is 0 or 1, not %d\n", *trace)
		os.Exit(2)
	}
	res, err := run(w, *seed, sizing{seconds: *seconds, setups: 3, minReps: 7, minPairs: 3, probe: 400 * time.Millisecond}, *trace == 1)
	if err != nil {
		// A guard tripped (too few CPUs, repetitions disagreeing on the
		// execution count, a layer probe failing): there is no number
		// worth printing.
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printResult(res)
	if !res.correct() {
		os.Exit(1)
	}
}

// environment is recorded with every result so two numbers are only
// compared when the machines that produced them are comparable.
type environment struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Traced     bool   `json:"traced"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	LedgerFS   string `json:"ledger_fs"`
	Setups     int    `json:"setups"`
	Reps       int    `json:"repetitions"`
}

// metricValue is one reported metric, in the contract's shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run reports. Only the contract's four keys
// go on the final line; the rest is printed before it.
type result struct {
	Env       environment
	Attempted int
	Failures  []string // one line per failed operation
	Metrics   map[string]metricValue
	// RepWalls are the timed repetitions' wall times in order: the run's
	// own view of its noise.
	RepWalls []float64
	order    []metricDef
}

// correct reports that every operation had the expected verdict.
func (r *result) correct() bool { return len(r.Failures) == 0 }

func printResult(r *result) {
	env, _ := json.Marshal(r.Env)
	fmt.Printf("env %s\n", env)
	fmt.Printf("repetitions_s %.3f\n", r.RepWalls)
	for _, f := range r.Failures {
		fmt.Printf("failed %s\n", f)
	}
	for _, d := range r.order {
		fmt.Printf("%-34s %16.6f %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	last, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct(), r.Attempted, len(r.Failures), r.Metrics})
	fmt.Printf("%s\n", last)
}

// kernelVersion is the running kernel's release string, or "unknown"
// off Linux.
func kernelVersion() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func newEnvironment(w *workload, seed uint64, traced bool) environment {
	ledgerFS := "none"
	if w.jobs > 0 {
		ledgerFS = ledgerFSNote
	}
	return environment{
		Workload:   w.name,
		Seed:       seed,
		Traced:     traced,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernelVersion(),
		LedgerFS:   ledgerFS,
	}
}

// scratchDir returns a fresh empty directory under outDir.
func scratchDir(name string) (string, error) {
	dir := filepath.Join(outDir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
