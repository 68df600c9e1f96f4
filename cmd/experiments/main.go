// Command experiments regenerates the tables and figures of the
// paper's evaluation (§4) on this reproduction's substrate.
//
// Usage:
//
//	experiments [-run fig2|table1|table2|fig56|table3|liveness|strategies|all]
//	            [-celltime 60s] [-dbounds 20,30,40,50,60]
//	            [-fig2bounds 8,10,12,14,16,18,20] [-quick] [-csv DIR]
//
// Absolute numbers differ from the paper's (different substrate,
// different hardware); the shapes — exponential growth in Figure 2,
// full coverage with fairness in Table 2, fairness finding every bug
// faster in Table 3 — are the reproduction targets. EXPERIMENTS.md
// records a reference run. Performance is measured by the benchmark in
// bench/ (see bench/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"fairmc/internal/experiments"
)

// runValues is the -run vocabulary, as shown by -h and by the
// unknown-value error.
const runValues = "fig2|table1|table2|fig56|table3|liveness|strategies|all"

func main() {
	var (
		run      = flag.String("run", "all", "experiment to run: "+runValues)
		cellTime = flag.Duration("celltime", 60*time.Second, "time budget per experiment cell")
		dbounds  = flag.String("dbounds", "20,30,40,50,60", "depth bounds for the unfair Table 2 runs")
		fig2b    = flag.String("fig2bounds", "8,10,12,14,16,18,20", "depth bounds for Figure 2")
		quick    = flag.Bool("quick", false, "small bounds and budgets for a fast smoke run")
		csvDir   = flag.String("csv", "", "also write machine-readable CSVs into this directory")
	)
	flag.Parse()
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	csvDirGlobal = *csvDir

	budget := experiments.Budget{CellTime: *cellTime}
	fig2Bounds := parseInts(*fig2b)
	depthBounds := parseInts(*dbounds)
	if *quick {
		budget.CellTime = 10 * time.Second
		fig2Bounds = []int{12, 16, 20, 24}
		depthBounds = []int{20, 40}
	}

	ran := false
	want := func(name string) bool {
		if *run == "all" || *run == name {
			ran = true
			return true
		}
		return false
	}
	if want("fig2") {
		runFig2(fig2Bounds, budget)
	}
	if want("table1") {
		runTable1()
	}
	if want("table2") || want("fig56") {
		runTable2(depthBounds, budget, *run != "fig56")
	}
	if want("table3") {
		runTable3(budget)
	}
	if want("liveness") {
		runLiveness(budget)
	}
	if want("strategies") {
		runStrategies(budget)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want %s)\n", *run, runValues)
		os.Exit(2)
	}
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad integer %q\n", part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

func runFig2(bounds []int, budget experiments.Budget) {
	fmt.Println("== Figure 2: nonterminating executions vs depth bound ==")
	fmt.Println("   (Figure 1 program, 2 philosophers, unfair depth-bounded DFS)")
	fmt.Printf("%-12s %-24s %-12s\n", "depth bound", "nonterminating execs", "total execs")
	rows := experiments.Fig2(bounds, budget)
	csv := newCSV("fig2", "depth_bound", "nonterminating", "executions", "timed_out")
	defer csv.close()
	for _, r := range rows {
		mark := ""
		if r.TimedOut {
			mark = " *"
		}
		fmt.Printf("%-12d %-24d %-12d%s\n", r.DepthBound, r.NonTerminating, r.Executions, mark)
		csv.row(fmt.Sprint(r.DepthBound), fmt.Sprint(r.NonTerminating),
			fmt.Sprint(r.Executions), fmt.Sprint(r.TimedOut))
	}
	fmt.Println()
}

func runTable1() {
	fmt.Println("== Table 1: characteristics of input programs ==")
	fmt.Printf("%-22s %6s %8s %9s\n", "program", "LOC", "threads", "sync ops")
	csv := newCSV("table1", "program", "loc", "threads", "sync_ops")
	defer csv.close()
	for _, r := range experiments.Table1() {
		fmt.Printf("%-22s %6d %8d %9d\n", r.Name, r.LOC, r.Threads, r.SyncOps)
		csv.row(r.Name, fmt.Sprint(r.LOC), fmt.Sprint(r.Threads), fmt.Sprint(r.SyncOps))
	}
	fmt.Println()
}

func runTable2(depthBounds []int, budget experiments.Budget, printStates bool) {
	if printStates {
		fmt.Println("== Table 2: states visited, with and without fairness ==")
	} else {
		fmt.Println("== Figures 5/6: search completion time, with and without fairness ==")
	}
	sort.Ints(depthBounds)
	header := fmt.Sprintf("%-24s %-6s %8s %10s", "config", "strat", "total", "fair")
	for _, db := range depthBounds {
		header += fmt.Sprintf(" %9s", fmt.Sprintf("db=%d", db))
	}
	fmt.Println(header + "   (runs that hit the budget are marked *)")

	// Compute cell by cell so long runs stream their progress.
	csv := newCSV("table2", "config", "strategy", "total_states", "total_timeout",
		"fair_states", "fair_100pct", "fair_seconds", "fair_timeout",
		"depth_bound", "nofair_states", "nofair_seconds", "nofair_timeout")
	defer csv.close()
	for _, cfg := range experiments.Table2Configs() {
		for _, st := range experiments.Strategies() {
			cs := experiments.Table2(
				[]experiments.Table2Config{cfg},
				[]experiments.Strategy{st},
				depthBounds, budget)
			printTable2Cell(cs[0], depthBounds, printStates)
			c := cs[0]
			for _, db := range depthBounds {
				nf := c.NoFair[db]
				csv.row(c.Config, c.Strategy,
					fmt.Sprint(c.TotalStates), fmt.Sprint(c.TotalTimedOut),
					fmt.Sprint(c.FairStates), fmt.Sprint(c.Fair100),
					fmt.Sprintf("%.3f", c.FairTime.Seconds()), fmt.Sprint(c.FairTimedOut),
					fmt.Sprint(db), fmt.Sprint(nf.States),
					fmt.Sprintf("%.3f", nf.Time.Seconds()), fmt.Sprint(nf.TimedOut))
			}
		}
	}
	fmt.Println()
}

func printTable2Cell(c experiments.Table2Cell, depthBounds []int, printStates bool) {
	var cols []string
	if printStates {
		cols = append(cols, fmt.Sprintf("%8s", starred(fmt.Sprint(c.TotalStates), c.TotalTimedOut)))
		// "=" marks 100% coverage of the stateful reference set
		// (the paper's headline result); "<" marks missed states.
		cover := "="
		if !c.Fair100 {
			cover = "<"
		}
		cols = append(cols, fmt.Sprintf("%10s", starred(fmt.Sprint(c.FairStates)+cover, c.FairTimedOut)))
		for _, db := range depthBounds {
			nf := c.NoFair[db]
			cols = append(cols, fmt.Sprintf("%9s", starred(fmt.Sprint(nf.States), nf.TimedOut)))
		}
	} else {
		cols = append(cols, fmt.Sprintf("%8s", "-"))
		cols = append(cols, fmt.Sprintf("%10s", starred(fmtDur(c.FairTime), c.FairTimedOut)))
		for _, db := range depthBounds {
			nf := c.NoFair[db]
			cols = append(cols, fmt.Sprintf("%9s", starred(fmtDur(nf.Time), nf.TimedOut)))
		}
	}
	fmt.Printf("%-24s %-6s %s\n", c.Config, c.Strategy, strings.Join(cols, " "))
}

func starred(s string, timedOut bool) string {
	if timedOut {
		return s + "*"
	}
	return s
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

func runTable3(budget experiments.Budget) {
	fmt.Println("== Table 3: executions and time to first bug, fair vs unfair ==")
	fmt.Println("   (fair: cb=2; unfair: cb=2 + depth bound 250 + random tail)")
	fmt.Printf("%-32s %14s %10s %16s %10s\n",
		"bug", "fair execs", "fair time", "unfair execs", "unfair t")
	csv := newCSV("table3", "bug", "fair_found", "fair_executions", "fair_by_divergence",
		"fair_seconds", "unfair_found", "unfair_executions", "unfair_seconds")
	defer csv.close()
	for _, r := range experiments.Table3(experiments.Table3Bugs(), budget) {
		csv.row(r.Bug, fmt.Sprint(r.FairFound), fmt.Sprint(r.FairExecutions),
			fmt.Sprint(r.FairByDivergence), fmt.Sprintf("%.3f", r.FairTime.Seconds()),
			fmt.Sprint(r.UnfairFound), fmt.Sprint(r.UnfairExecutions),
			fmt.Sprintf("%.3f", r.UnfairTime.Seconds()))
		fe := "-"
		if r.FairFound {
			fe = fmt.Sprint(r.FairExecutions)
			if r.FairByDivergence {
				fe += " (div)"
			}
		}
		ue := "-"
		if r.UnfairFound {
			ue = fmt.Sprint(r.UnfairExecutions)
		}
		fmt.Printf("%-32s %14s %10s %16s %10s\n",
			r.Bug, fe, fmtDur(r.FairTime), ue, fmtDur(r.UnfairTime))
	}
	fmt.Println()
}

func runStrategies(budget experiments.Budget) {
	fmt.Println("== Extension: strategy comparison (executions to first finding) ==")
	fmt.Println("   (fair DFS cb=2 vs uniform random walk vs PCT d=3; '-' = not found)")
	fmt.Printf("%-32s %12s %12s %12s\n", "bug", "fair dfs", "random", "pct")
	csv := newCSV("strategies", "bug", "fair_dfs", "random_walk", "pct")
	defer csv.close()
	show := func(v int64) string {
		if v < 0 {
			return "-"
		}
		return fmt.Sprint(v)
	}
	for _, r := range experiments.CompareStrategies(experiments.Table3Bugs(), budget) {
		fmt.Printf("%-32s %12s %12s %12s\n", r.Bug, show(r.FairDFS), show(r.RandomWalk), show(r.PCT))
		csv.row(r.Bug, show(r.FairDFS), show(r.RandomWalk), show(r.PCT))
	}
	fmt.Println()
}

func runLiveness(budget experiments.Budget) {
	fmt.Println("== §4.3: liveness findings ==")
	fmt.Printf("%-24s %-8s %-30s %8s %8s\n", "program", "found", "classification", "execs", "steps")
	csv := newCSV("liveness", "program", "found", "classification", "executions", "steps")
	defer csv.close()
	for _, r := range experiments.LivenessDemos(budget) {
		csv.row(r.Program, fmt.Sprint(r.Found), r.Kind.String(),
			fmt.Sprint(r.Executions), fmt.Sprint(r.Steps))
		found := "no"
		kind := "-"
		if r.Found {
			found = "yes"
			kind = r.Kind.String()
		}
		fmt.Printf("%-24s %-8s %-30s %8d %8d\n", r.Program, found, kind, r.Executions, r.Steps)
	}
	fmt.Println()
}

// csvDirGlobal is the -csv target ("" = disabled).
var csvDirGlobal string

// csvWriter appends rows to <csvdir>/<name>.csv, writing the header on
// first use. A nil *csvWriter (CSV disabled) swallows writes.
type csvWriter struct {
	f *os.File
}

func newCSV(name string, header ...string) *csvWriter {
	if csvDirGlobal == "" {
		return nil
	}
	f, err := os.Create(csvDirGlobal + "/" + name + ".csv")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return nil
	}
	w := &csvWriter{f: f}
	w.row(header...)
	return w
}

func (w *csvWriter) row(cols ...string) {
	if w == nil {
		return
	}
	fmt.Fprintln(w.f, strings.Join(cols, ","))
}

func (w *csvWriter) close() {
	if w != nil {
		w.f.Close()
	}
}
