package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// manifest is the part of BENCHMARK.json the self-check reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadManifest finds BENCHMARK.json beside or above the working
// directory: `go run -C bench` runs this program from bench/.
func loadManifest() (*manifest, error) {
	var data []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// runSelfcheck asks the question the benchmark's acceptance asks: do
// two sets of runs of the same code agree within the benchmark's own
// bounds? It interleaves the sets (A B B A A B …) so drift in the
// machine lands on both, gives run i of each set seed i, and prints per
// workload and metric both medians, both quartile pairs, the gap
// between the medians and the wider of the two spreads, each as a
// share of the median. It returns the process's exit status: 1 if a gap
// or (setup_s apart) a spread exceeds the metric's bound.
func runSelfcheck(n int, seconds float64) int {
	man, err := loadManifest()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: selfcheck: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: selfcheck: %v\n", err)
		return 2
	}
	// values[workload][metric][set] are the set's n readings.
	values := map[string]map[string]*[2][]float64{}
	seen := [2]int{}
	for slot := 0; slot < 2*n; slot++ {
		set := (slot + 1) / 2 % 2 // A B B A A B B A …
		seen[set]++
		for _, w := range man.Workloads {
			out, err := exec.Command(self,
				"--workload", w.Name, "--seed", strconv.Itoa(seen[set]),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0").Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: selfcheck: %s: %v\n%s", w.Name, err, out)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res struct {
				Correct bool                   `json:"correct"`
				Metrics map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "bench: selfcheck: %s: no correct result (%v)\n%s", w.Name, err, out)
				return 1
			}
			if values[w.Name] == nil {
				values[w.Name] = map[string]*[2][]float64{}
			}
			for name, v := range res.Metrics {
				if values[w.Name][name] == nil {
					values[w.Name][name] = &[2][]float64{}
				}
				values[w.Name][name][set] = append(values[w.Name][name][set], v.Value)
			}
			fmt.Fprintf(os.Stderr, "selfcheck: set %c run %d %s done\n", 'A'+set, seen[set], w.Name)
		}
	}

	status := 0
	fmt.Printf("| workload | metric | A median | A q1–q3 | B median | B q1–q3 | gap | spread | bound | |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range man.Workloads {
		for _, d := range man.EndToEnd {
			v := values[w.Name][d.Name]
			if v == nil {
				fmt.Fprintf(os.Stderr, "bench: selfcheck: %s did not report %s\n", w.Name, d.Name)
				return 1
			}
			medA, medB := median(v[0]), median(v[1])
			a1, a3 := quartiles(v[0])
			b1, b3 := quartiles(v[1])
			gap := ratio(medB-medA, medA)
			if gap < 0 {
				gap = -gap
			}
			spread := max(ratio(a3-a1, medA), ratio(b3-b1, medB))
			verdict := "ok"
			if gap > d.Bound || (d.Name != "setup_s" && spread > d.Bound) {
				verdict, status = "EXCEEDS", 1
			}
			fmt.Printf("| %s | %s (%s) | %.6g | %.6g–%.6g | %.6g | %.6g–%.6g | %.2f%% | %.2f%% | %.2f%% | %s |\n",
				w.Name, d.Name, d.Unit, medA, a1, a3, medB, b1, b3, 100*gap, 100*spread, 100*d.Bound, verdict)
		}
	}
	return status
}
