package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// now is the benchmark's clock: milliseconds since process start, so
// span files and durations share one origin.
func now() float64 { return float64(time.Since(processStart)) / float64(time.Millisecond) }

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own files around its calls into the layer.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0: no parent
	Name   string  `json:"name"`
	Key    string  `json:"key,omitempty"` // shared by the spans of one job or probe
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps spans in memory until the run ends. A nil tracer (the
// untraced run) records nothing.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its id for use as a parent.
func (t *tracer) add(parent int, name, key string, start, end float64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Key: key, Start: start, End: end})
	return id
}

// within records a span around f. The span's id exists before f runs,
// so spans f records can name it as their parent.
func (t *tracer) within(parent int, name, key string, f func(id int)) {
	id := t.add(parent, name, key, now(), 0)
	f(id)
	t.mu.Lock()
	t.spans[id-1].End = now()
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.MarshalIndent(t.spans, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// cpuProfile collects one CPU profile per traced repetition; shares
// merges them. Profiling is confined to traced repetitions so the
// untraced ones in the same process give the overhead's base.
type cpuProfile struct {
	dir   string
	files []string
	cur   *os.File
}

func (p *cpuProfile) start() error {
	path := filepath.Join(p.dir, fmt.Sprintf("cpu%d.pprof", len(p.files)))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.cur = f
	p.files = append(p.files, path)
	return nil
}

func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	err := p.cur.Close()
	p.cur = nil
	return err
}

// layers maps function-name prefixes to the layer charged for the
// samples of a leaf function, first match winning.
var layers = []struct{ prefix, layer string }{
	{"fairmc/internal/core.", "core"},
	{"fairmc/internal/tidset.", "core"},
	{"fairmc/internal/engine.", "engine"},
	{"fairmc/internal/search.", "search"},
	{"fairmc/internal/rng.", "search"},
	{"fairmc/internal/obs.", "search"},
	{"fairmc/internal/por.", "por"},
	{"fairmc/internal/dist/jobs.", "other"},
	{"fairmc/internal/dist", "dist"},
	{"fairmc/conc.", "program"},
	{"fairmc/internal/syncmodel.", "program"},
	{"fairmc/internal/wm.", "program"},
	{"fairmc/internal/minios.", "program"},
	{"fairmc/progs.", "program"},
	{"runtime.", "runtime"},
	{"runtime/", "runtime"},
	{"internal/runtime/", "runtime"},
	{"internal/bytealg.", "runtime"},
	{"internal/abi.", "runtime"},
	{"sync.", "runtime"},
	{"sync/atomic.", "runtime"},
	{"internal/sync.", "runtime"},
}

// layerOf maps a leaf function to its layer. Everything under fairmc/
// that is not listed, and the standard library outside the runtime, is
// "other": the jobs service, the ledger, net/http, encoding/json, and
// this benchmark.
func layerOf(fn string) string {
	if !strings.ContainsAny(fn, "./") {
		return "runtime" // assembly routines: aeshashbody, memeqbody, gcWriteBarrier
	}
	for _, l := range layers {
		if strings.HasPrefix(fn, l.prefix) {
			return l.layer
		}
	}
	return "other"
}

// shares returns each layer's share of the CPU samples whose leaf
// function belongs to it, read from `go tool pprof -top`. The shares
// sum to 1 by construction.
func (p *cpuProfile) shares() (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-sample_index=samples", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0"}, p.files...)
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -top: %w: %s", err, stderr.String())
	}
	counts := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(out))
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) > 0 && f[0] == "flat"
			continue
		}
		// flat flat% sum% cum cum% name [(inline)]
		if len(f) < 6 {
			continue
		}
		n, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof -top: unreadable row %q", sc.Text())
		}
		counts[layerOf(f[5])] += n
		total += n
	}
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof -top: no samples in %v", p.files)
	}
	for k := range counts {
		counts[k] /= total
	}
	return counts, nil
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// gcCPUSeconds is the CPU time the garbage collector has used so far,
// as the runtime estimates it.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not in /proc/self/status")
}
