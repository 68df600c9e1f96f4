package main

import (
	"sort"
)

// metricDef names one metric. The two tables below are the single
// source of the names and units this program prints; bench_test.go
// holds them equal to BENCHMARK.json.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what a user of the checker sees. Every workload reports
// all six from an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"verdict_s", "s", "lower"},
	{"execs_to_verdict", "count", "lower"},
	{"allocs_per_exec", "count", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"job_latency_p50_ms", "ms", "lower"},
}

// perLayer is what the traced run adds. A workload reports every one
// of them; a layer the workload bypasses reads 0.
var perLayer = []metricDef{
	{"core.fair_step_ns", "ns", "lower"},
	{"core.fair_step_wide_ns", "ns", "lower"},
	{"core.yields_per_exec", "count", "lower"},
	{"core.edge_adds_per_exec", "count", "lower"},
	{"core.fair_blocked_per_step", "ratio", "lower"},
	{"core.cpu_share", "ratio", "lower"},

	{"engine.step_ns", "ns", "lower"},
	{"engine.step_handoff_ns", "ns", "lower"},
	{"engine.exec_us", "us", "lower"},
	{"engine.steps_per_exec", "count", "lower"},
	{"engine.inline_step_ratio", "ratio", "higher"},
	{"engine.handoffs_per_exec", "count", "lower"},
	{"engine.pool_reuse_ratio", "ratio", "higher"},
	{"engine.cpu_share", "ratio", "lower"},

	{"search.execs_per_s", "1/s", "higher"},
	{"search.prefix_hit_ratio", "ratio", "higher"},
	{"search.wasted_exec_ratio", "ratio", "lower"},
	{"search.plan_ms", "ms", "lower"},
	{"search.shard_run_ms_p50", "ms", "lower"},
	{"search.merge_us_per_shard", "us", "lower"},
	{"search.cpu_share", "ratio", "lower"},

	{"por.analyze_us_per_exec", "us", "lower"},
	{"por.races_per_exec", "count", "lower"},
	{"por.units_pruned_ratio", "ratio", "lower"},
	{"por.cpu_share", "ratio", "lower"},

	{"ledger.append_us_p50", "us", "lower"},
	{"ledger.append_fsync_disk_us_p50", "us", "lower"},
	{"ledger.appends_per_job", "count", "lower"},
	{"ledger.bytes_per_job", "B", "lower"},

	{"dist.shards_per_job", "count", "lower"},
	{"dist.shard_service_ms", "ms", "lower"},
	{"dist.retries_per_job", "count", "lower"},
	{"dist.service_tax_ratio", "ratio", "lower"},
	{"dist.cpu_share", "ratio", "lower"},

	{"jobs.submit_ms_p50", "ms", "lower"},
	{"jobs.queue_ms_p50", "ms", "lower"},
	{"jobs.run_ms_p50", "ms", "lower"},
	{"jobs.artifact_ms_p50", "ms", "lower"},
	{"jobs.latency_p90_ms", "ms", "lower"},
	{"jobs.per_s", "1/s", "higher"},
	{"jobs.failed", "count", "lower"},

	{"program.cpu_share", "ratio", "lower"},
	{"runtime.cpu_share", "ratio", "lower"},
	{"other.cpu_share", "ratio", "lower"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.cpu_s", "s", "lower"},

	{"bench.trace_overhead_ratio", "ratio", "lower"},
	{"bench.rep_spread_ratio", "ratio", "lower"},
}

// metricSet collects values by name and renders them against a table,
// so a metric the code forgot reads 0 and one the table lacks panics.
type metricSet map[string]float64

func (m metricSet) render(defs []metricDef) map[string]metricValue {
	known := make(map[string]bool, len(defs))
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	for name := range m {
		if !known[name] {
			panic("bench: metric " + name + " is not in the metric table")
		}
	}
	return out
}

// ratio is a/b, or 0 when there is no base to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the benchmark's acceptance rule is stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		if n < 2 {
			return median(s)
		}
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
