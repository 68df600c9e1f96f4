package main

import "fairmc/internal/obs"

// layerCounts turns what the layers counted over the traced
// repetitions (the public obs registry: Options.Metrics for a search,
// the service's registry for jobs) into per-layer ratios. A layer the
// workload bypasses counted nothing and reads 0.
func layerCounts(m metricSet, c obs.Snapshot, reps []repetition) {
	var wallS, reported, jobs float64
	for _, r := range reps {
		wallS += r.wallS
		reported += float64(r.executions)
		jobs += float64(len(r.jobs))
	}
	execs, steps := float64(c.Executions), float64(c.Steps)

	m["core.yields_per_exec"] = ratio(float64(c.Yields), execs)
	m["core.edge_adds_per_exec"] = ratio(float64(c.EdgeAdds), execs)
	m["core.fair_blocked_per_step"] = ratio(float64(c.FairBlocked), steps)

	m["engine.exec_us"] = ratio(wallS*1e6, execs)
	m["engine.steps_per_exec"] = ratio(steps, execs)
	m["engine.inline_step_ratio"] = ratio(float64(c.InlineSteps), steps)
	m["engine.handoffs_per_exec"] = ratio(float64(c.Handoffs), execs)
	m["engine.pool_reuse_ratio"] = ratio(float64(c.EngineReuses), execs)

	m["search.execs_per_s"] = ratio(reported, wallS)
	m["search.prefix_hit_ratio"] = ratio(float64(c.PrefixHits), float64(c.PrefixHits+c.PrefixMisses))
	// The registry counts work performed, the report work merged: the
	// difference is executions a parallel driver ran and threw away.
	m["search.wasted_exec_ratio"] = ratio(execs-reported, execs)

	m["por.races_per_exec"] = ratio(float64(c.DporRaces), execs)
	m["por.units_pruned_ratio"] = ratio(float64(c.DporUnitsPruned), float64(c.DporRaces))

	m["ledger.appends_per_job"] = ratio(float64(c.LedgerAppends), jobs)
	m["dist.retries_per_job"] = ratio(float64(c.DistRetries), jobs)
}

// jobSpans summarises the client-side spans of the traced repetitions'
// jobs. All jobs of a workload are identical, so each percentile is
// over one homogeneous population.
func jobSpans(m metricSet, reps []repetition) {
	var submit, queue, run, artifact, latency, perShard []float64
	var wallS, shards, ledgerBytes, failed float64
	for _, r := range reps {
		wallS += r.wallS
		ledgerBytes += float64(r.ledgerBytes)
		failed += float64(len(r.failures))
		for _, j := range r.jobs {
			submit = append(submit, j.submitMS)
			queue = append(queue, j.queueMS)
			run = append(run, j.runMS)
			artifact = append(artifact, j.artifactMS)
			latency = append(latency, j.latencyMS)
			perShard = append(perShard, ratio(j.runMS, float64(j.decided)))
			shards += float64(j.shards)
		}
	}
	jobs := float64(len(latency))
	if jobs == 0 {
		return
	}
	m["jobs.submit_ms_p50"] = median(submit)
	m["jobs.queue_ms_p50"] = median(queue)
	m["jobs.run_ms_p50"] = median(run)
	m["jobs.artifact_ms_p50"] = median(artifact)
	m["jobs.latency_p90_ms"] = quantile(latency, 0.9)
	m["jobs.per_s"] = ratio(jobs, wallS)
	m["jobs.failed"] = failed
	m["dist.shards_per_job"] = shards / jobs
	m["dist.shard_service_ms"] = median(perShard)
	m["ledger.bytes_per_job"] = ledgerBytes / jobs
}
