package jobs

import "fairmc/internal/dist"

// PoolConfig and RunPoolWorker are the names the frozen benchmark
// module compiles against for dist.WorkerConfig and dist.RunWorker: a
// worker of the service is the one worker loop pointed at the service.
// They go with benchmark revision 2 (ROADMAP item 3).
type PoolConfig = dist.WorkerConfig

// RunPoolWorker is dist.RunWorker.
func RunPoolWorker(cfg PoolConfig) error { return dist.RunWorker(cfg) }
