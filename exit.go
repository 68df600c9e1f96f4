package fairmc

import "fairmc/internal/liveness"

// Exit status codes shared by fairmc check, a fairmc serve run and its workers;
// ExitStatusHelp is the canonical human-readable definition (printed by
// fairmc -h and quoted in the README). Classify a finished check with
// Result.ExitStatus instead of re-deriving these from report fields.
const (
	// ExitOK: no findings (including searches that only quarantined
	// nondeterministic subtrees, which are reported as warnings).
	ExitOK = 0
	// ExitFinding: a safety violation, deadlock, divergence, wedged
	// thread, or race was found (and, when the confirmation pass ran,
	// at least one finding was confirmed reproducible).
	ExitFinding = 1
	// ExitUsage: usage error (bad flags, unknown program, invalid
	// option combination, protocol/config mismatch).
	ExitUsage = 2
	// ExitInterrupted: stopped by SIGINT/SIGTERM before completion;
	// resumable when a checkpoint was written or a serve run kept its
	// ledger (-ledger).
	ExitInterrupted = 3
	// ExitFlaky: findings exist but every one failed its confirmation
	// replays — likely program nondeterminism, not a trustworthy
	// counterexample.
	ExitFlaky = 4
)

// ExitStatusHelp is the canonical definition of the exit codes,
// printed by the CLI's -h and referenced by the README. Keep the
// wording here; everything else points at it.
const ExitStatusHelp = `exit status:
  0  no findings (including searches that only quarantined
     nondeterministic subtrees, which are reported as warnings)
  1  a safety violation, deadlock, divergence, wedged thread, or race
     was found (and, when -confirm > 0, at least one finding was
     confirmed reproducible)
  2  usage error (bad flags, unknown program, invalid option combination)
  3  interrupted by SIGINT/SIGTERM (a final checkpoint is written first
     when -checkpoint is set, resume with check -resume; a serve run
     over -ledger DIR resumes when the same command is run again)
  4  findings exist but every one failed its confirmation replays
     (flaky — likely program nondeterminism, not a trustworthy
     counterexample)`

// ExitStatus classifies the check outcome into the shared exit codes:
// the first finding in the CLI's reporting order decides, a finding
// whose confirmation pass failed every replay downgrades to ExitFlaky,
// and an interrupted search without findings is ExitInterrupted.
func (r *Result) ExitStatus() int {
	confirmed := func(v *Reproducibility) int {
		if v == nil || v.Stable() {
			return ExitFinding
		}
		return ExitFlaky
	}
	switch {
	case r.FirstBug != nil:
		return confirmed(r.BugReproducibility)
	case r.Divergence != nil:
		return confirmed(r.DivergenceReproducibility)
	case r.FirstWedge != nil:
		return ExitFinding
	case len(r.Races) > 0:
		return ExitFinding
	case r.Interrupted:
		return ExitInterrupted
	default:
		return ExitOK
	}
}

// ResultFromReport wraps an already-merged search report as a Result,
// running the same divergence classification Check performs. The jobs
// service and a fairmc serve run use it to turn a job's merged report into
// the Result the CLI's reporting path (and ExitStatus) consumes.
func ResultFromReport(rep *Report) *Result {
	res := &Result{Report: rep}
	if rep.Divergence != nil {
		res.Liveness = liveness.Classify(rep.Divergence, liveness.Options{})
	}
	return res
}
