package core

import (
	"fmt"
	"testing"

	"fairmc/internal/tidset"
)

// fairStepper drives one Fair through the synthetic pattern the
// benchmark module's core.Fair probe uses, so BenchmarkFairStep is
// comparable with core.fair_step_ns (4 threads) and
// core.fair_step_wide_ns (26): the lowest schedulable thread runs, every
// thread yields on each second step of its own, and every eighth step
// one thread becomes disabled and the previous one enabled again.
type fairStepper struct {
	f         *Fair
	es, after tidset.Set
	sched     tidset.Set
	own       []int
	disabled  tidset.Tid
	i         int
}

func newFairStepper(threads int) *fairStepper {
	es := tidset.Universe(threads)
	return &fairStepper{f: NewFair(threads, 1), es: es, after: es.Clone(),
		own: make([]int, threads), disabled: tidset.None}
}

func (s *fairStepper) step() {
	t := s.f.SchedulableInto(&s.sched, s.es).Min()
	if t == tidset.None {
		panic(fmt.Sprintf("nothing schedulable from %s at step %d", s.es, s.i))
	}
	s.after.CopyFrom(s.es)
	if s.i%8 == 0 {
		if s.disabled != tidset.None {
			s.after.Add(s.disabled)
		}
		s.disabled = tidset.Tid(s.i / 8 % len(s.own))
		s.after.Remove(s.disabled)
	}
	s.own[t]++
	s.f.OnStep(t, s.own[t]%2 == 0, s.es, s.after)
	s.es.CopyFrom(s.after)
	s.i++
}

var fairStepSizes = []int{4, 26, 100}

// BenchmarkFairStep is one fair-scheduler decision — Schedulable then
// OnStep — at 4, 26 and 100 threads (one word per row, and two).
func BenchmarkFairStep(b *testing.B) {
	for _, n := range fairStepSizes {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			s := newFairStepper(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.step()
			}
		})
	}
}

// TestFairStepAllocatesNothing is the benchmark's 0 allocs/op as a test.
func TestFairStepAllocatesNothing(t *testing.T) {
	for _, n := range fairStepSizes {
		s := newFairStepper(n)
		for i := 0; i < 1000; i++ {
			s.step() // the H buffer and sched are sized
		}
		if allocs := testing.AllocsPerRun(1000, s.step); allocs != 0 {
			t.Errorf("%d threads: a fair step allocates %.1f objects, want 0", n, allocs)
		}
	}
}
