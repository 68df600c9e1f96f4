package dist

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"fairmc/internal/obs"
)

// shedSlot is one request's hold on a load-shedding semaphore. Slots
// nest — a job's coordinator is mounted under the jobs service, and
// each sheds on its own — so a slot links to the one acquired outside
// it. Only the request's own goroutine touches it.
type shedSlot struct {
	sem   chan struct{}
	outer *shedSlot
	held  bool
}

func (s *shedSlot) release() {
	if s.held {
		s.held = false
		<-s.sem
	}
}

type shedSlotKey struct{}

// Shed bounds the requests next serves concurrently at max, refusing
// the excess with 429 and a Retry-After the worker transport turns into
// its next backoff — graceful degradation instead of queue collapse
// under overload. overloaded is the refusal's body; m, when set, counts
// refusals.
func Shed(max int, m *obs.Metrics, overloaded string, next http.Handler) http.Handler {
	if max <= 0 {
		max = DefaultMaxInflight
	}
	sem := make(chan struct{}, max)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case sem <- struct{}{}:
			outer, _ := r.Context().Value(shedSlotKey{}).(*shedSlot)
			slot := &shedSlot{sem: sem, outer: outer, held: true}
			defer slot.release()
			next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), shedSlotKey{}, slot)))
		default:
			if m != nil {
				m.ShedRequests.Inc()
			}
			w.Header().Set("Retry-After", "1")
			http.Error(w, overloaded, http.StatusTooManyRequests)
		}
	})
}

// unshed gives back, for the rest of the request, every load-shedding
// slot the request holds: a parked call costs a goroutine, not a unit
// of the service's capacity to do work.
func unshed(ctx context.Context) {
	slot, _ := ctx.Value(shedSlotKey{}).(*shedSlot)
	for ; slot != nil; slot = slot.outer {
		slot.release()
	}
}

// Hold is the state of one held-open call — a lease call with nothing
// grantable, an assign call with no job to serve. The zero value is
// ready; Stop it when the handler returns.
type Hold struct {
	timer *time.Timer
	// parked, when set, counts this call from the moment it has given
	// its slots back until Stop: what a test waits on instead of
	// sleeping until "they must all be parked by now".
	parked *atomic.Int64
}

// Wait parks the request until wake is closed, and reports whether it
// was: true means look again, false that the hold (LeaseHold, counted
// from the first Wait) ran out or the caller hung up, and the handler
// should answer "wait". The first Wait gives the request's
// load-shedding slots back.
func (h *Hold) Wait(r *http.Request, wake <-chan struct{}) bool {
	if h.timer == nil {
		unshed(r.Context())
		h.timer = time.NewTimer(LeaseHold)
		if h.parked != nil {
			h.parked.Add(1)
		}
	}
	select {
	case <-wake:
		return true
	case <-r.Context().Done():
		return false
	case <-h.timer.C:
		return false
	}
}

// Stop releases the hold's timer.
func (h *Hold) Stop() {
	if h.timer != nil {
		h.timer.Stop()
		if h.parked != nil {
			h.parked.Add(-1)
		}
	}
}
