package jobs

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"fairmc/internal/dist"
	"fairmc/internal/obs"
)

// defaultMaxInflight is the load-shedding bound on the requests the
// service serves at once (Config.maxInflight overrides it in tests).
const defaultMaxInflight = 128

// shedSlot is one request's hold on the load-shedding semaphore. Only
// the request's own goroutine touches it.
type shedSlot struct {
	sem  chan struct{}
	held bool
}

func (s *shedSlot) release() {
	if s.held {
		s.held = false
		<-s.sem
	}
}

type shedSlotKey struct{}

// shed bounds the requests next serves concurrently at max, refusing
// the excess with 429 and a Retry-After the worker transport turns into
// its next backoff — graceful degradation instead of queue collapse
// under overload. m, when set, counts refusals.
func shed(max int, m *obs.Metrics, next http.Handler) http.Handler {
	sem := make(chan struct{}, max)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case sem <- struct{}{}:
			slot := &shedSlot{sem: sem, held: true}
			defer slot.release()
			next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), shedSlotKey{}, slot)))
		default:
			if m != nil {
				m.ShedRequests.Inc()
			}
			w.Header().Set("Retry-After", "1")
			http.Error(w, "service overloaded", http.StatusTooManyRequests)
		}
	})
}

// hold is the state of one held-open lease call. The zero value is
// ready; stop it when the handler returns.
type hold struct {
	timer *time.Timer
	// parked counts this call from the moment it has given its slot back
	// until stop: what a test waits on instead of sleeping until "they
	// must all be parked by now".
	parked *atomic.Int64
}

// wait parks the request until wake is closed, and reports whether it
// was: true means look again, false that the hold (dist.LeaseHold,
// counted from the first wait) ran out or the caller hung up, and the
// handler should answer "wait". The first wait gives the request's
// load-shedding slot back: a parked call costs a goroutine, not a unit
// of the service's capacity to do work.
func (h *hold) wait(r *http.Request, wake <-chan struct{}) bool {
	if h.timer == nil {
		if slot, ok := r.Context().Value(shedSlotKey{}).(*shedSlot); ok {
			slot.release()
		}
		h.timer = time.NewTimer(dist.LeaseHold)
		h.parked.Add(1)
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

// stop releases the hold's timer.
func (h *hold) stop() {
	if h.timer != nil {
		h.timer.Stop()
		h.parked.Add(-1)
	}
}
