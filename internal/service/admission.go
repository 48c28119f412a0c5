package service

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tokenBucket is one tenant's request quota: capacity burst, refilled
// at rate tokens/second. take is mutex-guarded and allocation-free —
// it sits on the admission fast path of every request, and the pr9
// benchmark gate holds it to 0 allocs/op.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time
}

func newTokenBucket(rate, burst float64, now time.Time) *tokenBucket {
	if rate <= 0 {
		rate = 1
	}
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// take consumes one token if available. When the bucket is empty it
// reports the wait until the next token accrues — the Retry-After the
// 429 response carries, so a well-behaved client retries exactly when
// its quota readmits it instead of immediately.
func (b *tokenBucket) take(now time.Time) (ok bool, wait time.Duration) {
	b.mu.Lock()
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		b.mu.Unlock()
		return true, 0
	}
	need := (1 - b.tokens) / b.rate
	b.mu.Unlock()
	return false, time.Duration(need * float64(time.Second))
}

// level returns the current (unrefilled) token count for status views.
func (b *tokenBucket) level() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

// admission is the bounded two-stage gate every request passes:
// tryQueue claims one of queueMax waiter slots (immediate 429 with
// backpressure when the backlog is full — the service sheds load
// instead of accumulating unbounded goroutines), then acquire waits
// for one of the maxInFlight execution slots, honouring the request
// deadline while queued.
type admission struct {
	queueMax int
	waiting  atomic.Int64
	inflight atomic.Int64
	exec     chan struct{}
}

func newAdmission(maxInFlight, queueDepth int) *admission {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	return &admission{queueMax: queueDepth, exec: make(chan struct{}, maxInFlight)}
}

// admit runs the whole gate: an uncontended request seizes a free
// execution slot immediately (no waiter slot consumed, the path the
// 0-allocs/op benchmark measures); a contended one claims a waiter
// slot — full backlog reports queueFull, the backpressure signal the
// 429 turns into Retry-After — and blocks for an execution slot until
// done closes (deadline or client gone while queued).
func (a *admission) admit(done <-chan struct{}) (queueFull bool, err error) {
	select {
	case a.exec <- struct{}{}:
		a.inflight.Add(1)
		return false, nil
	default:
	}
	for {
		n := a.waiting.Load()
		if int(n) >= a.queueMax {
			return true, nil
		}
		if a.waiting.CompareAndSwap(n, n+1) {
			break
		}
	}
	select {
	case a.exec <- struct{}{}:
		a.waiting.Add(-1)
		a.inflight.Add(1)
		return false, nil
	case <-done:
		a.waiting.Add(-1)
		return false, errAdmissionAborted
	}
}

// release frees the execution slot taken by a successful admit.
func (a *admission) release() {
	a.inflight.Add(-1)
	<-a.exec
}

// queueDepth returns the current backlog (waiters only).
func (a *admission) queueDepth() int64 { return a.waiting.Load() }

// inFlight returns the number of executing requests.
func (a *admission) inFlight() int64 { return a.inflight.Load() }

// latRing is a fixed-size ring of recent request latencies; p50/p99
// quantiles feed /v1/status, the swarm gates, and the drain report.
type latRing struct {
	mu    sync.Mutex
	buf   []float64 // seconds
	n     int       // next write position
	count int64     // total observations
}

const latRingSize = 4096

// newLatRing returns an empty ring. buf grows by append up to
// latRingSize, so each of the many tenant rings holds memory in
// proportion to its traffic rather than a full window up front.
func newLatRing() *latRing { return &latRing{} }

// observe records one request latency in seconds.
func (r *latRing) observe(sec float64) {
	r.mu.Lock()
	if len(r.buf) < latRingSize {
		r.buf = append(r.buf, sec)
	} else {
		r.buf[r.n] = sec
		r.n = (r.n + 1) % latRingSize
	}
	r.count++
	r.mu.Unlock()
}

// quantiles returns (p50, p99) over the retained window, zero when
// empty.
func (r *latRing) quantiles() (p50, p99 float64) {
	r.mu.Lock()
	tmp := append([]float64(nil), r.buf...)
	r.mu.Unlock()
	if len(tmp) == 0 {
		return 0, 0
	}
	sort.Float64s(tmp)
	at := func(q float64) float64 {
		i := int(q * float64(len(tmp)-1))
		return tmp[i]
	}
	return at(0.50), at(0.99)
}

// total returns the lifetime observation count.
func (r *latRing) total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}
