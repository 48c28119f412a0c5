package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pjds/internal/service"
)

// tenants spreads requests so the default per-tenant quota (100 req/s,
// burst 200) is not what the service workloads measure: together the
// tenants may send 12800 req/s, more than ten times serve-mixed's
// closed-loop capacity on a 2-vCPU machine (about 1000 req/s). A quota
// refusal still fails the run, so a quota can never pass for capacity.
const tenants = 128

// lateFlagMs is the generator lateness (p99) beyond which a run is
// flagged as behind its schedule: its latencies then include a stall
// of the load generator, not only of the service.
const lateFlagMs = 10.0

// server is an in-process service on a loopback port.
type server struct {
	svc  *service.Server
	hs   *http.Server
	base string
	done chan error
}

// startServer serves svc's API on 127.0.0.1 until close.
func startServer(cfg service.Config) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{svc: service.New(cfg), done: make(chan error, 1)}
	s.hs = &http.Server{Handler: s.svc.APIHandler()}
	s.base = "http://" + ln.Addr().String()
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for open requests and the serve
// goroutine, then drains and releases the service.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout here leaves nothing to release: Drain below cancels stragglers
	<-s.done
	s.svc.Drain(time.Second)
	s.svc.Close()
}

// newClient keeps at most conns keep-alive connections to the server.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// request is one scheduled API call and the digest it must return.
type request struct {
	kind   string // "spmv" or "solve"
	matrix int    // index into the workload's resident set
	body   []byte
	tenant string
	want   string
}

func spmvRequest(id string, matrix int, seed uint64, tenant, want string) request {
	body, _ := json.Marshal(service.SpMVRequest{Matrix: id, Seed: seed}) // plain struct: cannot fail
	return request{kind: "spmv", matrix: matrix, body: body, tenant: tenant, want: want}
}

func solveRequest(id string, matrix int, seed uint64, maxIter int, tenant, want string) request {
	body, _ := json.Marshal(service.SolveRequest{Matrix: id, Seed: seed, Tol: solveTol, MaxIter: maxIter})
	return request{kind: "solve", matrix: matrix, body: body, tenant: tenant, want: want}
}

// reply is the union of the response bodies the benchmark reads.
type reply struct {
	Digest string `json:"digest"`
	Reason string `json:"reason"`
	ID     string `json:"id"`
}

// errRefused marks a 429/503/504: the service shed the request.
type errRefused struct {
	code   int
	reason string
}

func (e *errRefused) Error() string { return fmt.Sprintf("HTTP %d (%s)", e.code, e.reason) }

// post sends one request body and decodes the reply.
func post(cl *http.Client, url, tenant string, body []byte) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set(service.HeaderTenant, tenant)
	resp, err := cl.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	var r reply
	if err := json.Unmarshal(raw, &r); err != nil {
		return reply{}, fmt.Errorf("HTTP %d: %w", resp.StatusCode, err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return r, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return r, &errRefused{code: resp.StatusCode, reason: r.Reason}
	}
	return r, fmt.Errorf("HTTP %d: %s", resp.StatusCode, r.Reason)
}

// loadStats is what one load phase, or one of its workers, observed.
// Each worker records into its own and the phase merges them after the
// workers have ended.
type loadStats struct {
	lat     map[string][]float64 // ms per kind, successful requests only
	byMat   map[int][]float64    // spmv ms per resident matrix
	late    []float64            // generator lateness, ms
	refused map[string]int64     // by reason
	done    []time.Time          // completion times of successful requests
	rates   []float64            // completions per second in each 250 ms window
	sent    int64
	ok      int64
	elapsed time.Duration
}

func newLoadStats() *loadStats {
	return &loadStats{lat: map[string][]float64{}, byMat: map[int][]float64{}, refused: map[string]int64{}}
}

func (ls *loadStats) merge(o *loadStats) {
	for k, v := range o.lat {
		ls.lat[k] = append(ls.lat[k], v...)
	}
	for k, v := range o.byMat {
		ls.byMat[k] = append(ls.byMat[k], v...)
	}
	for k, v := range o.refused {
		ls.refused[k] += v
	}
	ls.late = append(ls.late, o.late...)
	ls.done = append(ls.done, o.done...)
	ls.rates = append(ls.rates, o.rates...)
	ls.sent += o.sent
	ls.ok += o.ok
	ls.elapsed += o.elapsed
}

// send performs r and records it: latency is measured from t0 (the
// due time in an open loop, the send time in a closed one).
func (b *bench) send(cl *http.Client, base string, r request, t0 time.Time, ls *loadStats, proc int, req int64, root int) {
	sp := b.tr.open(proc, "service", "POST /v1/"+r.kind, req, root)
	rep, err := post(cl, base+"/v1/"+r.kind, r.tenant, r.body)
	b.tr.close(sp)
	ms := msSince(t0)
	ls.sent++
	var ref *errRefused
	switch {
	case errors.As(err, &ref):
		ls.refused[ref.reason]++
		b.tl.fail(r.kind, err)
	case err != nil:
		b.tl.fail(r.kind, err)
	case b.tl.check(r.kind, rep.Digest, r.want):
		ls.ok++
		ls.done = append(ls.done, time.Now())
		ls.lat[r.kind] = append(ls.lat[r.kind], ms)
		if r.kind == "spmv" {
			ls.byMat[r.matrix] = append(ls.byMat[r.matrix], ms)
		}
	}
}

// openLoop sends reqs on a fixed schedule, request i due at
// start + i·gap, over `workers` connections. A request waits for a
// free connection when all are busy, and its latency is timed from
// when it was due. Lateness is the generator's own delay: how long
// after it could have been sent (due, with a connection free) it was.
func (b *bench) openLoop(base string, reqs []request, gap time.Duration, workers int) *loadStats {
	cl := newClient(workers)
	defer cl.CloseIdleConnections()
	parts := make([]*loadStats, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	for w := range parts {
		ls := newLoadStats()
		parts[w] = ls
		wg.Add(1)
		go func(proc int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(time.Duration(i) * gap)
				ready := time.Now()
				if d := due.Sub(ready); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				from := due
				if ready.After(due) {
					from = ready
				}
				id := b.tr.newReq()
				root := b.tr.openAt(proc, "loadgen", reqs[i].kind, id, -1, due)
				b.send(cl, base, reqs[i], due, ls, proc, id, root)
				b.tr.close(root)
				ls.late = append(ls.late, float64(sent.Sub(from))/1e6)
			}
		}(w + 1)
	}
	wg.Wait()
	return mergeLoad(parts, start)
}

// rate is the median throughput over the 250 ms windows of the
// phases merged, so a burst of CPU steal in one window does not set
// the figure.
func (ls *loadStats) rate() float64 { return quantile(ls.rates, 0.5) }

// mergeLoad merges the workers' stats of one phase that began at
// start, and counts its completions per 250 ms window (the whole phase
// is one window when it is shorter).
func mergeLoad(parts []*loadStats, start time.Time) *loadStats {
	const win = 250 * time.Millisecond
	all := newLoadStats()
	for _, p := range parts {
		all.merge(p)
	}
	all.elapsed = time.Since(start)
	counts := make([]float64, int(all.elapsed/win))
	if len(counts) == 0 {
		all.rates = []float64{float64(len(all.done)) / all.elapsed.Seconds()}
		return all
	}
	for _, t := range all.done {
		if w := int(t.Sub(start) / win); w < len(counts) {
			counts[w]++
		}
	}
	for _, c := range counts {
		all.rates = append(all.rates, c/win.Seconds())
	}
	return all
}

// closedLoop runs `clients` clients for d, each sending its next
// request when the previous one completed; gen makes request i.
func (b *bench) closedLoop(base string, gen func(i int) request, clients int, d time.Duration) *loadStats {
	cl := newClient(clients)
	defer cl.CloseIdleConnections()
	parts := make([]*loadStats, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(d)
	for c := range parts {
		ls := newLoadStats()
		parts[c] = ls
		wg.Add(1)
		go func(proc int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				r := gen(int(next.Add(1) - 1))
				t0 := time.Now()
				id := b.tr.newReq()
				root := b.tr.open(proc, "loadgen", r.kind, id, -1)
				b.send(cl, base, r, t0, ls, proc, id, root)
				b.tr.close(root)
			}
		}(c + 1)
	}
	wg.Wait()
	return mergeLoad(parts, start)
}

// statusSampler polls StatusNow and TenantsNow while load runs.
type statusSampler struct {
	stop     chan struct{}
	done     chan struct{}
	maxQueue int64
	inflight []float64
}

func sampleStatus(svc *service.Server, every time.Duration) *statusSampler {
	ss := &statusSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(ss.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-ss.stop:
				return
			case <-t.C:
			}
			st := svc.StatusNow()
			if st.QueueDepth > ss.maxQueue {
				ss.maxQueue = st.QueueDepth
			}
			var inflight int64
			for _, tn := range svc.TenantsNow() {
				inflight += tn.InFlight
			}
			ss.inflight = append(ss.inflight, float64(inflight))
		}
	}()
	return ss
}

// finish stops the sampler and waits for it.
func (ss *statusSampler) finish() {
	close(ss.stop)
	<-ss.done
}

// reportShed records the share of requests refused, by reason; the
// refusals are not latency samples.
func (b *bench) reportShed(phases ...*loadStats) {
	var sent int64
	for _, p := range phases {
		sent += p.sent
	}
	for _, reason := range []string{"quota", "queue_full", "deadline_in_queue"} {
		var n int64
		for _, p := range phases {
			n += p.refused[reason]
		}
		b.m.set("service.shed_ratio."+reason, float64(n)/float64(sent), "ratio")
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// quantile returns the q-quantile of xs by the nearest-rank rule. With
// no samples it returns NaN, which selectMetrics refuses to report.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// report records the load metrics of a traffic phase; capacity is the
// closed-loop phase that follows it.
func (b *bench) reportLoad(open, capacity *loadStats) {
	b.m.set("spmv_p50_ms", quantile(open.lat["spmv"], 0.50), "ms")
	b.m.set("spmv_p99_ms", quantile(open.lat["spmv"], 0.99), "ms")
	b.m.set("solve_p50_ms", quantile(open.lat["solve"], 0.50), "ms")
	b.m.set("solve_p90_ms", quantile(open.lat["solve"], 0.90), "ms")
	b.m.set("capacity_rps", capacity.rate(), "1/s")
	late := quantile(open.late, 0.99)
	b.m.set("loadgen.late_p99_ms", late, "ms")
	if late > lateFlagMs {
		fmt.Fprintf(b.out, "WARNING: load generator fell behind its schedule (late p99 %.2f ms > %g ms); latencies include a generator stall\n", late, lateFlagMs)
	}
	b.reportShed(open, capacity)
	fmt.Fprintf(b.out, "open loop: %d sent, %d ok, %.1f s; capacity: %d sent, %d ok, %.1f s; refused %v/%v\n",
		open.sent, open.ok, open.elapsed.Seconds(), capacity.sent, capacity.ok, capacity.elapsed.Seconds(), open.refused, capacity.refused)
}
