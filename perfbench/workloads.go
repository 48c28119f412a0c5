package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"path/filepath"
	"time"

	"pjds/internal/hostkernel"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
	"pjds/internal/service"
	"pjds/internal/solver"
	"pjds/internal/tuner"
)

const (
	// mixedRate is serve-mixed's open-loop rate: about 20% of the
	// closed-loop capacity on this mix (about 1000 req/s on a 2-vCPU
	// VM). At 40% and more, the CPU steal of a shared VM pushed the
	// open loop into queueing bursts and latencies varied by 2x
	// between runs.
	mixedRate = 200.0
	// matrixSeed fixes the structure of the generated resident and
	// large matrices, so the run seed varies request vectors and
	// schedules without changing how much work a request is.
	matrixSeed = 1
	// solveIters is the fixed iteration budget of every solve request.
	solveIters = 20
	// libraryTol is the tolerance of the library CG behind solve_s.
	libraryTol = 1e-8
	// largeTol is solve-large's CG tolerance: at 10⁶ rows CG to 1e-8
	// takes longer than a run can spend on it.
	largeTol = 1e-6
	// mixedCycles is how many cycles of set-up, traffic and library
	// calls serve-mixed's run is cut into.
	mixedCycles = 5
	// mixedSetupRounds is how often serve-mixed sets its resident set
	// up, spread evenly over the cycles.
	mixedSetupRounds = 15
	// largeSetupRounds is how often solve-large sets each matrix up:
	// once before its kernel calls and the rest after its solves.
	largeSetupRounds = 3
)

// cached returns the inputs named key, making them once per process
// so the two passes of a traced run share them.
func (b *bench) cached(key string, mk func() []*input) []*input {
	if b.inputs == nil {
		b.inputs = map[string][]*input{}
	}
	if _, ok := b.inputs[key]; !ok {
		b.inputs[key] = mk()
	}
	return b.inputs[key]
}

func workingSet(ins []*input) int64 {
	var s int64
	for _, in := range ins {
		s += int64(len(in.csr.Val))*12 + int64(len(in.csr.RowPtr))*8
	}
	return s
}

// freshPath names a new file in the run's scratch directory.
func (b *bench) freshPath(prefix string) string {
	b.files++
	return filepath.Join(b.tmp, fmt.Sprintf("%s-%d.jsonl", prefix, b.files))
}

// vecSeed is the request-vector seed s of this run's seed.
func (b *bench) vecSeed(s int) uint64 { return b.seed<<8 | uint64(s) }

// mix is a 90% spMVM / 10% solve request stream over resident
// matrices, with every expected digest computed up front so request
// generation is read-only and safe from any goroutine.
type mix struct {
	seed      uint64
	ids       []string
	names     []string
	spd       []int
	spmvWant  [][]string // [matrix][vector seed]
	solveWant [][]string
	vecs      []uint64
}

func (b *bench) newMix(ins []*input, ids []string, solves bool) (*mix, error) {
	mx := &mix{seed: b.seed, ids: ids}
	for s := 0; s < vecSeeds; s++ {
		mx.vecs = append(mx.vecs, b.vecSeed(s))
	}
	for i, in := range ins {
		mx.names = append(mx.names, in.name)
		var sp, so []string
		for _, v := range mx.vecs {
			d, err := in.permRef(v)
			if err != nil {
				return nil, err
			}
			sp = append(sp, d)
			if solves && in.spd {
				d, err := in.solveRef(v, solveIters)
				if err != nil {
					return nil, err
				}
				so = append(so, d)
			}
		}
		mx.spmvWant = append(mx.spmvWant, sp)
		mx.solveWant = append(mx.solveWant, so)
		if so != nil {
			mx.spd = append(mx.spd, i)
		}
	}
	return mx, nil
}

// request makes request i of the stream. Every tenth request is a
// solve, so solves never bunch up on the client's connections; the
// seed picks matrices, vectors and tenants.
func (mx *mix) request(i int) request {
	h := splitmix64(mx.seed*0x100000001b3 + uint64(i))
	v := int(h >> 16 % vecSeeds)
	tenant := tenantName(int(h >> 24 % tenants))
	if i%10 == 0 && len(mx.spd) > 0 {
		m := mx.spd[h>>8%uint64(len(mx.spd))]
		return solveRequest(mx.ids[m], m, mx.vecs[v], solveIters, tenant, mx.solveWant[m][v])
	}
	m := int(h >> 8 % uint64(len(mx.ids)))
	return spmvRequest(mx.ids[m], m, mx.vecs[v], tenant, mx.spmvWant[m][v])
}

func (mx *mix) schedule(from, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = mx.request(from + i)
	}
	return out
}

func tenantName(i int) string { return fmt.Sprintf("tenant-%03d", i) }

// upload sends in's MatrixMarket bytes, then one spMVM on the new
// matrix. setup runs from the first byte sent to the checked answer.
func (b *bench) upload(cl *http.Client, srv *server, in *input, tenant string, proc int) (id string, setup, up time.Duration, err error) {
	want, err := in.permRef(b.vecSeed(0))
	if err != nil {
		return "", 0, 0, err
	}
	req := b.tr.newReq()
	root := b.tr.open(proc, "loadgen", "setup "+in.name, req, -1)
	defer b.tr.close(root)
	t0 := time.Now()
	sp := b.tr.open(proc, "service", "POST /v1/matrices", req, root)
	info, err := post(cl, srv.base+"/v1/matrices?name="+url.QueryEscape(in.name), tenant, in.mm)
	b.tr.close(sp)
	up = time.Since(t0)
	if err != nil {
		b.tl.fail("upload "+in.name, err)
		return "", 0, 0, nil
	}
	r := spmvRequest(info.ID, 0, b.vecSeed(0), tenant, want)
	sp = b.tr.open(proc, "service", "POST /v1/spmv", req, root)
	rep, err := post(cl, srv.base+"/v1/spmv", tenant, r.body)
	b.tr.close(sp)
	setup = time.Since(t0)
	if err != nil {
		b.tl.fail("first spmv on "+in.name, err)
		return "", 0, 0, nil
	}
	b.tl.check("first spmv on "+in.name, rep.Digest, want)
	return info.ID, setup, up, nil
}

// traffic is serve-mixed's load, run in cycles: each cycle sends an
// open-loop segment at the fixed rate, continuing one request stream,
// then runs a closed-loop capacity segment, sampling the service state
// during both. Spread over the run, the segments sample the machine's
// changing speed evenly. finish reports over all cycles.
type traffic struct {
	b        *bench
	srv      *server
	mx       *mix
	rate     float64
	status   statusSampler // merged over the cycles
	open     *loadStats
	capacity *loadStats
	next     int    // first unsent request of the stream
	mallocs  uint64 // heap allocations during the closed-loop segments
}

func (b *bench) newTraffic(srv *server, mx *mix, rate float64) *traffic {
	return &traffic{b: b, srv: srv, mx: mx, rate: rate, open: newLoadStats(), capacity: newLoadStats()}
}

func (t *traffic) cycle(openDur, closedDur time.Duration) {
	ss := sampleStatus(t.srv.svc, 10*time.Millisecond)
	n := int(t.rate * openDur.Seconds())
	t.open.merge(t.b.openLoop(t.srv.base, t.mx.schedule(t.next, n), time.Duration(float64(time.Second)/t.rate), t.b.workers))
	t.next += n
	from := t.next
	a0 := mallocs()
	c := t.b.closedLoop(t.srv.base, func(i int) request { return t.mx.request(from + i) }, t.b.workers, closedDur)
	t.mallocs += mallocs() - a0
	t.next += int(c.sent)
	t.capacity.merge(c)
	ss.finish()
	t.status.maxQueue = max(t.status.maxQueue, ss.maxQueue)
	t.status.inflight = append(t.status.inflight, ss.inflight...)
}

func (t *traffic) finish() {
	t.b.reportLoad(t.open, t.capacity)
	t.b.reportService(&t.status, float64(t.mallocs)/float64(t.capacity.sent), t.capacity, t.mx.names[0])
}

// reportService records the service-layer metrics of a load phase,
// and the closed-loop spMVM latency on the first resident matrix for
// service.overhead_ms.
func (b *bench) reportService(ss *statusSampler, allocsPerReq float64, capacity *loadStats, first string) {
	b.m.set("service.allocs_per_req", allocsPerReq, "count")
	b.m.set("service.queue_depth_max", float64(ss.maxQueue), "count")
	b.m.set("service.inflight_mean", mean(ss.inflight), "count")
	b.reqIn, b.reqMs = first, quantile(capacity.byMat[0], 0.5)
}

// libraryPhase is serve-mixed's library path: tune each input on a
// fresh DB, build the winner at nproc workers (tuner.KernelFor), time
// MulVec for dur with every answer checked against naive CRS, and
// after each block of calls solve on cgIn with CG through its tuned
// kernel, so the solves sample the whole phase. It returns the call
// statistics and the solve wall times.
func (b *bench) libraryPhase(ins []*input, cgIn *input, dur time.Duration) (*callStats, []float64, error) {
	ks := make([]hostkernel.Kernel, len(ins))
	cgK := -1
	for i, in := range ins {
		k, err := b.tunedKernel(in, in.csr, b.tr.newReq(), -1)
		if err != nil {
			return nil, nil, err
		}
		defer k.Close()
		ks[i] = k
		if in == cgIn {
			cgK = i
		}
	}
	order := make([]int, len(ins))
	for i := range order {
		order[i] = i
	}
	sol := b.newSolves(cgIn, ks[cgK], libraryTol)
	calls, err := b.mulvecLoop(ins, ks, order, dur, sol.run)
	if err != nil {
		return nil, nil, err
	}
	return calls, sol.walls, nil
}

// tunedKernel tunes m on a fresh DB and builds the winner.
func (b *bench) tunedKernel(in *input, m *matrix.CSR[float64], req int64, parent int) (hostkernel.Kernel, error) {
	db := b.freshPath("tuning")
	var e *tuner.Entry
	err := b.tr.do(0, "tuner", "tune "+in.name, req, parent, func() (err error) {
		e, _, err = tuner.TuneOrLookup(m, in.name, db, tuner.Config{Workers: b.workers})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("tune %s: %w", in.name, err)
	}
	var k hostkernel.Kernel
	err = b.tr.do(0, "formats", "tuned-build "+e.Winner.Label(), req, parent, func() (err error) {
		k, err = tuner.KernelFor(e.Winner, m, b.workers, nil)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("build %s for %s: %w", e.Winner.Label(), in.name, err)
	}
	fmt.Fprintf(b.out, "tuned %s: %s\n", in.name, e.Winner.Label())
	return k, nil
}

// callStats holds MulVec call times and per-block bandwidth ratios.
type callStats struct {
	ms     []float64   // every call, in call order
	perIn  [][]float64 // per input
	ins    []*input
	ratios []float64 // per block: Eq. 1 bytes per second over the triad just before
}

// add appends o's calls, made on the same inputs.
func (c *callStats) add(o *callStats) {
	c.ms = append(c.ms, o.ms...)
	for i := range c.perIn {
		c.perIn[i] = append(c.perIn[i], o.perIn[i]...)
	}
	c.ratios = append(c.ratios, o.ratios...)
}

// median returns input i's median call time in seconds.
func (c *callStats) median(i int) float64 { return quantile(c.perIn[i], 0.5) / 1e3 }

// report records host_ns_per_nnz, from each input's median call, and
// bw_frac, the median of the per-block ratios.
func (c *callStats) report(b *bench) {
	var sec, nnz float64
	for i, in := range c.ins {
		sec += c.median(i)
		nnz += float64(in.nnz())
	}
	b.m.set("host_ns_per_nnz", sec*1e9/nnz, "ns")
	b.m.set("bw_frac", quantile(c.ratios, 0.5), "ratio")
}

// mulvecLoop alternates a triad repetition with a block of MulVec
// calls (ks[order[j]], cycling, for at least 50 ms), then calls between
// if set, until dur has passed. The calls use the run's request vectors
// and every answer is checked against the naive CRS digest. Each
// block's Eq. 1 bandwidth is divided by the triad measured moments
// before it: on a VM whose speed drifts second to second, that pairing
// is far steadier than one ratio of two separate measurements.
func (b *bench) mulvecLoop(ins []*input, ks []hostkernel.Kernel, order []int, dur time.Duration, between func() error) (*callStats, error) {
	block := 50 * time.Millisecond
	if b.tiny {
		block = 2 * time.Millisecond
	}
	xs := make([][][]float64, len(ins))
	want := make([][]string, len(ins))
	ys := make([][]float64, len(ins))
	for i, in := range ins {
		for s := 0; s < 2; s++ {
			xs[i] = append(xs[i], service.SeedVector(in.csr.NRows, b.vecSeed(s)))
			d, err := in.naiveRef(b.vecSeed(s))
			if err != nil {
				return nil, err
			}
			want[i] = append(want[i], d)
		}
		ys[i] = make([]float64, in.csr.NRows)
	}
	c := &callStats{perIn: make([][]float64, len(ins)), ins: ins}
	stop := time.Now().Add(dur)
	for j := 0; j == 0 || time.Now().Before(stop); {
		gbs := b.tri.rep()
		b.triadGBs = append(b.triadGBs, gbs)
		var busy time.Duration
		var eq float64
		for k := 0; k < len(order) || busy < block; k, j = k+1, j+1 {
			i, s := order[j%len(order)], j/len(order)%2
			req := b.tr.newReq()
			sp := b.tr.open(0, "hostkernel", "mulvec "+ins[i].name, req, -1)
			t0 := time.Now()
			err := ks[i].MulVec(ys[i], xs[i][s])
			d := time.Since(t0)
			b.tr.close(sp)
			if err != nil {
				return nil, fmt.Errorf("mulvec %s: %w", ins[i].name, err)
			}
			b.tl.check("mulvec "+ins[i].name, service.DigestVector(ys[i]), want[i][s])
			c.ms = append(c.ms, float64(d)/1e6)
			c.perIn[i] = append(c.perIn[i], float64(d)/1e6)
			busy += d
			eq += eq1Bytes(ins[i].csr)
		}
		c.ratios = append(c.ratios, eq/busy.Seconds()/(gbs*1e9))
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// solves times library CG solves of one input through a tuned kernel.
// Each answer is checked bit for bit against CG through the naive CRS
// kernel when that reference is cheap (under 10⁸ non-zero visits), and
// otherwise by its true residual ‖b − A·x‖ against the tolerance.
type solves struct {
	b     *bench
	in    *input
	op    solver.Operator
	tol   float64
	rhs   []float64
	walls []float64
	want  string // reference digest, once computed
}

func (b *bench) newSolves(in *input, k hostkernel.Kernel, tol float64) *solves {
	n := in.csr.NRows
	return &solves{b: b, in: in, op: solver.OperatorFunc{N: n, F: k.MulVec}, tol: tol, rhs: service.SeedVector(n, b.vecSeed(0))}
}

// run performs and checks one solve.
func (s *solves) run() error {
	b, n := s.b, s.in.csr.NRows
	x := make([]float64, n)
	wall, err := b.cg(s.op, x, s.rhs, s.tol, 10*n)
	if err != nil {
		b.tl.fail("cg "+s.in.name, err)
		return nil
	}
	s.walls = append(s.walls, wall.Seconds())
	if b.m["solver.cg_iters"].Value*float64(s.in.nnz()) < 1e8 {
		if s.want == "" {
			ref := make([]float64, n)
			if _, err := solver.CG(solver.CSROperator{M: s.in.csr}, ref, s.rhs, s.tol, 10*n); err != nil {
				return fmt.Errorf("reference cg %s: %w", s.in.name, err)
			}
			s.want = service.DigestVector(ref)
		}
		b.tl.check("cg "+s.in.name, service.DigestVector(x), s.want)
		return nil
	}
	ax, err := naiveMul(s.in.csr, x)
	if err != nil {
		return err
	}
	var rr, bb float64
	for i := range ax {
		d := s.rhs[i] - ax[i]
		rr += d * d
		bb += s.rhs[i] * s.rhs[i]
	}
	if rel := math.Sqrt(rr / bb); rel > 10*s.tol {
		b.tl.wrong("cg "+s.in.name, fmt.Sprintf("true relative residual %g above %g", rel, 10*s.tol))
	} else {
		b.tl.attempted.Add(1)
	}
	return nil
}

// serveMixed: an in-process service holding small resident matrices
// (each fits in L2), an open-loop 90/10 spMVM/solve stream at a fixed
// rate and a closed-loop capacity phase. The run is mixedCycles cycles
// of set-up rounds, traffic and the library path, so each figure
// samples the whole run.
func serveMixed(b *bench) error {
	ins := b.cached("serve-mixed", func() []*input {
		nx, samg, dlr := 96, 0.002, 0.0012
		if b.tiny {
			nx, samg, dlr = 16, 0.0002, 0.001
		}
		return []*input{
			newInput("stencil2d", matgen.Stencil2D(nx, nx), true),
			newInput("samg", matgen.SAMG(samg, matrixSeed), false),
			newInput("dlr1", matgen.DLR1(dlr, matrixSeed), false),
		}
	})
	mx, err := b.newMix(ins, nil, true)
	if err != nil {
		return err
	}
	if err := b.begin(workingSet(ins)); err != nil {
		return err
	}

	// Set-up: the resident set goes to a fresh server each round, so
	// every round pays ingest, permuted build and plan compile again.
	var setups, uploads []float64
	setupRound := func() (*server, []string, error) {
		srv, err := startServer(service.Config{})
		if err != nil {
			return nil, nil, err
		}
		cl := newClient(1)
		defer cl.CloseIdleConnections()
		ids := make([]string, len(ins))
		for i, in := range ins {
			id, setup, up, err := b.upload(cl, srv, in, tenantName(i%tenants), 0)
			if err != nil {
				srv.close()
				return nil, nil, err
			}
			ids[i] = id
			setups = append(setups, setup.Seconds())
			uploads = append(uploads, float64(up)/1e6)
		}
		return srv, ids, nil
	}
	// Rounds on servers that serve no traffic.
	setupOnly := func(rounds int) error {
		for r := 0; r < rounds; r++ {
			s, _, err := setupRound()
			if err != nil {
				return err
			}
			s.close()
		}
		return nil
	}
	srv, ids, err := setupRound()
	if err != nil {
		return err
	}
	defer srv.close()
	mx.ids = ids

	tr := b.newTraffic(srv, mx, mixedRate)
	var calls *callStats
	var walls []float64
	for c := 0; c < mixedCycles; c++ {
		rounds := mixedSetupRounds / mixedCycles
		if c == 0 {
			rounds-- // the traffic server's
		}
		if err := setupOnly(rounds); err != nil {
			return err
		}
		tr.cycle(b.phase(0.55/mixedCycles), b.phase(0.2/mixedCycles))
		cs, ws, err := b.libraryPhase(ins, ins[0], b.phase(0.2/mixedCycles))
		if err != nil {
			return err
		}
		if calls == nil {
			calls = cs
		} else {
			calls.add(cs)
		}
		walls = append(walls, ws...)
	}
	tr.finish()
	calls.report(b)
	b.m.set("solve_s", quantile(walls, 0.5), "s")
	b.m.set("setup_s", quantile(setups, 0.5), "s")
	b.m.set("service.upload_ms", quantile(uploads, 0.5), "ms")
	b.end()
	b.probe = ins
	return nil
}

// solveLarge: the library path on two matrices far beyond L2 — ingest,
// tuning on a fresh DB, the tuned kernel at nproc workers, repeated
// MulVec, fixed-budget solves and one CG solve to largeTol.
func solveLarge(b *bench) error {
	ins := b.cached("solve-large", func() []*input {
		nx, samg := 100, 0.05
		if b.tiny {
			nx, samg = 12, 0.0005
		}
		return []*input{
			newInput("stencil3d", matgen.Stencil3D(nx, nx, nx), true),
			newInput("samg", matgen.SAMG(samg, matrixSeed), false),
		}
	})
	if err := b.begin(workingSet(ins)); err != nil {
		return err
	}

	// Set-up: first byte of MatrixMarket to the first checked answer.
	// The first round's kernels serve the rest of the workload.
	setups := make([][]float64, len(ins))
	ks := make([]hostkernel.Kernel, len(ins))
	for i, in := range ins {
		k, d, err := b.setupLibrary(in)
		if err != nil {
			return err
		}
		defer k.Close()
		ks[i] = k
		setups[i] = append(setups[i], d.Seconds())
	}

	// Solve requests: fixed-budget CG on the stencil through the tuned
	// kernel, spread over the spMVM phase and checked against CG
	// through the naive kernel.
	st := ins[0]
	var refs []string
	for s := 0; s < 3; s++ {
		d, err := cgDigest(solver.CSROperator{M: st.csr}, service.SeedVector(st.csr.NRows, b.vecSeed(s)), solveIters)
		if err != nil {
			return err
		}
		refs = append(refs, d)
	}
	var solveMs []float64
	last := time.Now()
	solve := func() error {
		if time.Since(last) < b.phase(0.05) {
			return nil
		}
		s := len(solveMs) % len(refs)
		rhs := service.SeedVector(st.csr.NRows, b.vecSeed(s))
		t0 := time.Now()
		got, err := cgDigest(solver.OperatorFunc{N: st.csr.NRows, F: ks[0].MulVec}, rhs, solveIters)
		last = time.Now()
		if err != nil {
			b.tl.fail("solve "+st.name, err)
			return nil
		}
		solveMs = append(solveMs, msSince(t0))
		b.tl.check("solve "+st.name, got, refs[s])
		return nil
	}

	// spMVM calls: three on the stencil per one on sAMG, so both
	// percentiles sit inside the stencil's call times.
	calls, err := b.mulvecLoop(ins, ks, []int{0, 0, 0, 1}, b.phase(0.5), solve)
	if err != nil {
		return err
	}
	calls.report(b)
	b.m.set("spmv_p50_ms", quantile(calls.ms, 0.5), "ms")
	b.m.set("spmv_p99_ms", quantile(calls.ms, 0.99), "ms")
	b.m.set("capacity_rps", 4/(3*calls.median(0)+calls.median(1)), "1/s")
	b.m.set("solve_p50_ms", quantile(solveMs, 0.5), "ms")
	b.m.set("solve_p90_ms", quantile(solveMs, 0.9), "ms")

	sol := b.newSolves(st, ks[0], largeTol)
	if err := sol.run(); err != nil {
		return err
	}
	b.m.set("solve_s", quantile(sol.walls, 0.5), "s")

	// The other set-up rounds. setup_s is the mean over the matrices of
	// each one's median set-up time.
	for r := 1; r < largeSetupRounds; r++ {
		for i, in := range ins {
			k, d, err := b.setupLibrary(in)
			if err != nil {
				return err
			}
			k.Close()
			setups[i] = append(setups[i], d.Seconds())
		}
	}
	var setup float64
	for _, s := range setups {
		setup += quantile(s, 0.5) / float64(len(setups))
	}
	b.m.set("setup_s", setup, "s")
	if b.tr != nil {
		if err := b.serviceSession(ins[1]); err != nil {
			return err
		}
	}
	b.end()
	b.probe = ins
	return nil
}

// setupLibrary takes in from its MatrixMarket bytes to the first
// checked answer of its tuned kernel (ingest, tuning on a fresh DB,
// tuned build, first MulVec) and returns the kernel and the time taken.
func (b *bench) setupLibrary(in *input) (hostkernel.Kernel, time.Duration, error) {
	want, err := in.naiveRef(b.vecSeed(0))
	if err != nil {
		return nil, 0, err
	}
	req := b.tr.newReq()
	root := b.tr.open(0, "loadgen", "setup "+in.name, req, -1)
	defer b.tr.close(root)
	t0 := time.Now()
	var m *matrix.CSR[float64]
	if err := b.tr.do(0, "matrix", "ingest", req, root, func() (err error) {
		m, _, err = matrix.ReadMatrixMarketOpt[float64](bytes.NewReader(in.mm), matrix.ConvertOptions{})
		return err
	}); err != nil {
		return nil, 0, fmt.Errorf("ingest %s: %w", in.name, err)
	}
	k, err := b.tunedKernel(in, m, req, root)
	if err != nil {
		return nil, 0, err
	}
	y := make([]float64, m.NRows)
	if err := b.tr.do(0, "hostkernel", "first mulvec", req, root, func() error {
		return k.MulVec(y, service.SeedVector(m.NRows, b.vecSeed(0)))
	}); err != nil {
		k.Close()
		return nil, 0, fmt.Errorf("first mulvec %s: %w", in.name, err)
	}
	d := time.Since(t0)
	b.tl.check("first mulvec on "+in.name, service.DigestVector(y), want)
	return k, d, nil
}

// cgDigest runs a fixed-budget CG from zero and digests the iterate.
func cgDigest(op solver.Operator, rhs []float64, iters int) (string, error) {
	x := make([]float64, len(rhs))
	if _, err := solver.CG(op, x, rhs, solveTol, iters); err != nil && !errors.Is(err, solver.ErrNotConverged) {
		return "", err
	}
	return service.DigestVector(x), nil
}

// serviceSession gives a workload without service traffic its service
// layer metrics: one upload of in, then a short open-loop phase of
// spMVM requests on it and a closed-loop one, on one connection.
func (b *bench) serviceSession(in *input) error {
	srv, err := startServer(service.Config{})
	if err != nil {
		return err
	}
	defer srv.close()
	cl := newClient(1)
	defer cl.CloseIdleConnections()
	id, _, up, err := b.upload(cl, srv, in, tenantName(0), 0)
	if err != nil {
		return err
	}
	b.m.set("service.upload_ms", float64(up)/1e6, "ms")
	mx, err := b.newMix([]*input{in}, []string{id}, false)
	if err != nil {
		return err
	}
	ss := sampleStatus(srv.svc, 10*time.Millisecond)
	open := b.openLoop(srv.base, mx.schedule(0, 10), 20*time.Millisecond, 1)
	a0 := mallocs()
	capacity := b.closedLoop(srv.base, func(i int) request { return mx.request(10 + i) }, 1, b.phase(0.05))
	allocs := float64(mallocs()-a0) / float64(capacity.sent)
	ss.finish()
	b.m.set("loadgen.late_p99_ms", quantile(open.late, 0.99), "ms")
	b.reportShed(open, capacity)
	b.reportService(ss, allocs, capacity, in.name)
	return nil
}
