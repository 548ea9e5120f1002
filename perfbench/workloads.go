package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"brainprint/internal/gallery"
	"brainprint/internal/router"
)

// Workload shapes. The open-loop rates are fixed, not derived from a
// run's own capacity, so a faster program faces the same offered load.
const (
	galleryN     = 100_000 // identify-100k and batch-100k
	liveN        = 10_000  // live-mixed-10k
	batchSize    = 64
	identifyRate = 50.0  // identify-100k open loop, ops/s
	liveRate     = 150.0 // live-mixed-10k open loop, ops/s
	enrollFrac   = 0.10
	primaryFrac  = 0.45 // identifies routed to the primary (staleness 0)
	rywFrac      = 1.0 / 3
	rywLag       = 64 // a read-your-writes probe targets an enroll this many ops back
	setupReps    = 5
	setupWithin  = 10 * time.Second
	fixedProbes  = 16
	closedShare  = 0.3 // share of the measured time spent in closed loops
	rounds       = 5
	roundStride  = 1 << 20
	// compactAfter is the live engines' compaction threshold. Every
	// closed-loop round folds the log about three times, so rounds
	// cost alike; in an open-loop round (15 enrolls/s) about one
	// compaction delays under 5% of the operations, so the p90 latency
	// is not set by where the stalls happen to fall.
	compactAfter  = 50
	warmup        = 500 * time.Millisecond
	visibleGrace  = 5 * time.Second
	catchUpWithin = 5 * time.Second
)

// run is one benchmark invocation: its configuration, the generator's
// client and accounting, and what it reports.
type run struct {
	seed    int64
	seconds float64
	conns   int
	root    string // scratch directory inside the checkout
	tr      *tracer

	cl *client
	tl *tally

	replicaURL   string // live-mixed: the replica node, to attribute routed reads
	routedReads  atomic.Int64
	replicaReads atomic.Int64

	e2e      map[string]float64
	layer    map[string]float64
	notes    []string
	problems []string
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *run) tracing() bool { return r.tr != nil }

// measured holds the samples of a run's measured phases, round by
// round.
type measured struct {
	closed [][]sample
	walls  []time.Duration
	open   [][]sample
}

// alternate splits the measured time into rounds, each a closed loop
// of clients (share of the round) followed by an open loop at rate for
// the rest, so every loop samples the whole run rather than one
// stretch of it, and a stall hits one round's figures, not all of
// them. prep(base) builds a segment's operations; every segment draws
// from its own index space.
func (r *run) alternate(share, rate float64, clients int, prep func(base int) func(int) prepared) measured {
	total := time.Duration(r.seconds * float64(time.Second))
	closedDur := time.Duration(float64(total) * share)
	openDur := total - closedDur
	var m measured
	for k := 0; k < rounds; k++ {
		c, w := closedLoop(closedDur/rounds, clients, r.tracing(), prep(baseClosed+k*roundStride))
		m.closed, m.walls = append(m.closed, c), append(m.walls, w)
		if openDur > 0 {
			m.open = append(m.open, openLoop(openDur/rounds, rate, r.conns, r.tracing(), prep(baseOpen+k*roundStride)))
		}
	}
	r.note("phase closed-loop clients=%d seconds=%.1f ops=%d (%d rounds)", clients, closedDur.Seconds(), len(flatten(m.closed)), rounds)
	if openDur > 0 {
		r.note("phase open-loop rate=%.0f/s connections=%d seconds=%.1f ops=%d (%d rounds, each after a closed-loop round)", rate, r.conns, openDur.Seconds(), len(flatten(m.open)), rounds)
	}
	return m
}

// throughput is the median over rounds of the closed loop's correctly
// answered probes per second.
func (m measured) throughput() float64 {
	per := make([]float64, len(m.closed))
	for k, c := range m.closed {
		per[k] = float64(workDone(c)) / m.walls[k].Seconds()
	}
	return median(per)
}

// tail is the median over rounds of each round's q-quantile open-loop
// latency.
func (m measured) tail(q float64) float64 {
	per := make([]float64, len(m.open))
	for k, o := range m.open {
		per[k] = percentile(latencies(o, nil), q)
	}
	return median(per)
}

func flatten(rounds [][]sample) []sample {
	var out []sample
	for _, r := range rounds {
		out = append(out, r...)
	}
	return out
}

func isEnroll(s sample) bool { return s.kind == opEnroll }

// identifyOp builds one identify request; extra headers (a staleness
// bound) ride along.
func (r *run) identifyOp(url string, p probe, extra http.Header) prepared {
	body := identifyBody(p)
	return func(s slot) sample {
		hdr, _ := r.tr.header(s.traced)
		if hdr == nil {
			hdr = http.Header{}
		}
		for k, v := range extra {
			hdr[k] = v
		}
		sent := time.Now()
		rep := r.cl.post(url, body, hdr)
		wrong := rep.err == nil && rep.status == http.StatusOK && identifyWrong(rep.body, p.wantID)
		ok := r.tl.record(rep, http.StatusOK, wrong)
		if r.replicaURL != "" {
			r.routedReads.Add(1)
			if rep.upstream == r.replicaURL {
				r.replicaReads.Add(1)
			}
		}
		return finish(s, sent, ok, opIdentify, 1)
	}
}

// firstAnswer repeats one identify until it gets a correct answer,
// which ends a setup; a router answers 503 until its first health
// poll completes. Only the final attempt is accounted.
func (r *run) firstAnswer(url string, p probe) error {
	body := identifyBody(p)
	deadline := time.Now().Add(setupWithin)
	for {
		rep := r.cl.post(url, body, nil)
		wrong := rep.err == nil && rep.status == http.StatusOK && identifyWrong(rep.body, p.wantID)
		done := rep.err == nil && rep.status == http.StatusOK && !wrong
		if done || time.Now().After(deadline) {
			if !r.tl.record(rep, http.StatusOK, wrong) {
				return fmt.Errorf("setup: no correct answer from %s within %v (status %d, %v)", url, setupWithin, rep.status, rep.err)
			}
			return nil
		}
		time.Sleep(time.Millisecond)
	}
}

// setUp builds a system setupReps times, each timed from the start of
// the build to the first correct answer through url, and keeps the
// last one; setup_s is the median. n is the base gallery size.
func setUp[S interface{ close() }](r *run, n int, build func() (S, error), url func(S) string) (S, error) {
	var s, zero S
	var ds []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			s.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if s, err = build(); err != nil {
			return zero, err
		}
		if err := r.firstAnswer(url(s), baseProbe(r.seed, baseSetup+i, n)); err != nil {
			s.close()
			return zero, err
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	r.e2e["setup_s"] = median(ds)
	r.note("setup: %d repetitions, each from building the gallery to the first correct answer: %v s", len(ds), ds)
	return s, nil
}

// ---- identify-100k ----

func (r *run) identify100k() error {
	st, err := r.setUpStatic()
	if err != nil {
		return err
	}
	defer st.close()
	url := st.node.url + "/v1/identify"
	prep := func(base int) func(int) prepared {
		return func(i int) prepared { return r.identifyOp(url, baseProbe(r.seed, base+i, galleryN), nil) }
	}
	closedLoop(warmup, r.conns, false, prep(baseWarm))

	gc0 := readGC()
	m := r.alternate(closedShare, identifyRate, r.conns, prep)
	r.gcLayer(gc0)
	closed, open := flatten(m.closed), flatten(m.open)

	r.checkIdentifyBits(url, nil, st.store, galleryN)
	lat := latencies(open, nil)
	r.e2e["latency_p50_ms"] = median(lat)
	r.e2e["latency_tail_ms"] = m.tail(0.95)
	r.e2e["throughput_per_s"] = m.throughput()
	r.note("metric identify_p50_ms %.4f ms (n=%d, open loop)", median(lat), len(lat))
	r.note("metric identify_p95_ms %.4f ms (median of %d rounds of about %d; %.4f over all)", m.tail(0.95), rounds, len(lat)/rounds, percentile(lat, 0.95))
	r.note("metric identify_rps %.2f 1/s (median of %d rounds, n=%d, closed loop)", m.throughput(), rounds, len(closed))
	r.lateLayer(open)
	r.overheadLayer(open)
	r.heap()
	return nil
}

// setUpStatic sets up the 100k static stack of identify-100k and
// batch-100k.
func (r *run) setUpStatic() (*staticStack, error) {
	inputs := subjectInputs(r.seed, galleryN)
	return setUp(r, galleryN,
		func() (*staticStack, error) { return buildStatic(inputs, r.tr) },
		func(s *staticStack) string { return s.node.url + "/v1/identify" })
}

// checkIdentifyBits re-queries the fixed probe set over HTTP and
// directly on the engine and requires bit-identical answers.
func (r *run) checkIdentifyBits(url string, extra http.Header, eng gallery.Engine, n int) {
	for q := 0; q < fixedProbes; q++ {
		p := baseProbe(r.seed, baseFixed+q, n)
		hdr := http.Header{}
		for k, v := range extra {
			hdr[k] = v
		}
		rep := r.cl.post(url, identifyBody(p), hdr)
		cands, err := decodeIdentify(rep.body)
		wrong := rep.err == nil && rep.status == http.StatusOK && (err != nil || !topOK(cands, p.wantID))
		if !r.tl.record(rep, http.StatusOK, wrong) {
			r.problem("fixed probe %d via %s: status %d err %v", q, url, rep.status, rep.err)
			continue
		}
		want, err := engineTopK(eng, p.vec)
		if err == nil {
			err = sameBits(cands, want)
		}
		if err != nil {
			r.tl.fail()
			r.problem("fixed probe %d via %s: %v", q, url, err)
		}
	}
}

// ---- batch-100k ----

func (r *run) batch100k() error {
	st, err := r.setUpStatic()
	if err != nil {
		return err
	}
	defer st.close()
	url := st.node.url + "/v1/identify/batch"
	prep := func(base int) func(int) prepared {
		return func(i int) prepared {
			ps := make([]probe, batchSize)
			for q := range ps {
				ps[q] = baseProbe(r.seed, base+i*batchSize+q, galleryN)
			}
			return r.batchOp(url, ps)
		}
	}
	closedLoop(warmup, 1, false, prep(baseWarm))

	gc0 := readGC()
	m := r.alternate(1, 0, 1, prep)
	r.gcLayer(gc0)
	closed := flatten(m.closed)

	r.checkBatchBits(url, st.store)
	lat := latencies(closed, nil)
	pps := m.throughput()
	r.e2e["latency_p50_ms"] = median(lat)
	r.e2e["latency_tail_ms"] = percentile(lat, 0.90)
	r.e2e["throughput_per_s"] = pps
	r.note("metric batch_p50_ms %.4f ms (n=%d)", median(lat), len(lat))
	r.note("metric batch_p90_ms %.4f ms (n=%d)", percentile(lat, 0.90), len(lat))
	r.note("metric batch_probes_per_s %.2f 1/s (median of %d rounds, n=%d probes)", pps, rounds, workDone(closed))
	r.overheadLayer(closed)
	r.heap()
	return nil
}

func (r *run) batchOp(url string, ps []probe) prepared {
	body := batchBody(ps)
	return func(s slot) sample {
		hdr, _ := r.tr.header(s.traced)
		sent := time.Now()
		rep := r.cl.post(url, body, hdr)
		wrong := false
		if rep.err == nil && rep.status == http.StatusOK {
			res, err := decodeBatch(rep.body)
			wrong = err != nil || len(res) != len(ps)
			for q := 0; !wrong && q < len(ps); q++ {
				wrong = !topOK(res[q], ps[q].wantID)
			}
		}
		ok := r.tl.record(rep, http.StatusOK, wrong)
		return finish(s, sent, ok, opBatch, len(ps))
	}
}

// checkBatchBits sends the fixed probe set as one batch and requires
// answers bit-identical to the engine's own QueryAll.
func (r *run) checkBatchBits(url string, eng gallery.Engine) {
	ps := make([]probe, fixedProbes)
	for q := range ps {
		ps[q] = baseProbe(r.seed, baseFixed+q, galleryN)
	}
	rep := r.cl.post(url, batchBody(ps), nil)
	res, err := decodeBatch(rep.body)
	wrong := rep.err == nil && rep.status == http.StatusOK && (err != nil || len(res) != len(ps))
	if !r.tl.record(rep, http.StatusOK, wrong) {
		r.problem("fixed batch: status %d err %v", rep.status, rep.err)
		return
	}
	want, err := engineQueryAll(eng, ps)
	for q := 0; err == nil && q < len(ps); q++ {
		if !topOK(res[q], ps[q].wantID) {
			err = fmt.Errorf("probe %d: wrong top-1", q)
			break
		}
		err = sameBits(res[q], want[q])
	}
	if err != nil {
		r.tl.fail()
		r.problem("fixed batch: %v", err)
	}
}

// ---- live-mixed-10k ----

// liveOps is the deterministic operation schedule of one live-mixed
// phase: op i's kind and inputs depend only on the seed, the phase's
// index base, and i.
type liveOps struct {
	r      *run
	base   int
	router string // the router's base URL
	vis    *visibility
	acks   sync.Map // op index → chan struct{}, closed once the enroll completes
}

type liveKind uint8

const (
	kindEnroll liveKind = iota
	kindPrimaryRead
	kindReplicaRead
)

func (o *liveOps) kind(i int) (liveKind, bool) {
	rng := streamRNG(o.r.seed, streamOp|uint64(o.base+i))
	u := rng.Float64()
	switch {
	case u < enrollFrac:
		return kindEnroll, false
	case u < enrollFrac+primaryFrac:
		return kindPrimaryRead, rng.Float64() < rywFrac
	}
	return kindReplicaRead, false
}

func (o *liveOps) ack(i int) chan struct{} {
	ch, _ := o.acks.LoadOrStore(i, make(chan struct{}))
	return ch.(chan struct{})
}

var primaryOnly = http.Header{router.HeaderMaxStaleness: {"0"}}

func (o *liveOps) prep(i int) prepared {
	r := o.r
	kind, ryw := o.kind(i)
	switch kind {
	case kindEnroll:
		return o.enrollOp(i)
	case kindPrimaryRead:
		if ryw {
			for j := i - rywLag; j >= 0 && j > i-rywLag-256; j-- {
				if k, _ := o.kind(j); k == kindEnroll {
					p := noisyProbe(r.seed, o.base+i, freshVec(r.seed, o.base+j), freshID(o.base+j))
					send := r.identifyOp(o.router+"/v1/identify", p, primaryOnly)
					ack := o.ack(j)
					return func(s slot) sample {
						<-ack // read your own write: only after the enroll completed
						return send(s)
					}
				}
			}
		}
		return r.identifyOp(o.router+"/v1/identify", baseProbe(r.seed, o.base+i, liveN), primaryOnly)
	}
	return r.identifyOp(o.router+"/v1/identify", baseProbe(r.seed, o.base+i, liveN), nil)
}

func (o *liveOps) enrollOp(i int) prepared {
	r := o.r
	id := freshID(o.base + i)
	body := enrollBody(id, freshVec(r.seed, o.base+i))
	return func(s slot) sample {
		defer close(o.ack(i))
		hdr, tid := r.tr.header(s.traced)
		if tid != 0 {
			r.tr.enrollIDs.Store(id, tid)
		}
		sent := time.Now()
		rep := r.cl.post(o.router+"/v1/enroll", body, hdr)
		ok := r.tl.record(rep, http.StatusCreated, false)
		if ok {
			o.vis.acked(id, time.Now())
		}
		return finish(s, sent, ok, opEnroll, 1)
	}
}

func (r *run) liveMixed10k() error {
	inputs := subjectInputs(r.seed, liveN)
	ls, err := setUp(r, liveN,
		func() (*liveStack, error) { return buildLive(r.root, inputs, compactAfter, r.tr) },
		func(s *liveStack) string { return s.router.url + "/v1/identify" })
	if err != nil {
		return err
	}
	defer ls.close()
	r.layer["replicate.bootstrap_s"] = ls.bootstrap.Seconds()
	r.note("topology: live primary (%d base subjects, fsync on, compact after %d log records) -> WAL-shipping replica -> router", liveN, compactAfter)

	vis := watchVisibility(ls.rep)
	prep := func(base int) func(int) prepared {
		return (&liveOps{r: r, base: base, router: ls.router.url, vis: vis}).prep
	}
	closedLoop(warmup, r.conns, false, prep(baseWarm))
	r.replicaURL = ls.replica.url
	comp0 := ls.eng.Stats().Compactions
	var poll *statsPoller
	if r.tracing() {
		poll = startStatsPoller(r.tr, ls.eng, ls.rep, 2*time.Millisecond)
	}

	gc0 := readGC()
	m := r.alternate(closedShare, liveRate, r.conns, prep)
	closed, open := flatten(m.closed), flatten(m.open)
	r.note("mix: %.0f%% enroll, %.0f%% identify at staleness 0 (a third of them read-your-writes), the rest identify at the default bound; enrolls: %d closed loop, %d open loop",
		enrollFrac*100, primaryFrac*100, len(latencies(closed, isEnroll)), len(latencies(open, isEnroll)))
	r.gcLayer(gc0)
	var samples []statsSample
	if poll != nil {
		samples = poll.finish()
	}

	visMS, unseen := vis.finish(visibleGrace)
	for k := 0; k < unseen; k++ {
		r.tl.fail()
	}
	if unseen > 0 {
		r.problem("%d acknowledged enrolls never became visible on the replica", unseen)
	}
	r.waitCaughtUp(ls)
	r.checkIdentifyBits(ls.router.url+"/v1/identify", primaryOnly, ls.eng, liveN)
	r.checkIdentifyBits(ls.replica.url+"/v1/identify", nil, ls.rep, liveN)
	rs := ls.rep.Stats()
	r.note("replica: %d bootstraps, %d stream reconnects", rs.Bootstraps, rs.Reconnects)
	comps := ls.eng.Stats().Compactions - comp0
	r.note("compactions during the measured phases: %d", comps)
	if comps < 3 {
		r.note("warning: fewer than three compactions; the workload did not exercise compaction as designed")
	}

	lat := latencies(open, nil)
	ops := m.throughput()
	r.e2e["latency_p50_ms"] = median(lat)
	r.e2e["latency_tail_ms"] = m.tail(0.90)
	r.e2e["throughput_per_s"] = ops
	idl := latencies(open, func(s sample) bool { return s.kind == opIdentify })
	enl := latencies(open, isEnroll)
	r.note("metric ops_p50_ms %.4f ms (n=%d, open loop, all operations)", median(lat), len(lat))
	r.note("metric ops_p90_ms %.4f ms (median of %d rounds of about %d; %.4f over all)", m.tail(0.90), rounds, len(lat)/rounds, percentile(lat, 0.90))
	r.note("metric ops_p99_ms %.4f ms (n=%d, open loop, all operations)", percentile(lat, 0.99), len(lat))
	r.note("metric mixed_ops_per_s %.2f 1/s (median of %d rounds, n=%d, closed loop)", ops, rounds, len(closed))
	r.note("metric identify_p50_ms %.4f ms (n=%d, open loop)", median(idl), len(idl))
	r.note("metric identify_p95_ms %.4f ms (n=%d, open loop)", percentile(idl, 0.95), len(idl))
	r.note("metric enroll_p50_ms %.4f ms (n=%d, open loop, to the 201)", median(enl), len(enl))
	r.note("metric enroll_p95_ms %.4f ms (n=%d, open loop, to the 201)", percentile(enl, 0.95), len(enl))
	r.note("metric replica_visible_p50_ms %.4f ms (n=%d, all phases)", median(visMS), len(visMS))
	r.note("metric replica_visible_p95_ms %.4f ms (n=%d, all phases)", percentile(visMS, 0.95), len(visMS))
	r.layer["gen.enroll.ms_p50"] = median(enl)
	r.layer["gen.enroll.ms_p95"] = percentile(enl, 0.95)
	r.layer["gen.replica_visible.ms_p50"] = median(visMS)
	r.layer["gen.replica_visible.ms_p95"] = percentile(visMS, 0.95)
	if n := r.routedReads.Load(); n > 0 {
		r.layer["router.reads_to_replica_frac"] = float64(r.replicaReads.Load()) / float64(n)
	}
	r.lateLayer(open)
	r.overheadLayer(open)
	if samples != nil {
		statsLayer(r.layer, samples, r.tr.snapshot())
	}
	r.heap()
	return nil
}

// waitCaughtUp waits until the replica has applied everything the
// primary committed.
func (r *run) waitCaughtUp(ls *liveStack) {
	deadline := time.Now().Add(catchUpWithin)
	for time.Now().Before(deadline) {
		if ls.rep.Stats().Seq == ls.eng.Stats().Seq {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.problem("replica at seq %d, primary at %d after %v", ls.rep.Stats().Seq, ls.eng.Stats().Seq, catchUpWithin)
}
