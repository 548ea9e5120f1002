package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"brainprint/internal/gallery"
	"brainprint/internal/gallery/live"
	"brainprint/internal/linalg"
	"brainprint/internal/replicate"
)

// headerTraceID carries the generator's request ID through the router
// into the serving node, so spans of one request can be joined.
const headerTraceID = "X-Bench-Request-ID"

type traceIDKey struct{}

// span is one timed call at a layer boundary. Handler spans carry the
// response status; engine spans the number of probes scanned.
type span struct {
	ID     uint64 `json:"id"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Status int    `json:"status,omitempty"`
	Probes int    `json:"probes,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer records spans in memory, from the benchmark's own wrappers
// around each layer's public entry points; nothing inside the program
// is instrumented. Only requests that carry headerTraceID are recorded.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span

	// enrollIDs maps a subject ID to the trace ID of the request that
	// enrolls it: Mutable.Enroll takes no context to carry the ID.
	enrollIDs sync.Map
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// header returns the trace header of a new traced request (nil when
// the tracer is off or the slot is untraced) and its ID.
func (t *tracer) header(traced bool) (http.Header, uint64) {
	if t == nil || !traced {
		return nil, 0
	}
	id := t.nextID.Add(1)
	return http.Header{headerTraceID: {strconv.FormatUint(id, 10)}}, id
}

// handler wraps an HTTP handler with a span per traced request, and
// hands the trace ID to the engine decorators through the request
// context.
func (t *tracer) handler(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(headerTraceID), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := t.now()
		h.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), traceIDKey{}, id)))
		t.add(span{ID: id, Layer: layer, Start: start, End: t.now(), Status: sw.status})
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// timed runs one engine call, recording a span when ctx carries a
// trace ID.
func (t *tracer) timed(ctx context.Context, layer string, probes int, call func()) {
	id, ok := ctx.Value(traceIDKey{}).(uint64)
	if !ok {
		call()
		return
	}
	start := t.now()
	call()
	t.add(span{ID: id, Layer: layer, Start: start, End: t.now(), Probes: probes})
}

// tracedEngine decorates a read-only engine handed to attacker.New.
type tracedEngine struct {
	gallery.Engine
	t     *tracer
	layer string
}

func (e tracedEngine) TopKCtx(ctx context.Context, probe []float64, k, parallelism int) (c []gallery.Candidate, err error) {
	e.t.timed(ctx, e.layer+".topk", 1, func() { c, err = e.Engine.TopKCtx(ctx, probe, k, parallelism) })
	return c, err
}

func (e tracedEngine) QueryAllCtx(ctx context.Context, probes *linalg.Matrix, k, parallelism int) (c [][]gallery.Candidate, err error) {
	_, n := probes.Dims()
	e.t.timed(ctx, e.layer+".queryall", n, func() { c, err = e.Engine.QueryAllCtx(ctx, probes, k, parallelism) })
	return c, err
}

// tracedMutable decorates a writable engine handed to attacker.New
// through attacker.WithMutableGallery.
type tracedMutable struct {
	gallery.Mutable
	t     *tracer
	layer string
}

func (m tracedMutable) TopKCtx(ctx context.Context, probe []float64, k, parallelism int) (c []gallery.Candidate, err error) {
	m.t.timed(ctx, m.layer+".topk", 1, func() { c, err = m.Mutable.TopKCtx(ctx, probe, k, parallelism) })
	return c, err
}

func (m tracedMutable) QueryAllCtx(ctx context.Context, probes *linalg.Matrix, k, parallelism int) (c [][]gallery.Candidate, err error) {
	_, n := probes.Dims()
	m.t.timed(ctx, m.layer+".queryall", n, func() { c, err = m.Mutable.QueryAllCtx(ctx, probes, k, parallelism) })
	return c, err
}

func (m tracedMutable) Enroll(id string, fingerprint []float64) error {
	v, ok := m.t.enrollIDs.Load(id)
	if !ok {
		return m.Mutable.Enroll(id, fingerprint)
	}
	var err error
	m.t.timed(context.WithValue(context.Background(), traceIDKey{}, v.(uint64)), m.layer+".enroll", 0,
		func() { err = m.Mutable.Enroll(id, fingerprint) })
	return err
}

// writeSpans writes the recorded spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// statsSample is one poll of the live primary's and the replica's
// Stats().
type statsSample struct {
	at     int64
	st     gallery.MutableStats
	repSeq int64
}

// statsPoller polls live.Engine.Stats and replicate.Replica.Stats at a
// fixed period until stopped.
type statsPoller struct {
	stop    chan struct{}
	done    chan struct{}
	samples []statsSample
}

func startStatsPoller(t *tracer, eng *live.Engine, rep *replicate.Replica, period time.Duration) *statsPoller {
	p := &statsPoller{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			p.samples = append(p.samples, statsSample{at: t.now(), st: eng.Stats(), repSeq: rep.Stats().Seq})
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// finish stops the poller and returns its samples.
func (p *statsPoller) finish() []statsSample {
	close(p.stop)
	<-p.done
	return p.samples
}
