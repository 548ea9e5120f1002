package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// client is the load generator's HTTP client: one pooled transport
// capped at a fixed number of connections per host.
type client struct{ hc *http.Client }

func newClient(conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one HTTP exchange as the generator saw it.
type reply struct {
	status   int
	body     []byte
	upstream string
	err      error // transport error; status is 0
}

func (c *client) post(url string, body []byte, hdr http.Header) reply {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{status: resp.StatusCode, err: err}
	}
	return reply{status: resp.StatusCode, body: data, upstream: resp.Header.Get("X-Brainprint-Upstream")}
}

// tally is the generator's failure accounting over every phase: each
// operation is attempted once and fails on a transport error, an
// unexpected status, or a wrong answer, each counted separately.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	wrong     int
	transport int
	status    map[int]int
}

func newTally() *tally { return &tally{status: map[int]int{}} }

// record accounts one operation and reports whether it succeeded.
func (t *tally) record(r reply, wantStatus int, wrong bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	switch {
	case r.err != nil:
		t.transport++
		t.failed++
		return false
	case r.status != wantStatus:
		t.status[r.status]++
		t.failed++
		return false
	}
	t.status[r.status]++
	if wrong {
		t.wrong++
		t.failed++
		return false
	}
	return true
}

// fail accounts an operation that failed outside an HTTP exchange
// (an enroll never visible on the replica, a score mismatch).
func (t *tally) fail() {
	t.mu.Lock()
	t.attempted++
	t.failed++
	t.wrong++
	t.mu.Unlock()
}

func (t *tally) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	codes := make([]int, 0, len(t.status))
	for c := range t.status {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	s := fmt.Sprintf("attempted=%d failed=%d wrong_answers=%d transport_errors=%d", t.attempted, t.failed, t.wrong, t.transport)
	for _, c := range codes {
		s += fmt.Sprintf(" status_%d=%d", c, t.status[c])
	}
	return s
}

// prepared is an operation whose request is already built, waiting
// for its slot.
type prepared func(slot) sample

// slot is one scheduled operation: its sequence number in the phase,
// when it was due, and whether it carries a trace ID.
type slot struct {
	i      int
	due    time.Time
	traced bool
}

// sample is one finished operation. A failed operation has infinite
// latency, so it misses every latency limit.
type sample struct {
	ms     float64 // completion minus due time
	lateMS float64 // send time minus due time
	traced bool
	kind   opKind
	work   int // probes answered correctly
}

type opKind uint8

const (
	opIdentify opKind = iota
	opBatch
	opEnroll
)

// finish builds the sample of an operation that was due at s.due,
// started at sent and ended now.
func finish(s slot, sent time.Time, ok bool, kind opKind, work int) sample {
	out := sample{lateMS: ms(sent.Sub(s.due)), traced: s.traced, kind: kind}
	if ok {
		out.ms = ms(time.Since(s.due))
		out.work = work
	} else {
		out.ms = math.Inf(1)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// openLoop runs operations on a fixed schedule, rate per second for
// d, through at most conns concurrent connections: each worker takes
// the next due slot in order, waits for its due time if it is early,
// and otherwise sends at once, so a stall delays later operations and
// their latency, timed from the due time, shows it. With tracing on,
// alternate one-second windows carry trace IDs. Each request is built
// by prep before its due time, so building it is not timed.
func openLoop(d time.Duration, rate float64, conns int, tracing bool, prep func(i int) prepared) []sample {
	n := int(d.Seconds() * rate)
	out := make([]sample, n)
	start := time.Now().Add(10 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				send := prep(i)
				off := time.Duration(float64(i) / rate * float64(time.Second))
				due := start.Add(off)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				out[i] = send(slot{i: i, due: due, traced: tracing && int(off/time.Second)%2 == 0})
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs clients that each send their next operation as soon
// as the previous one completes, for d. It returns the samples and the
// phase's wall time. With tracing on, every other operation carries a
// trace ID.
func closedLoop(d time.Duration, clients int, tracing bool, prep func(i int) prepared) ([]sample, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var next atomic.Int64
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				send := prep(i)
				mine = append(mine, send(slot{i: i, due: time.Now(), traced: tracing && i%2 == 0}))
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// percentile is the nearest-rank q-quantile of vals (0 when empty).
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

// latencies extracts the latencies of the samples that pass keep.
func latencies(ss []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range ss {
		if keep == nil || keep(s) {
			out = append(out, s.ms)
		}
	}
	return out
}

func lateness(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.lateMS
	}
	return out
}

// workDone sums the correctly answered probes of the samples.
func workDone(ss []sample) int {
	n := 0
	for _, s := range ss {
		n += s.work
	}
	return n
}
