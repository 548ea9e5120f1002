package main

import (
	"runtime"
	"runtime/metrics"
	"strconv"
)

// gcStats are the runtime's cumulative GC counters.
type gcStats struct {
	cycles  uint32
	pauseNs uint64
}

func readGC() gcStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcStats{cycles: m.NumGC, pauseNs: m.PauseTotalNs}
}

// gcLayer reports the GC work done since gc0, over the measured phases.
func (r *run) gcLayer(gc0 gcStats) {
	gc1 := readGC()
	r.layer["go.gc.cycles"] = float64(gc1.cycles - gc0.cycles)
	r.layer["go.gc.pause_ms_total"] = float64(gc1.pauseNs-gc0.pauseNs) / 1e6
}

// heap reports the live heap after a forced GC, with the system still
// up.
func (r *run) heap() {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	r.e2e["heap_live_mb"] = float64(s[0].Value.Uint64()) / 1e6
}

// lateLayer reports how far the open-loop generator ran behind its
// schedule.
func (r *run) lateLayer(open []sample) {
	r.layer["gen.late.ms_p95"] = percentile(lateness(open), 0.95)
}

// overheadLayer compares the median latency of traced and untraced
// operations of the same phase.
func (r *run) overheadLayer(ss []sample) {
	if !r.tracing() {
		return
	}
	t := latencies(ss, func(s sample) bool { return s.traced })
	u := latencies(ss, func(s sample) bool { return !s.traced })
	if len(t) > 0 && len(u) > 0 {
		r.layer["trace.overhead_frac"] = median(t)/median(u) - 1
	}
}

// genLayer reports the generator's failure accounting.
func (r *run) genLayer() {
	r.tl.mu.Lock()
	defer r.tl.mu.Unlock()
	r.layer["gen.attempted"] = float64(r.tl.attempted)
	r.layer["gen.failed"] = float64(r.tl.failed)
	r.layer["gen.wrong_answers"] = float64(r.tl.wrong)
	r.layer["gen.error_rate"] = float64(r.tl.failed) / float64(r.tl.attempted)
}

// request joins the spans of one traced request.
type request struct {
	router, serve *span
	engine        []span
}

// spanLayer derives the per-layer metrics of the recorded spans; n is
// the gallery size the engine spans scanned, for bytes and operations
// computed from n·f.
func spanLayer(m map[string]float64, spans []span, n int) {
	reqs := map[uint64]*request{}
	durs := map[string][]float64{}
	probes := map[string]int{}
	for i := range spans {
		s := &spans[i]
		q := reqs[s.ID]
		if q == nil {
			q = &request{}
			reqs[s.ID] = q
		}
		switch s.Layer {
		case "router":
			q.router = s
		case "serve":
			q.serve = s
		default:
			q.engine = append(q.engine, *s)
			probes[s.Layer] += s.Probes
		}
		durs[s.Layer] = append(durs[s.Layer], s.ms())
	}

	nf := float64(n) * features
	if d := durs["shard.topk"]; len(d) > 0 {
		m["shard.topk.calls"] = float64(len(d))
		m["shard.topk.ms_p50"] = median(d)
		m["shard.topk.ms_p95"] = percentile(d, 0.95)
		m["shard.topk.gbps"] = nf * 8 / (median(d) / 1e3) / 1e9
	}
	if d := durs["shard.queryall"]; len(d) > 0 {
		m["shard.queryall.ms_p50"] = median(d)
		perCall := float64(probes["shard.queryall"]) / float64(len(d))
		m["shard.queryall.gmacs"] = nf * perCall / (median(d) / 1e3) / 1e9
	}
	if calls := len(durs["shard.topk"]) + len(durs["shard.queryall"]); calls > 0 {
		m["shard.probes_per_scan"] = float64(probes["shard.topk"]+probes["shard.queryall"]) / float64(calls)
	}
	m["live.topk.ms_p50"] = median(durs["live.topk"])
	m["live.enroll.ms_p50"] = median(durs["live.enroll"])
	m["live.enroll.ms_p95"] = percentile(durs["live.enroll"], 0.95)
	m["replicate.topk.ms_p50"] = median(durs["replicate.topk"])

	var handler, self, hop []float64
	var serveSum, engineSum float64
	status := map[string]float64{}
	for _, q := range reqs {
		if q.serve == nil {
			continue
		}
		h := q.serve.ms()
		var e float64
		for _, s := range q.engine {
			e += s.ms()
		}
		handler = append(handler, h)
		self = append(self, h-e)
		serveSum += h
		engineSum += e
		status[statusClass(q.serve.Status)]++
		if q.router != nil {
			hop = append(hop, q.router.ms()-h)
		}
	}
	m["serve.handler.ms_p50"] = median(handler)
	m["serve.handler.ms_p95"] = percentile(handler, 0.95)
	m["serve.self.ms_p50"] = median(self)
	if serveSum > 0 {
		m["serve.engine_share"] = engineSum / serveSum
	}
	for k, v := range status {
		m["serve.status."+k] = v
	}
	if len(handler) > 0 {
		m["serve.shed_frac"] = status["503"] / float64(len(handler))
	}
	m["router.hop.ms_p50"] = median(hop)
	m["router.hop.ms_p95"] = percentile(hop, 0.95)
}

func statusClass(code int) string {
	switch {
	case code >= 200 && code < 300:
		return "2xx"
	case code >= 400 && code < 500:
		return "4xx"
	case code == 503 || code == 504:
		return strconv.Itoa(code)
	}
	return "5xx_other"
}

// statsLayer derives the live and replication metrics from the Stats()
// polls, and the engine calls that overlapped a compaction from the
// spans.
func statsLayer(m map[string]float64, samples []statsSample, spans []span) {
	if len(samples) < 2 {
		return
	}
	first, last := samples[0].st, samples[len(samples)-1].st
	m["live.compactions"] = float64(last.Compactions - first.Compactions)
	var compactMS, lag []float64
	var intervals [][2]int64
	var walBytes, walRecs int64
	mem := 0
	for k, s := range samples {
		mem = max(mem, s.st.MemRecords)
		lag = append(lag, float64(max(s.st.Seq-s.repSeq, 0)))
		if k == 0 {
			continue
		}
		prev := samples[k-1]
		if s.st.Compactions > prev.st.Compactions {
			d := s.st.LastCompactDuration
			compactMS = append(compactMS, float64(d)/1e6)
			// The compaction ended between the two polls.
			intervals = append(intervals, [2]int64{prev.at - int64(d), s.at})
		}
		if s.st.Generation == prev.st.Generation && s.st.Seq > prev.st.Seq {
			walBytes += s.st.WALBytes - prev.st.WALBytes
			walRecs += s.st.Seq - prev.st.Seq
		}
	}
	m["live.compact.ms_p50"] = median(compactMS)
	m["live.mem_records.max"] = float64(mem)
	m["replicate.seq_lag.p95"] = percentile(lag, 0.95)
	m["replicate.seq_lag.max"] = percentile(lag, 1)
	if walRecs > 0 {
		m["live.wal_bytes_per_enroll"] = float64(walBytes) / float64(walRecs)
	}
	var during []float64
	for _, s := range spans {
		if s.Layer != "live.topk" {
			continue
		}
		for _, iv := range intervals {
			if s.Start < iv[1] && s.End > iv[0] {
				during = append(during, s.ms())
				break
			}
		}
	}
	m["live.topk.ms_p95_compacting"] = percentile(during, 0.95)
}
