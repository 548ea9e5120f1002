// Command perfbench is brainprint's end-to-end and per-layer
// benchmark. It builds the system in-process on loopback listeners
// from synthetic inputs derived from a seed, drives one workload
// against it for a fixed time, checks every answer, and prints its
// metrics as one JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload identify-100k --seed 1 --seconds 30 --trace 0
//
// With --trace 1 the same workload runs with spans recorded around
// each layer's public entry points, and the per-layer metrics are
// printed instead. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// scratchDir holds the benchmark's build and temporary files, relative
// to the checkout it runs in.
const scratchDir = ".bench_build"

var workloads = map[string]struct {
	run func(*run) error
	n   int // base gallery size
}{
	"identify-100k":  {(*run).identify100k, galleryN},
	"batch-100k":     {(*run).batch100k, galleryN},
	"live-mixed-10k": {(*run).liveMixed10k, liveN},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := benchmark(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchmark(workload string, seed int64, seconds float64, trace bool) error {
	w, ok := workloads[workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %v)", workload, names)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	conns := runtime.NumCPU()
	r := &run{
		seed:    seed,
		seconds: seconds,
		conns:   conns,
		root:    scratchDir,
		cl:      newClient(conns),
		tl:      newTally(),
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
	}
	defer r.cl.close()
	if trace {
		r.tr = newTracer()
	}
	if err := w.run(r); err != nil {
		return err
	}

	defs, values := endToEnd, r.e2e
	r.e2e["success_rate"] = 1 - float64(r.tl.failed)/float64(r.tl.attempted)
	r.note("metric error_rate %.6f fraction (%s)", float64(r.tl.failed)/float64(r.tl.attempted), r.tl)
	if trace {
		spans := r.tr.snapshot()
		spanLayer(r.layer, spans, w.n)
		r.genLayer()
		if err := calibrate(r.layer, seed, w.n); err != nil {
			return err
		}
		path := filepath.Join(scratchDir, "spans-"+workload+".jsonl")
		if err := writeSpans(path, spans); err != nil {
			return err
		}
		r.note("trace: %d spans written to %s", len(spans), path)
		defs, values = perLayer, r.layer
	}

	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	for _, p := range r.problems {
		fmt.Println("# FAILED:", p)
	}
	res := result{
		Correct:   r.tl.failed == 0 && len(r.problems) == 0,
		Attempted: r.tl.attempted,
		Failed:    r.tl.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat32 // a failed operation's latency; the run is marked incorrect
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
