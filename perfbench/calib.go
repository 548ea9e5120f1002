package main

import (
	"time"

	"brainprint/internal/gallery"
)

const (
	copyElems = 10_000_000 // 80 MB each way, larger than the last-level cache
	calibReps = 5
)

// calibrate measures, single-threaded, the runner's STREAM-style copy
// roofline and the blocked scan kernels over the workload's own base
// gallery (Gallery.Blocked). Bytes and multiply-adds are computed from
// n·f, not counted by hardware.
func calibrate(m map[string]float64, seed int64, n int) error {
	src := make([]float64, copyElems)
	dst := make([]float64, copyElems)
	for i := range src {
		src[i] = float64(i)
	}
	copyS := medianTime(func() {}, func() { copy(dst, src) })
	m["gallery.copy_gbps"] = 2 * 8 * copyElems / copyS / 1e9 // read + write, as STREAM counts
	src, dst = nil, nil

	g, err := buildGallery(subjectInputs(seed, n))
	if err != nil {
		return err
	}
	bk := g.Blocked()
	padded := (n + gallery.ScanLanes - 1) / gallery.ScanLanes * gallery.ScanLanes
	zp := g.Fingerprint(0)
	out := make([]float64, padded)
	dotsS := medianTime(func() { clear(out) }, func() { bk.DotsF64(0, n, zp, out) })
	nf := float64(n) * features
	m["gallery.dots_f64_gbps"] = nf * 8 / dotsS / 1e9
	m["gallery.dots_f64_ns_per_sf"] = dotsS * 1e9 / nf

	zps := make([][]float64, batchSize)
	outs := make([][]float64, batchSize)
	for p := range zps {
		zps[p] = g.Fingerprint(p % n)
		outs[p] = make([]float64, padded)
	}
	batchS := medianTime(func() {
		for _, o := range outs {
			clear(o)
		}
	}, func() { bk.DotsF64Batch(0, n, zps, outs) })
	m["gallery.dots_f64_batch_gmacs"] = nf * batchSize / batchS / 1e9
	return nil
}

// medianTime runs reset then f calibReps times and returns the median
// wall time of f in seconds.
func medianTime(reset, f func()) float64 {
	ts := make([]float64, calibReps)
	for i := range ts {
		reset()
		start := time.Now()
		f()
		ts[i] = time.Since(start).Seconds()
	}
	return median(ts)
}
