package gallery

import (
	"testing"

	"brainprint/internal/linalg"
)

// BenchmarkBlockedKernels pins the raw throughput of the blocked scan
// kernels against the scalar linalg.Dot sweep they replaced, on a
// cache-resident cohort — the numbers future kernel PRs should diff.
// The -go lanes run the pure-Go single-probe loops directly, so the
// ratio to f64x1/f32x1 is the assembly kernels' gain on this host (1×
// where the kernels dispatch to those same loops).
func BenchmarkBlockedKernels(b *testing.B) {
	const features, subjects, probes = 100, 4096, 8
	known := randomGroup(77, features, subjects)
	g := New(features)
	if err := g.EnrollMatrix(subjectIDs(subjects), known); err != nil {
		b.Fatal(err)
	}
	bk := g.Blocked()
	bk.EnsureF32()
	zps := make([][]float64, probes)
	zp32s := make([][]float32, probes)
	for p := range zps {
		zps[p] = g.fingerprint((p * 37) % subjects)
		zp32s[p] = ToF32(zps[p])
	}
	flops := int64(2 * features * subjects)

	b.Run("scalar-dot", func(b *testing.B) {
		b.SetBytes(flops)
		var sink float64
		for i := 0; i < b.N; i++ {
			for s := 0; s < subjects; s++ {
				sink += linalg.Dot(g.fingerprint(s), zps[0])
			}
		}
		_ = sink
	})
	b.Run("f64x1", func(b *testing.B) {
		b.SetBytes(flops)
		out := make([]float64, alignLanes(subjects))
		for i := 0; i < b.N; i++ {
			clear(out)
			bk.DotsF64(0, subjects, zps[0], out)
		}
	})
	b.Run("f64x1-go", func(b *testing.B) {
		b.SetBytes(flops)
		out := make([]float64, alignLanes(subjects))
		for i := 0; i < b.N; i++ {
			clear(out)
			bk.dotsF64Go(0, subjects, zps[0], out)
		}
	})
	b.Run("f64batch", func(b *testing.B) {
		b.SetBytes(4 * flops)
		outs := make([][]float64, 4)
		for p := range outs {
			outs[p] = make([]float64, alignLanes(subjects))
		}
		for i := 0; i < b.N; i++ {
			for p := range outs {
				clear(outs[p])
			}
			bk.DotsF64Batch(0, subjects, zps[:4], outs)
		}
	})
	b.Run("f32x1", func(b *testing.B) {
		b.SetBytes(flops)
		out := make([]float32, alignLanes(subjects))
		for i := 0; i < b.N; i++ {
			clear(out)
			bk.DotsF32(0, subjects, zp32s[0], out)
		}
	})
	b.Run("f32x1-go", func(b *testing.B) {
		b.SetBytes(flops)
		out := make([]float32, alignLanes(subjects))
		for i := 0; i < b.N; i++ {
			clear(out)
			bk.dotsF32Go(0, subjects, zp32s[0], out)
		}
	})
	b.Run("f32batch", func(b *testing.B) {
		b.SetBytes(4 * flops)
		outs := make([][]float32, 4)
		for p := range outs {
			outs[p] = make([]float32, alignLanes(subjects))
		}
		for i := 0; i < b.N; i++ {
			for p := range outs {
				clear(outs[p])
			}
			bk.DotsF32Batch(0, subjects, zp32s[:4], outs)
		}
	})
}
