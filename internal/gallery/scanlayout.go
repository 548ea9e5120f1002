package gallery

import (
	"fmt"
	"strings"
)

// This file is the scan-optimized fingerprint layout behind every hot
// top-k sweep (sweep.go). The naive layout — one []float64 slice per record —
// makes the inner loop chase a pointer per subject and leaves the
// compiler a single serial dependency chain per dot product. The
// blocked layout stores records lane-interleaved in groups of
// ScanLanes (4) subjects and feature tiles of scanTileF columns:
//
//	tile 0: [block 0: f0·{r0 r1 r2 r3} f1·{r0 r1 r2 r3} …] [block 1: …] …
//	tile 1: [block 0: f512·{r0 r1 r2 r3} …] …
//
// so a scan streams cache lines strictly sequentially within each
// tile and scores four subjects per feature load with one independent
// accumulator chain each. The single-probe kernels (DotsF64, DotsF32)
// dispatch at init: on amd64 hosts with AVX2 and OS-enabled YMM state
// an assembly kernel (kernels_amd64.s) holds one record per vector lane
// and four lane blocks in flight; everywhere else, and for the records
// not covered by a whole four-block group, the pure-Go loops
// (dotsF64Go, dotsF32Go) run. The batched kernels stay pure Go and
// amortize each streamed cache line over two probes. The feature
// tiling bounds the probe-side working set of a pass: even at
// connectome-scale dimensionality the probe tile (4 probes × scanTileF
// × 8 B = 16 KiB) stays L1-resident while the record stream comes from
// RAM exactly once.
//
// Bit-exactness: each record's dot product still accumulates features
// strictly in ascending order — lanes interleave *records*, never the
// summation order within one record — and tile boundaries only park
// the partial sum in a float64 buffer between passes, which cannot
// change its bits. The assembly kernels keep this: each vector lane is
// one record running the scalar chain acc = acc + d·p as a separate
// multiply and add (never a fused multiply-add, which rounds once
// instead of twice). A blocked scan therefore returns scores
// bit-identical to linalg.Dot over the flat layout (the equivalence
// tests pin this at every cohort size, shard count, and parallelism;
// kernels_test.go pins the assembly against the Go loops).

// ScanLanes is the record interleave width of the blocked scan layout:
// kernels score this many subjects per feature load, with one
// independent accumulator chain each. Scan chunk boundaries should be
// multiples of ScanLanes so chunks never split a block.
const ScanLanes = 4

// scanTileF is the feature-tile width of the blocked layout: features
// are split into tiles of this many columns, laid out tile-major, so a
// batched scan's probe tile stays L1-resident regardless of the full
// fingerprint dimensionality.
const scanTileF = 512

// ScanPrecision selects the arithmetic of the gallery scan pass on
// engines that support it (the sharded store). Whatever the scan
// precision, every returned score is exact: the reduced-precision pass
// only selects candidates, which are rescored with the full float64
// expression before anything is returned.
type ScanPrecision uint8

const (
	// ScanFloat64 scans at full precision — every record is scored
	// with the exact float64 expression directly.
	ScanFloat64 ScanPrecision = iota
	// ScanFloat32 scans a float32 copy of the fingerprints (half the
	// memory traffic), selects the leading candidates, and rescores
	// them in exact float64.
	ScanFloat32
)

// String renders the precision as its CLI/API spelling.
func (p ScanPrecision) String() string {
	switch p {
	case ScanFloat64:
		return "float64"
	case ScanFloat32:
		return "float32"
	}
	return fmt.Sprintf("ScanPrecision(%d)", uint8(p))
}

// Check rejects a precision value outside the defined constants, so a
// setter never stores a mode no scan path implements.
func (p ScanPrecision) Check() error {
	if p > ScanFloat32 {
		return fmt.Errorf("gallery: unknown scan precision %v (want float64 or float32)", p)
	}
	return nil
}

// ParseScanPrecision parses a CLI/API precision name ("float64" or
// "float32").
func ParseScanPrecision(s string) (ScanPrecision, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "float64", "f64", "exact", "":
		return ScanFloat64, nil
	case "float32", "f32":
		return ScanFloat32, nil
	}
	return ScanFloat64, fmt.Errorf("gallery: unknown scan precision %q (want float64 or float32)", s)
}

// PrecisionSetter is the optional knob surface of engines with a
// selectable scan precision — today the sharded store. The attacker
// session's WithScanPrecision option and the serve/CLI -scan flags are
// written against it.
type PrecisionSetter interface {
	// SetPrecision selects the scan arithmetic. Not safe to call
	// concurrently with queries.
	SetPrecision(ScanPrecision) error
	// Precision reports the active scan arithmetic.
	Precision() ScanPrecision
}

// Blocked is the scan-optimized view of a set of fingerprints:
// subject-major in blocks of ScanLanes records, feature-tiled, built
// once at load/compaction time from the flat record accessor. The
// float64 image is always present; the float32 image is built on
// demand by EnsureF32 for the reduced-precision scan pass. A Blocked
// is immutable after construction and safe for concurrent scans.
type Blocked struct {
	n        int // records (excluding lane padding)
	features int
	blocks   int // ceil(n/ScanLanes)
	f64      []float64
	f32      []float32 // nil until EnsureF32
}

// tileWidth returns the width of the feature tile starting at column
// tlo.
func (bk *Blocked) tileWidth(tlo int) int {
	w := bk.features - tlo
	if w > scanTileF {
		w = scanTileF
	}
	return w
}

// tileBase returns the offset of feature tile tlo's region in the
// backing array. Tiles are laid out in ascending order, each holding
// blocks×width×ScanLanes values.
func (bk *Blocked) tileBase(tlo int) int {
	return tlo * bk.blocks * ScanLanes
}

// NewBlocked builds the blocked layout over n records of the given
// dimensionality, reading each record once through fp (which must
// return a vector of exactly features values; the vectors are copied,
// never aliased). Lane padding inside the final block is zero-filled,
// so padded lanes score 0 and are skipped by index range alone.
func NewBlocked(n, features int, fp func(i int) []float64) *Blocked {
	blocks := (n + ScanLanes - 1) / ScanLanes
	bk := &Blocked{
		n:        n,
		features: features,
		blocks:   blocks,
		f64:      make([]float64, blocks*ScanLanes*features),
	}
	for i := 0; i < n; i++ {
		v := fp(i)
		b, l := i/ScanLanes, i%ScanLanes
		for tlo := 0; tlo < features; tlo += scanTileF {
			w := bk.tileWidth(tlo)
			base := bk.tileBase(tlo) + b*w*ScanLanes + l
			for j, x := range v[tlo : tlo+w] {
				bk.f64[base+j*ScanLanes] = x
			}
		}
	}
	return bk
}

// EnsureF32 materializes the float32 image of the layout for the
// reduced-precision scan pass. Idempotent; not safe to call
// concurrently with scans that use the float32 kernels (pair it with
// the owning engine's SetPrecision locking discipline).
func (bk *Blocked) EnsureF32() {
	if bk.f32 != nil {
		return
	}
	f32 := make([]float32, len(bk.f64))
	for i, x := range bk.f64 {
		f32[i] = float32(x)
	}
	bk.f32 = f32
}

// HasF32 reports whether the float32 image has been built.
func (bk *Blocked) HasF32() bool { return bk.f32 != nil }

// Len returns the number of records in the layout (padding excluded).
func (bk *Blocked) Len() int { return bk.n }

// alignLanes rounds up to a multiple of ScanLanes.
func alignLanes(n int) int {
	return (n + ScanLanes - 1) / ScanLanes * ScanLanes
}

// DotsF64 accumulates the float64 dot product of every record in
// [lo, hi) against the probe into out[i-lo]: the caller zeroes out
// before the first call, and out must hold at least alignLanes(hi-lo)
// entries. lo must be a multiple of ScanLanes; hi is rounded up
// internally (padded lanes accumulate 0). Per record the features are
// consumed strictly in ascending order across tiles, so out[i-lo]
// finishes bit-identical to linalg.Dot(record i, zp) — on the assembly
// path too, whose vector lanes each run that same scalar chain.
func (bk *Blocked) DotsF64(lo, hi int, zp []float64, out []float64) {
	done := dotsF64SIMD(bk, lo, hi, zp, out)
	if lo+done < hi {
		bk.dotsF64Go(lo+done, hi, zp, out[done:])
	}
}

// dotsF64Go is the pure-Go single-probe kernel: the fallback on hosts
// without the assembly kernel, the tail past its last whole group, and
// the reference the kernel equivalence tests compare it to.
func (bk *Blocked) dotsF64Go(lo, hi int, zp []float64, out []float64) {
	hi = alignLanes(hi)
	for tlo := 0; tlo < bk.features; tlo += scanTileF {
		w := bk.tileWidth(tlo)
		pt := zp[tlo : tlo+w]
		region := bk.f64[bk.tileBase(tlo):]
		for r := lo; r < hi; r += ScanLanes {
			base := (r / ScanLanes) * w * ScanLanes
			d := region[base : base+w*ScanLanes : base+w*ScanLanes]
			o := r - lo
			a0, a1, a2, a3 := out[o], out[o+1], out[o+2], out[o+3]
			j := 0
			for _, p := range pt {
				a0 += d[j] * p
				a1 += d[j+1] * p
				a2 += d[j+2] * p
				a3 += d[j+3] * p
				j += ScanLanes
			}
			out[o] = a0
			out[o+1] = a1
			out[o+2] = a2
			out[o+3] = a3
		}
	}
}

// DotF32 is the reduced-precision single-record accessor: the float32
// dot product of record i against a float32 probe. EnsureF32 must
// have been called. Like DotsF32, results are approximate — callers
// use them only to select rescore candidates.
func (bk *Blocked) DotF32(i int, zp []float32) float32 {
	b, l := i/ScanLanes, i%ScanLanes
	var acc float32
	for tlo := 0; tlo < bk.features; tlo += scanTileF {
		w := bk.tileWidth(tlo)
		base := bk.tileBase(tlo) + b*w*ScanLanes + l
		d := bk.f32[base : base+(w-1)*ScanLanes+1]
		j := 0
		for _, p := range zp[tlo : tlo+w] {
			acc += d[j] * p
			j += ScanLanes
		}
	}
	return acc
}

// DotsF64Batch is DotsF64 over a batch of probes: outs[p][i-lo]
// accumulates record i's dot product against zps[p]. Probes are
// processed in pairs, so each streamed record block is scored against
// two probes before the next block loads — halving the batched scan's
// memory traffic versus per-probe passes. Pairs (not quads): 8
// accumulators plus the lane loads and probe values fit the 16
// floating-point registers of amd64; a wider tile spills and scans
// slower. Caller zeroes outs; alignment rules match DotsF64. Scores
// are bit-identical to per-probe DotsF64 calls.
func (bk *Blocked) DotsF64Batch(lo, hi int, zps [][]float64, outs [][]float64) {
	p := 0
	for ; p+2 <= len(zps); p += 2 {
		bk.dotsF64x2(lo, hi, zps[p], zps[p+1], outs[p], outs[p+1])
	}
	if p < len(zps) {
		bk.DotsF64(lo, hi, zps[p], outs[p])
	}
}

// dotsF64x2 is the 2-probe × 4-lane kernel: eight independent
// accumulator chains per block, each feature load amortized over two
// probes.
func (bk *Blocked) dotsF64x2(lo, hi int, zp0, zp1 []float64, o0, o1 []float64) {
	hi = alignLanes(hi)
	for tlo := 0; tlo < bk.features; tlo += scanTileF {
		w := bk.tileWidth(tlo)
		t0 := zp0[tlo : tlo+w : tlo+w]
		t1 := zp1[tlo : tlo+w : tlo+w]
		region := bk.f64[bk.tileBase(tlo):]
		for r := lo; r < hi; r += ScanLanes {
			base := (r / ScanLanes) * w * ScanLanes
			d := region[base : base+w*ScanLanes : base+w*ScanLanes]
			o := r - lo
			a00, a10, a20, a30 := o0[o], o0[o+1], o0[o+2], o0[o+3]
			a01, a11, a21, a31 := o1[o], o1[o+1], o1[o+2], o1[o+3]
			j := 0
			for f := 0; f < w; f++ {
				v0, v1, v2, v3 := d[j], d[j+1], d[j+2], d[j+3]
				p0 := t0[f]
				a00 += v0 * p0
				a10 += v1 * p0
				a20 += v2 * p0
				a30 += v3 * p0
				p1 := t1[f]
				a01 += v0 * p1
				a11 += v1 * p1
				a21 += v2 * p1
				a31 += v3 * p1
				j += ScanLanes
			}
			o0[o] = a00
			o0[o+1] = a10
			o0[o+2] = a20
			o0[o+3] = a30
			o1[o] = a01
			o1[o+1] = a11
			o1[o+2] = a21
			o1[o+3] = a31
		}
	}
}

// DotsF32 is the reduced-precision single-probe kernel: it accumulates
// float32 dot products of [lo, hi) against a float32 probe into out.
// Same alignment and zeroing rules as DotsF64. EnsureF32 must have
// been called. The results are approximate — callers use them only to
// select rescore candidates, never as returned scores. The assembly
// and pure-Go paths still agree bit for bit.
func (bk *Blocked) DotsF32(lo, hi int, zp []float32, out []float32) {
	done := dotsF32SIMD(bk, lo, hi, zp, out)
	if lo+done < hi {
		bk.dotsF32Go(lo+done, hi, zp, out[done:])
	}
}

// dotsF32Go is the pure-Go float32 single-probe kernel, in the roles
// dotsF64Go plays for DotsF64.
func (bk *Blocked) dotsF32Go(lo, hi int, zp []float32, out []float32) {
	hi = alignLanes(hi)
	for tlo := 0; tlo < bk.features; tlo += scanTileF {
		w := bk.tileWidth(tlo)
		pt := zp[tlo : tlo+w]
		region := bk.f32[bk.tileBase(tlo):]
		for r := lo; r < hi; r += ScanLanes {
			base := (r / ScanLanes) * w * ScanLanes
			d := region[base : base+w*ScanLanes : base+w*ScanLanes]
			o := r - lo
			a0, a1, a2, a3 := out[o], out[o+1], out[o+2], out[o+3]
			j := 0
			for _, p := range pt {
				a0 += d[j] * p
				a1 += d[j+1] * p
				a2 += d[j+2] * p
				a3 += d[j+3] * p
				j += ScanLanes
			}
			out[o] = a0
			out[o+1] = a1
			out[o+2] = a2
			out[o+3] = a3
		}
	}
}

// DotsF32Batch is DotsF32 over a batch of probes, tiled two probes per
// pass like DotsF64Batch (same register-budget reasoning).
func (bk *Blocked) DotsF32Batch(lo, hi int, zps [][]float32, outs [][]float32) {
	p := 0
	for ; p+2 <= len(zps); p += 2 {
		bk.dotsF32x2(lo, hi, zps[p], zps[p+1], outs[p], outs[p+1])
	}
	if p < len(zps) {
		bk.DotsF32(lo, hi, zps[p], outs[p])
	}
}

// dotsF32x2 is the float32 2-probe × 4-lane kernel.
func (bk *Blocked) dotsF32x2(lo, hi int, zp0, zp1 []float32, o0, o1 []float32) {
	hi = alignLanes(hi)
	for tlo := 0; tlo < bk.features; tlo += scanTileF {
		w := bk.tileWidth(tlo)
		t0 := zp0[tlo : tlo+w : tlo+w]
		t1 := zp1[tlo : tlo+w : tlo+w]
		region := bk.f32[bk.tileBase(tlo):]
		for r := lo; r < hi; r += ScanLanes {
			base := (r / ScanLanes) * w * ScanLanes
			d := region[base : base+w*ScanLanes : base+w*ScanLanes]
			o := r - lo
			a00, a10, a20, a30 := o0[o], o0[o+1], o0[o+2], o0[o+3]
			a01, a11, a21, a31 := o1[o], o1[o+1], o1[o+2], o1[o+3]
			j := 0
			for f := 0; f < w; f++ {
				v0, v1, v2, v3 := d[j], d[j+1], d[j+2], d[j+3]
				p0 := t0[f]
				a00 += v0 * p0
				a10 += v1 * p0
				a20 += v2 * p0
				a30 += v3 * p0
				p1 := t1[f]
				a01 += v0 * p1
				a11 += v1 * p1
				a21 += v2 * p1
				a31 += v3 * p1
				j += ScanLanes
			}
			o0[o] = a00
			o0[o+1] = a10
			o0[o+2] = a20
			o0[o+3] = a30
			o1[o] = a01
			o1[o+1] = a11
			o1[o+2] = a21
			o1[o+3] = a31
		}
	}
}

// ToF32 converts a z-scored probe to the float32 image the reduced-
// precision kernels consume.
func ToF32(zp []float64) []float32 {
	out := make([]float32, len(zp))
	for i, x := range zp {
		out[i] = float32(x)
	}
	return out
}
