package gallery

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The dispatched single-probe kernels must agree with the pure-Go loops
// bit for bit: on every shape (feature counts around the tile width,
// record counts and ranges that leave a tail past the last whole
// 16-record group, ranges crossing a scanStripe), on a non-zero
// starting out (the partial sums a previous tile leaves), and on
// special values (signed zeros, infinities, NaN, subnormals, values
// whose products overflow).
//
// Every NaN in the inputs is x86's default NaN, the one an invalid
// operation such as Inf·0 produces, so any NaN result has that one bit
// pattern. With two different NaN operands, x86 propagates the payload
// of the first, and Go leaves operand order to the compiler: it differs
// between lanes of the reference loop and between race-instrumented
// and plain builds. Every other result has one correct bit pattern.

// defaultNaN is the quiet NaN x86 arithmetic returns for an invalid
// operation (sign set, top fraction bit only).
var defaultNaN = math.Float64frombits(0xfff8_0000_0000_0000)

// kernelSpecials are the values the special-value fixtures mix in.
var kernelSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), defaultNaN,
	math.SmallestNonzeroFloat64, -0x1p-1030, math.MaxFloat64, -1e300,
	1e-300, 0x1p-126, 1, -1,
}

// requireAVX2 skips a test on hosts where DotsF64/DotsF32 dispatch to
// the pure-Go loops, since there is no assembly kernel to compare.
func requireAVX2(tb testing.TB) {
	tb.Helper()
	if !useAVX2 {
		tb.Skip("no AVX2 with OS-enabled YMM state on this host: the kernels run the pure-Go loops")
	}
}

// checkKernelsMatchGo runs the dispatched kernels and the pure-Go
// loops over [lo, hi) from the same starting out (which extends past
// the span with sentinels, so a kernel writing beyond it also shows) and
// fails on the first differing bit pattern.
func checkKernelsMatchGo(t *testing.T, bk *Blocked, lo, hi int, zp, init []float64) {
	t.Helper()
	got := append([]float64(nil), init...)
	want := append([]float64(nil), init...)
	bk.DotsF64(lo, hi, zp, got)
	bk.dotsF64Go(lo, hi, zp, want)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("DotsF64(lo=%d, hi=%d) out[%d] = %v (%#x), pure Go %v (%#x)",
				lo, hi, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	bk.EnsureF32()
	zp32, init32 := ToF32(zp), ToF32(init)
	got32 := append([]float32(nil), init32...)
	want32 := append([]float32(nil), init32...)
	bk.DotsF32(lo, hi, zp32, got32)
	bk.dotsF32Go(lo, hi, zp32, want32)
	for i := range want32 {
		if math.Float32bits(got32[i]) != math.Float32bits(want32[i]) {
			t.Fatalf("DotsF32(lo=%d, hi=%d) out[%d] = %v (%#x), pure Go %v (%#x)",
				lo, hi, i, got32[i], math.Float32bits(got32[i]), want32[i], math.Float32bits(want32[i]))
		}
	}
}

// kernelValue draws a fixture value: a standard normal, or with
// special set, one of kernelSpecials a quarter of the time.
func kernelValue(rng *rand.Rand, special bool) float64 {
	if special && rng.Intn(4) == 0 {
		return kernelSpecials[rng.Intn(len(kernelSpecials))]
	}
	return rng.NormFloat64()
}

func TestBlockedKernelsMatchGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(14))
	for _, features := range []int{1, 3, 100, 511, 512, 513, 1100} {
		for _, n := range []int{87, 1063} {
			for _, special := range []bool{false, true} {
				recs := make([][]float64, n)
				for i := range recs {
					recs[i] = make([]float64, features)
					for f := range recs[i] {
						recs[i][f] = kernelValue(rng, special)
					}
				}
				bk := NewBlocked(n, features, func(i int) []float64 { return recs[i] })
				zp := make([]float64, features)
				for f := range zp {
					zp[f] = kernelValue(rng, special)
				}
				// Lane-aligned ranges: whole records, tails of 1–15
				// records past the last 16-record group, starts that are
				// not 16-aligned, single blocks, and (at n = 1063) spans
				// crossing a scanStripe boundary.
				for _, rg := range [][2]int{{0, n}, {4, n}, {8, n - 3}, {20, 83}, {36, 37}, {0, 16}, {12, 44}, {n - n%4, n}} {
					lo, hi := rg[0], rg[1]
					init := make([]float64, alignLanes(hi-lo)+5)
					for i := range init {
						init[i] = kernelValue(rng, special)
					}
					checkKernelsMatchGo(t, bk, lo, hi, zp, init)
				}
			}
		}
	}
}

// FuzzBlockedKernels checks the same property on fuzzer-chosen shapes
// and values: fingerprint, probe and starting out values are read from
// data eight bytes at a time (any NaN word becomes defaultNaN, see the
// note above), cycling when data runs out.
func FuzzBlockedKernels(f *testing.F) {
	words := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint16(100), uint8(37), uint8(1), uint8(30), words(1.5, -2, 0.25, 3))
	f.Add(uint16(513), uint8(21), uint8(0), uint8(20), words(kernelSpecials...))
	f.Add(uint16(0), uint8(0), uint8(0), uint8(0), []byte{})

	f.Fuzz(func(t *testing.T, features uint16, records, loBlock, span uint8, data []byte) {
		requireAVX2(t)
		nf := 1 + int(features)%1100
		n := 1 + int(records)%80
		lo := ScanLanes * (int(loBlock) % ((n + ScanLanes - 1) / ScanLanes))
		hi := min(lo+1+int(span), n)
		vals := make([]float64, 0, len(data)/8)
		for b := data; len(b) >= 8; b = b[8:] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(b))
			if math.IsNaN(v) {
				v = defaultNaN
			}
			vals = append(vals, v)
		}
		if len(vals) == 0 {
			vals = append(vals, 1)
		}
		next := 0
		draw := func() float64 {
			v := vals[next%len(vals)]
			next++
			return v
		}
		recs := make([][]float64, n)
		for i := range recs {
			recs[i] = make([]float64, nf)
			for j := range recs[i] {
				recs[i][j] = draw()
			}
		}
		bk := NewBlocked(n, nf, func(i int) []float64 { return recs[i] })
		zp := make([]float64, nf)
		for j := range zp {
			zp[j] = draw()
		}
		init := make([]float64, alignLanes(hi-lo)+3)
		for i := range init {
			init[i] = draw()
		}
		checkKernelsMatchGo(t, bk, lo, hi, zp, init)
	})
}
