package gallery

// useAVX2 selects the assembly single-probe kernels. It is fixed at
// init from CPUID: the CPU must support AVX and AVX2, and the OS must
// save YMM state across context switches (OSXSAVE set and XCR0 enabling
// both the SSE and AVX state components).
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const avx, osxsave = 1 << 28, 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&avx == 0 || ecx&osxsave == 0 {
		return false
	}
	const xcr0SSE, xcr0AVX = 1 << 1, 1 << 2
	if xcr0, _ := xgetbv(); xcr0&(xcr0SSE|xcr0AVX) != xcr0SSE|xcr0AVX {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// cpuid executes CPUID for the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register XCR0. Only valid when CPUID
// reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// dotsF64AVX2 accumulates len(out)/16 groups of four lane blocks of one
// feature tile against the probe tile p: d holds exactly those blocks
// (len(p)·ScanLanes values each, back to back), and each vector lane
// computes out[i] = out[i] + d·p feature by feature, in ascending
// order — VMULPD then VADDPD, never a fused multiply-add — so results
// are bit-identical to dotsF64Go.
//
//go:noescape
func dotsF64AVX2(d, p, out []float64)

// dotsF32AVX2 is dotsF64AVX2 over the float32 image (VMULPS, VADDPS).
//
//go:noescape
func dotsF32AVX2(d, p, out []float32)

// simdGroup is the record width of one assembly kernel iteration: four
// lane blocks in flight per feature.
const simdGroup = 4 * ScanLanes

// dotsF64SIMD and dotsF32SIMD run the assembly kernel over as much of
// [lo, hi) as it covers and return that record count: 0 without AVX2.
func dotsF64SIMD(bk *Blocked, lo, hi int, zp, out []float64) int {
	if !useAVX2 {
		return 0
	}
	return dotsGroups(bk, bk.f64, lo, hi, zp, out, dotsF64AVX2)
}

func dotsF32SIMD(bk *Blocked, lo, hi int, zp, out []float32) int {
	if !useAVX2 {
		return 0
	}
	return dotsGroups(bk, bk.f32, lo, hi, zp, out, dotsF32AVX2)
}

// dotsGroups runs kernel over the whole simdGroup-record groups of
// [lo, hi) (hi rounded up to the lane width) and returns how many
// records from lo it covered; the caller finishes the rest with the Go
// loop. It keeps the tile loop of the Go kernels: per tile, each kernel
// call covers at most scanStripe records and gets the image, probe and
// out slices cut to exactly the span it touches, so a bad range panics
// here rather than reading out of bounds in assembly.
func dotsGroups[T float32 | float64](bk *Blocked, img []T, lo, hi int, zp, out []T, kernel func(d, p, out []T)) int {
	n := (alignLanes(hi) - lo) / simdGroup * simdGroup
	if n <= 0 {
		return 0
	}
	for tlo := 0; tlo < bk.features; tlo += scanTileF {
		w := bk.tileWidth(tlo)
		pt := zp[tlo : tlo+w : tlo+w]
		region := img[bk.tileBase(tlo):]
		for r := lo; r < lo+n; r += scanStripe {
			rh := min(r+scanStripe, lo+n)
			d0, d1 := r/ScanLanes*w*ScanLanes, rh/ScanLanes*w*ScanLanes
			kernel(region[d0:d1:d1], pt, out[r-lo:rh-lo:rh-lo])
		}
	}
	return n
}
