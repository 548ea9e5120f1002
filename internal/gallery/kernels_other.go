//go:build !amd64

package gallery

// Only amd64 has assembly scan kernels; elsewhere DotsF64 and DotsF32
// always run the pure-Go loops.

const useAVX2 = false

func dotsF64SIMD(*Blocked, int, int, []float64, []float64) int { return 0 }

func dotsF32SIMD(*Blocked, int, int, []float32, []float32) int { return 0 }
