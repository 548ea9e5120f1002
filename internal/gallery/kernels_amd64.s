#include "textflag.h"

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// Both kernels walk len(out)/16 groups of four lane blocks. Within a
// group the blocks sit one stride (len(p)·ScanLanes values) apart: R8
// addresses blocks 0 and 1 as (R8) and (R8)(BX*1), R9 blocks 2 and 3,
// and both advance one feature (ScanLanes values) per iteration while
// R12 walks the probe. Each accumulator register holds one block's four
// records, loaded from and stored back to out. Per feature and lane the
// step is acc = acc + d·p, a multiply then an add, never fused.

// func dotsF64AVX2(d, p, out []float64)
TEXT ·dotsF64AVX2(SB), NOSPLIT, $0-72
	MOVQ d_base+0(FP), SI
	MOVQ p_base+24(FP), DI
	MOVQ p_len+32(FP), DX
	MOVQ out_base+48(FP), R10
	MOVQ out_len+56(FP), R11
	SHRQ $4, R11
	JZ   f64done
	TESTQ DX, DX
	JZ   f64done
	MOVQ DX, BX
	SHLQ $5, BX // block stride: features × 4 lanes × 8 bytes

f64group:
	VMOVUPD 0(R10), Y0
	VMOVUPD 32(R10), Y1
	VMOVUPD 64(R10), Y2
	VMOVUPD 96(R10), Y3
	MOVQ    SI, R8
	LEAQ    (SI)(BX*2), R9
	MOVQ    DI, R12
	MOVQ    DX, CX

f64feature:
	VBROADCASTSD (R12), Y4
	VMOVUPD      (R8), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VMOVUPD      (R8)(BX*1), Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y1, Y1
	VMOVUPD      (R9), Y7
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y2, Y2
	VMOVUPD      (R9)(BX*1), Y8
	VMULPD       Y4, Y8, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $32, R8
	ADDQ         $32, R9
	ADDQ         $8, R12
	DECQ         CX
	JNZ          f64feature

	VMOVUPD Y0, 0(R10)
	VMOVUPD Y1, 32(R10)
	VMOVUPD Y2, 64(R10)
	VMOVUPD Y3, 96(R10)
	ADDQ    $128, R10
	LEAQ    (SI)(BX*4), SI
	DECQ    R11
	JNZ     f64group
	VZEROUPPER

f64done:
	RET

// func dotsF32AVX2(d, p, out []float32)
TEXT ·dotsF32AVX2(SB), NOSPLIT, $0-72
	MOVQ d_base+0(FP), SI
	MOVQ p_base+24(FP), DI
	MOVQ p_len+32(FP), DX
	MOVQ out_base+48(FP), R10
	MOVQ out_len+56(FP), R11
	SHRQ $4, R11
	JZ   f32done
	TESTQ DX, DX
	JZ   f32done
	MOVQ DX, BX
	SHLQ $4, BX // block stride: features × 4 lanes × 4 bytes

f32group:
	VMOVUPS 0(R10), X0
	VMOVUPS 16(R10), X1
	VMOVUPS 32(R10), X2
	VMOVUPS 48(R10), X3
	MOVQ    SI, R8
	LEAQ    (SI)(BX*2), R9
	MOVQ    DI, R12
	MOVQ    DX, CX

f32feature:
	VBROADCASTSS (R12), X4
	VMOVUPS      (R8), X5
	VMULPS       X4, X5, X5
	VADDPS       X5, X0, X0
	VMOVUPS      (R8)(BX*1), X6
	VMULPS       X4, X6, X6
	VADDPS       X6, X1, X1
	VMOVUPS      (R9), X7
	VMULPS       X4, X7, X7
	VADDPS       X7, X2, X2
	VMOVUPS      (R9)(BX*1), X8
	VMULPS       X4, X8, X8
	VADDPS       X8, X3, X3
	ADDQ         $16, R8
	ADDQ         $16, R9
	ADDQ         $4, R12
	DECQ         CX
	JNZ          f32feature

	VMOVUPS X0, 0(R10)
	VMOVUPS X1, 16(R10)
	VMOVUPS X2, 32(R10)
	VMOVUPS X3, 48(R10)
	ADDQ    $64, R10
	LEAQ    (SI)(BX*4), SI
	DECQ    R11
	JNZ     f32group

f32done:
	RET
