// AVX micro-kernels for the blocked GEMM in gemm.go.
//
// Determinism contract: every output element receives exactly the same
// sequence of IEEE-754 operations as the scalar Go loops — a quad's
// multiplies (all four, or the one to three live ones gemmVec keeps)
// reduced left to right, then one add into the destination. The kernels therefore use separate VMULPD/VADDPD and
// never FMA (which rounds once instead of twice), and vector lanes map
// to adjacent output elements, so vector width does not change any
// element's arithmetic. Results are bit-identical to the scalar path.

#include "textflag.h"

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	CPUID
	// Need OSXSAVE (ECX bit 27) and AVX (ECX bit 28).
	MOVL CX, AX
	ANDL $(1<<27 | 1<<28), AX
	CMPL AX, $(1<<27 | 1<<28)
	JNE  noavx
	// XCR0 bits 1 and 2: OS preserves XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET
noavx:
	MOVB $0, ret+0(FP)
	RET

// func pairQuadAVX(d0, d1, b0, b1, b2, b3 *float64, n int, a *[8]float64)
//
// d0[z] += a[0]*b0[z] + a[1]*b1[z] + a[2]*b2[z] + a[3]*b3[z]
// d1[z] += a[4]*b0[z] + a[5]*b1[z] + a[6]*b2[z] + a[7]*b3[z]
TEXT ·pairQuadAVX(SB), NOSPLIT, $0-64
	MOVQ d0+0(FP), DI
	MOVQ d1+8(FP), SI
	MOVQ b0+16(FP), R8
	MOVQ b1+24(FP), R9
	MOVQ b2+32(FP), R10
	MOVQ b3+40(FP), R11
	MOVQ n+48(FP), CX
	MOVQ a+56(FP), DX

	VBROADCASTSD 0(DX), Y0  // a00
	VBROADCASTSD 8(DX), Y1  // a01
	VBROADCASTSD 16(DX), Y2 // a02
	VBROADCASTSD 24(DX), Y3 // a03
	VBROADCASTSD 32(DX), Y4 // a10
	VBROADCASTSD 40(DX), Y5 // a11
	VBROADCASTSD 48(DX), Y6 // a12
	VBROADCASTSD 56(DX), Y7 // a13

	XORQ R12, R12
	MOVQ CX, R13
	SUBQ $3, R13 // vector step valid while R12 < n-3
	JLE  ptail

pvec:
	CMPQ R12, R13
	JGE  ptail
	VMOVUPD (R8)(R12*8), Y8
	VMOVUPD (R9)(R12*8), Y9
	VMOVUPD (R10)(R12*8), Y10
	VMOVUPD (R11)(R12*8), Y11

	// Row 0: ((a00*b0 + a01*b1) + a02*b2) + a03*b3, then d0 += sum.
	VMULPD  Y8, Y0, Y12
	VMULPD  Y9, Y1, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y10, Y2, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y11, Y3, Y13
	VADDPD  Y13, Y12, Y12
	VMOVUPD (DI)(R12*8), Y14
	VADDPD  Y12, Y14, Y14
	VMOVUPD Y14, (DI)(R12*8)

	// Row 1.
	VMULPD  Y8, Y4, Y12
	VMULPD  Y9, Y5, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y10, Y6, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y11, Y7, Y13
	VADDPD  Y13, Y12, Y12
	VMOVUPD (SI)(R12*8), Y14
	VADDPD  Y12, Y14, Y14
	VMOVUPD Y14, (SI)(R12*8)

	ADDQ $4, R12
	JMP  pvec

ptail:
	CMPQ R12, CX
	JGE  pdone
	VMOVSD (R8)(R12*8), X8
	VMOVSD (R9)(R12*8), X9
	VMOVSD (R10)(R12*8), X10
	VMOVSD (R11)(R12*8), X11

	VMULSD X8, X0, X12
	VMULSD X9, X1, X13
	VADDSD X13, X12, X12
	VMULSD X10, X2, X13
	VADDSD X13, X12, X12
	VMULSD X11, X3, X13
	VADDSD X13, X12, X12
	VMOVSD (DI)(R12*8), X14
	VADDSD X12, X14, X14
	VMOVSD X14, (DI)(R12*8)

	VMULSD X8, X4, X12
	VMULSD X9, X5, X13
	VADDSD X13, X12, X12
	VMULSD X10, X6, X13
	VADDSD X13, X12, X12
	VMULSD X11, X7, X13
	VADDSD X13, X12, X12
	VMOVSD (SI)(R12*8), X14
	VADDSD X12, X14, X14
	VMOVSD X14, (SI)(R12*8)

	INCQ R12
	JMP  ptail

pdone:
	VZEROUPPER
	RET

// func rowQuadAVX(d, b0, b1, b2, b3 *float64, n int, a *[4]float64)
//
// d[z] += a[0]*b0[z] + a[1]*b1[z] + a[2]*b2[z] + a[3]*b3[z]
TEXT ·rowQuadAVX(SB), NOSPLIT, $0-56
	MOVQ d+0(FP), DI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ n+40(FP), CX
	MOVQ a+48(FP), DX

	VBROADCASTSD 0(DX), Y0
	VBROADCASTSD 8(DX), Y1
	VBROADCASTSD 16(DX), Y2
	VBROADCASTSD 24(DX), Y3

	XORQ R12, R12
	MOVQ CX, R13
	SUBQ $3, R13
	JLE  rtail

rvec:
	CMPQ R12, R13
	JGE  rtail
	VMOVUPD (R8)(R12*8), Y8
	VMOVUPD (R9)(R12*8), Y9
	VMOVUPD (R10)(R12*8), Y10
	VMOVUPD (R11)(R12*8), Y11

	VMULPD  Y8, Y0, Y12
	VMULPD  Y9, Y1, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y10, Y2, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y11, Y3, Y13
	VADDPD  Y13, Y12, Y12
	VMOVUPD (DI)(R12*8), Y14
	VADDPD  Y12, Y14, Y14
	VMOVUPD Y14, (DI)(R12*8)

	ADDQ $4, R12
	JMP  rvec

rtail:
	CMPQ R12, CX
	JGE  rdone
	VMOVSD (R8)(R12*8), X8
	VMOVSD (R9)(R12*8), X9
	VMOVSD (R10)(R12*8), X10
	VMOVSD (R11)(R12*8), X11

	VMULSD X8, X0, X12
	VMULSD X9, X1, X13
	VADDSD X13, X12, X12
	VMULSD X10, X2, X13
	VADDSD X13, X12, X12
	VMULSD X11, X3, X13
	VADDSD X13, X12, X12
	VMOVSD (DI)(R12*8), X14
	VADDSD X12, X14, X14
	VMOVSD X14, (DI)(R12*8)

	INCQ R12
	JMP  rtail

rdone:
	VZEROUPPER
	RET

// func rowTerm3AVX(d, b0, b1, b2 *float64, n int, a *[4]float64)
//
// d[z] += a[0]*b0[z] + a[1]*b1[z] + a[2]*b2[z]: rowQuadAVX with its
// last term dropped, for a quad with one zero coefficient.
TEXT ·rowTerm3AVX(SB), NOSPLIT, $0-48
	MOVQ d+0(FP), DI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ n+32(FP), CX
	MOVQ a+40(FP), DX

	VBROADCASTSD 0(DX), Y0
	VBROADCASTSD 8(DX), Y1
	VBROADCASTSD 16(DX), Y2

	XORQ R12, R12
	MOVQ CX, R13
	SUBQ $3, R13
	JLE  r3tail

r3vec:
	CMPQ R12, R13
	JGE  r3tail
	VMOVUPD (R8)(R12*8), Y8
	VMOVUPD (R9)(R12*8), Y9
	VMOVUPD (R10)(R12*8), Y10

	VMULPD  Y8, Y0, Y12
	VMULPD  Y9, Y1, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y10, Y2, Y13
	VADDPD  Y13, Y12, Y12
	VMOVUPD (DI)(R12*8), Y14
	VADDPD  Y12, Y14, Y14
	VMOVUPD Y14, (DI)(R12*8)

	ADDQ $4, R12
	JMP  r3vec

r3tail:
	CMPQ R12, CX
	JGE  r3done
	VMOVSD (R8)(R12*8), X8
	VMOVSD (R9)(R12*8), X9
	VMOVSD (R10)(R12*8), X10

	VMULSD X8, X0, X12
	VMULSD X9, X1, X13
	VADDSD X13, X12, X12
	VMULSD X10, X2, X13
	VADDSD X13, X12, X12
	VMOVSD (DI)(R12*8), X14
	VADDSD X12, X14, X14
	VMOVSD X14, (DI)(R12*8)

	INCQ R12
	JMP  r3tail

r3done:
	VZEROUPPER
	RET

// func rowTerm2AVX(d, b0, b1 *float64, n int, a *[4]float64)
//
// d[z] += a[0]*b0[z] + a[1]*b1[z]
TEXT ·rowTerm2AVX(SB), NOSPLIT, $0-40
	MOVQ d+0(FP), DI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ n+24(FP), CX
	MOVQ a+32(FP), DX

	VBROADCASTSD 0(DX), Y0
	VBROADCASTSD 8(DX), Y1

	XORQ R12, R12
	MOVQ CX, R13
	SUBQ $3, R13
	JLE  r2tail

r2vec:
	CMPQ R12, R13
	JGE  r2tail
	VMOVUPD (R8)(R12*8), Y8
	VMOVUPD (R9)(R12*8), Y9

	VMULPD  Y8, Y0, Y12
	VMULPD  Y9, Y1, Y13
	VADDPD  Y13, Y12, Y12
	VMOVUPD (DI)(R12*8), Y14
	VADDPD  Y12, Y14, Y14
	VMOVUPD Y14, (DI)(R12*8)

	ADDQ $4, R12
	JMP  r2vec

r2tail:
	CMPQ R12, CX
	JGE  r2done
	VMOVSD (R8)(R12*8), X8
	VMOVSD (R9)(R12*8), X9

	VMULSD X8, X0, X12
	VMULSD X9, X1, X13
	VADDSD X13, X12, X12
	VMOVSD (DI)(R12*8), X14
	VADDSD X12, X14, X14
	VMOVSD X14, (DI)(R12*8)

	INCQ R12
	JMP  r2tail

r2done:
	VZEROUPPER
	RET

// func rowTerm1AVX(d, b0 *float64, n int, a *[4]float64)
//
// d[z] += a[0]*b0[z]: one multiply and one add per element, which is
// also the scalar single-term update of the k%4 remainder.
TEXT ·rowTerm1AVX(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ b0+8(FP), R8
	MOVQ n+16(FP), CX
	MOVQ a+24(FP), DX

	VBROADCASTSD 0(DX), Y0

	XORQ R12, R12
	MOVQ CX, R13
	SUBQ $3, R13
	JLE  r1tail

r1vec:
	CMPQ R12, R13
	JGE  r1tail
	VMOVUPD (R8)(R12*8), Y8

	VMULPD  Y8, Y0, Y12
	VMOVUPD (DI)(R12*8), Y14
	VADDPD  Y12, Y14, Y14
	VMOVUPD Y14, (DI)(R12*8)

	ADDQ $4, R12
	JMP  r1vec

r1tail:
	CMPQ R12, CX
	JGE  r1done
	VMOVSD (R8)(R12*8), X8

	VMULSD X8, X0, X12
	VMOVSD (DI)(R12*8), X14
	VADDSD X12, X14, X14
	VMOVSD X14, (DI)(R12*8)

	INCQ R12
	JMP  r1tail

r1done:
	VZEROUPPER
	RET

// func panelTile8AVX(d *float64, ldd int, a *float64, lda int, b *float64, ldb int, rows, k int, bias *float64, relu int)
//
// Fully fused narrow-panel kernel for one 8-wide column tile: for each
// of rows destination rows (stride ldd), the tile d[0:8] is seeded from
// bias (zero when bias is nil), accumulates every k term — quads with
// the all-four-zero skip, then the k%4 singles with the scalar zero
// skip — and is clamped by ReLU before the single store when relu != 0.
// The tile lives in Y12/Y13 for the whole row, so there is no separate
// seed pass, no scalar remainder pass, and no epilogue pass over
// memory.
//
// Bit-identity: element (i, j) starts from the same bias seed and
// accumulates the same quad-grouped terms in the same ascending-k order
// with the same skip predicates as the scalar loops (quads: VCMPPD
// equality, so -0 skips and NaN does not; singles: VCMPSD equality),
// each quad reduced left to right by VMULPD/VADDPD before one add into
// the tile, each single as one multiply and one add. The ReLU is
// MAXPD(+0, v), which returns v for v = -0 and v = NaN exactly like the
// scalar "if v < 0" clamp.
TEXT ·panelTile8AVX(SB), NOSPLIT, $0-80
	MOVQ d+0(FP), DI
	MOVQ ldd+8(FP), DX
	MOVQ a+16(FP), R14
	MOVQ lda+24(FP), R13
	MOVQ b+32(FP), BX
	MOVQ ldb+40(FP), R9
	MOVQ rows+48(FP), R15
	MOVQ k+56(FP), R11

	SHLQ   $3, DX          // ldd in bytes
	SHLQ   $3, R13         // lda in bytes
	SHLQ   $3, R9          // ldb in bytes
	LEAQ   (R9)(R9*2), R10 // 3*ldb in bytes
	VXORPD Y0, Y0, Y0      // zero: skip compares and the ReLU clamp

	MOVQ R11, R12
	ANDQ $3, R12 // singles count k%4
	SHRQ $2, R11 // quad count k/4

	// Bias seed, loaded once and reused for every row.
	MOVQ   bias+64(FP), AX
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	TESTQ  AX, AX
	JZ     t8seeded
	VMOVUPD (AX), Y14
	VMOVUPD 32(AX), Y15

t8seeded:
	TESTQ R15, R15
	JZ    t8done

t8row:
	VMOVAPD Y14, Y12
	VMOVAPD Y15, Y13
	MOVQ    R14, SI // a cursor for this row
	MOVQ    BX, R8  // b cursor (rows 4q..4q+3)
	MOVQ    R11, CX
	TESTQ   CX, CX
	JZ      t8single

t8quad:
	// Skip when a[4q..4q+3] are all zero (IEEE compare: -0 skips,
	// NaN does not), like the scalar loops.
	VMOVUPD   (SI), Y1
	VCMPPD    $0, Y0, Y1, Y1
	VMOVMSKPD Y1, AX
	CMPL      AX, $0xF
	JE        t8skip

	VBROADCASTSD 0(SI), Y2
	VBROADCASTSD 8(SI), Y3
	VBROADCASTSD 16(SI), Y4
	VBROADCASTSD 24(SI), Y5

	// sum = ((a0*b0 + a1*b1) + a2*b2) + a3*b3, lanes = adjacent cols.
	VMOVUPD (R8), Y6
	VMOVUPD 32(R8), Y7
	VMULPD  Y6, Y2, Y8
	VMULPD  Y7, Y2, Y9
	VMOVUPD (R8)(R9*1), Y6
	VMOVUPD 32(R8)(R9*1), Y7
	VMULPD  Y6, Y3, Y10
	VADDPD  Y10, Y8, Y8
	VMULPD  Y7, Y3, Y10
	VADDPD  Y10, Y9, Y9
	VMOVUPD (R8)(R9*2), Y6
	VMOVUPD 32(R8)(R9*2), Y7
	VMULPD  Y6, Y4, Y10
	VADDPD  Y10, Y8, Y8
	VMULPD  Y7, Y4, Y10
	VADDPD  Y10, Y9, Y9
	VMOVUPD (R8)(R10*1), Y6
	VMOVUPD 32(R8)(R10*1), Y7
	VMULPD  Y6, Y5, Y10
	VADDPD  Y10, Y8, Y8
	VMULPD  Y7, Y5, Y10
	VADDPD  Y10, Y9, Y9

	VADDPD Y8, Y12, Y12
	VADDPD Y9, Y13, Y13

t8skip:
	ADDQ $32, SI
	LEAQ (R8)(R9*4), R8
	DECQ CX
	JNZ  t8quad

t8single:
	MOVQ  R12, CX
	TESTQ CX, CX
	JZ    t8epi

t8single1:
	// Scalar zero skip: VCMPSD equality, so -0 skips and NaN does not,
	// exactly like the Go "if av == 0 { continue }".
	VMOVSD (SI), X1
	VCMPSD $0, X0, X1, X2
	VMOVQ  X2, AX
	TESTQ  AX, AX
	JNZ    t8sskip

	VBROADCASTSD (SI), Y2
	VMOVUPD      (R8), Y6
	VMOVUPD      32(R8), Y7
	VMULPD       Y6, Y2, Y8
	VMULPD       Y7, Y2, Y9
	VADDPD       Y8, Y12, Y12
	VADDPD       Y9, Y13, Y13

t8sskip:
	ADDQ $8, SI
	ADDQ R9, R8
	DECQ CX
	JNZ  t8single1

t8epi:
	MOVQ  relu+72(FP), AX
	TESTQ AX, AX
	JZ    t8store
	// max(+0, v): v = -0 and v = NaN come through unchanged, like the
	// scalar "if v < 0" clamp.
	VMAXPD Y12, Y0, Y12
	VMAXPD Y13, Y0, Y13

t8store:
	VMOVUPD Y12, (DI)
	VMOVUPD Y13, 32(DI)
	ADDQ    DX, DI
	ADDQ    R13, R14
	DECQ    R15
	JNZ     t8row

t8done:
	VZEROUPPER
	RET

// func panelTile4AVX(d *float64, ldd int, a *float64, lda int, b *float64, ldb int, rows, k int, bias *float64, relu int)
//
// The 4-wide form of panelTile8AVX, for destination widths 4..7 (and
// the 4-column tail of wider narrow products). Same fusion, same
// bit-identity argument, one YMM tile instead of two.
TEXT ·panelTile4AVX(SB), NOSPLIT, $0-80
	MOVQ d+0(FP), DI
	MOVQ ldd+8(FP), DX
	MOVQ a+16(FP), R14
	MOVQ lda+24(FP), R13
	MOVQ b+32(FP), BX
	MOVQ ldb+40(FP), R9
	MOVQ rows+48(FP), R15
	MOVQ k+56(FP), R11

	SHLQ   $3, DX
	SHLQ   $3, R13
	SHLQ   $3, R9
	LEAQ   (R9)(R9*2), R10
	VXORPD Y0, Y0, Y0

	MOVQ R11, R12
	ANDQ $3, R12
	SHRQ $2, R11

	MOVQ   bias+64(FP), AX
	VXORPD Y14, Y14, Y14
	TESTQ  AX, AX
	JZ     t4seeded
	VMOVUPD (AX), Y14

t4seeded:
	TESTQ R15, R15
	JZ    t4done

t4row:
	VMOVAPD Y14, Y12
	MOVQ    R14, SI
	MOVQ    BX, R8
	MOVQ    R11, CX
	TESTQ   CX, CX
	JZ      t4single

t4quad:
	VMOVUPD   (SI), Y1
	VCMPPD    $0, Y0, Y1, Y1
	VMOVMSKPD Y1, AX
	CMPL      AX, $0xF
	JE        t4skip

	VBROADCASTSD 0(SI), Y2
	VBROADCASTSD 8(SI), Y3
	VBROADCASTSD 16(SI), Y4
	VBROADCASTSD 24(SI), Y5

	VMOVUPD (R8), Y6
	VMULPD  Y6, Y2, Y8
	VMOVUPD (R8)(R9*1), Y6
	VMULPD  Y6, Y3, Y10
	VADDPD  Y10, Y8, Y8
	VMOVUPD (R8)(R9*2), Y6
	VMULPD  Y6, Y4, Y10
	VADDPD  Y10, Y8, Y8
	VMOVUPD (R8)(R10*1), Y6
	VMULPD  Y6, Y5, Y10
	VADDPD  Y10, Y8, Y8

	VADDPD Y8, Y12, Y12

t4skip:
	ADDQ $32, SI
	LEAQ (R8)(R9*4), R8
	DECQ CX
	JNZ  t4quad

t4single:
	MOVQ  R12, CX
	TESTQ CX, CX
	JZ    t4epi

t4single1:
	VMOVSD (SI), X1
	VCMPSD $0, X0, X1, X2
	VMOVQ  X2, AX
	TESTQ  AX, AX
	JNZ    t4sskip

	VBROADCASTSD (SI), Y2
	VMOVUPD      (R8), Y6
	VMULPD       Y6, Y2, Y8
	VADDPD       Y8, Y12, Y12

t4sskip:
	ADDQ $8, SI
	ADDQ R9, R8
	DECQ CX
	JNZ  t4single1

t4epi:
	MOVQ  relu+72(FP), AX
	TESTQ AX, AX
	JZ    t4store
	VMAXPD Y12, Y0, Y12

t4store:
	VMOVUPD Y12, (DI)
	ADDQ    DX, DI
	ADDQ    R13, R14
	DECQ    R15
	JNZ     t4row

t4done:
	VZEROUPPER
	RET

// func reluAVX(d *float64, n int)
//
// In-place ReLU over d[0:n]: d[z] = max(+0, d[z]). MAXPD/MAXSD with +0
// as the first source returns the second source for -0, NaN, and ties,
// so every element matches the scalar "if v < 0 { v = 0 }" exactly.
TEXT ·reluAVX(SB), NOSPLIT, $0-16
	MOVQ   d+0(FP), DI
	MOVQ   n+8(FP), CX
	VXORPD Y0, Y0, Y0

	XORQ R12, R12
	MOVQ CX, R13
	SUBQ $3, R13
	JLE  rltail

rlvec:
	CMPQ R12, R13
	JGE  rltail
	VMOVUPD (DI)(R12*8), Y1
	VMAXPD  Y1, Y0, Y1
	VMOVUPD Y1, (DI)(R12*8)
	ADDQ    $4, R12
	JMP     rlvec

rltail:
	CMPQ R12, CX
	JGE  rldone
	VMOVSD (DI)(R12*8), X1
	VMAXSD X1, X0, X1
	VMOVSD X1, (DI)(R12*8)
	INCQ   R12
	JMP    rltail

rldone:
	VZEROUPPER
	RET

// func pool2AVX(dst, src *float64, outLen, ch, step int)
//
// Window-2 max pool over a channels-last row: for each output position
// p in [0, outLen), dst[p*ch+z] = max-rule(lo, hi) where lo =
// src[p*step+z], hi = src[p*step+ch+z], and the rule is the scalar
// "v := lo; if hi > v { v = hi }": MAXPD with hi as the first source
// returns lo for NaN in either operand and for ties (including ±0),
// exactly like the branch.
TEXT ·pool2AVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ outLen+16(FP), R8
	MOVQ ch+24(FP), R9
	MOVQ step+32(FP), R10

	SHLQ  $3, R10 // step in bytes
	MOVQ  R9, R11
	SHLQ  $3, R11 // ch in bytes
	TESTQ R8, R8
	JZ    p2done

p2pos:
	MOVQ SI, R12          // lo cursor
	LEAQ (SI)(R11*1), R13 // hi cursor
	XORQ CX, CX
	MOVQ R9, R14
	SUBQ $3, R14
	JLE  p2tail

p2vec:
	CMPQ CX, R14
	JGE  p2tail
	VMOVUPD (R12)(CX*8), Y1 // lo
	VMOVUPD (R13)(CX*8), Y2 // hi
	VMAXPD  Y1, Y2, Y3      // (hi > lo) ? hi : lo
	VMOVUPD Y3, (DI)(CX*8)
	ADDQ    $4, CX
	JMP     p2vec

p2tail:
	CMPQ CX, R9
	JGE  p2next
	VMOVSD (R12)(CX*8), X1
	VMOVSD (R13)(CX*8), X2
	VMAXSD X1, X2, X3
	VMOVSD X3, (DI)(CX*8)
	INCQ   CX
	JMP    p2tail

p2next:
	ADDQ R10, SI
	ADDQ R11, DI
	DECQ R8
	JNZ  p2pos

p2done:
	VZEROUPPER
	RET
