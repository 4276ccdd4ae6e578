#include "textflag.h"

// func tileAVX(c, a, b []float32, rows, ldc, lda, ldb int)
//
// For each of rows rows r, c[r·ldc+j] += a[r·lda+kx]·b[kx·ldb+j] for
// j < len(c), kx ascending below len(a) — the contract of tilePortable,
// which is also the oracle this is tested against bit for bit. AVX only,
// VEX-encoded (no FMA, AVX2 or AVX-512); tile calls it when haveAVX is set.
//
// The rows are walked four per pass, and each step's loads of b serve all
// four. A strip of 16, 8, 4 or 1 elements of each row stays in two YMM, one
// YMM, one XMM or one scalar register while k is walked (Y0-Y7, Y0-Y3,
// X0-X3, X0-X3). Each term is VMULPS then VADDPS — two roundings, as the Go
// loop compiles to; an FMA would round once and change the bits — with the
// operands in the order the SSE2 kernel this replaced used, so even a NaN
// meeting a NaN keeps the same payload: b·a, then c + product (a·b for the
// 1-column strip). A zero of a is skipped as `aik != 0` does: VUCOMISS sets
// ZF for equal and for unordered and PF only for unordered, so only ZF=1,
// PF=0 skips and a NaN multiplies; each row of the pass tests its own a.
//
// The last one to three rows take one more pass in which a row appears more
// than once — rows 0,1,2,2 of three, 0,0,0,1 of two, 0,0,0,0 of one. A
// repeated row computes the same bits from the same loads, and its later
// store rewrites them; it costs little, since a lone row's add chains, not
// the FP ports, bound its time. All loads and stores are unaligned
// (VMOVUPS): operands are float32 slices, 4-byte aligned at best. The
// caller (tile) has asserted rows > 0, len(c) > 0, len(a) > 0, non-negative
// strides, and that the last row's furthest element of c, a and b lies
// inside the slice: rows after the first are reached through the capacity
// of c and a.
//
// Per band: R12 c row, SI a row, AX rows left, R8 ldb in bytes, and the
// offsets of the pass's rows 1, 2 and 3 from row 0: DX, 2·DX and R14 in c,
// R13, 2·R13 and R15 in a. Per pass: DI c cursor, CX columns left, BX b
// cursor (first row of b, current strip). Per strip: R9/R10/R11 walk a, b
// and k; X13 holds zero.
TEXT ·tileAVX(SB), NOSPLIT, $0-104
	MOVQ   c_base+0(FP), R12
	MOVQ   a_base+24(FP), SI
	MOVQ   rows+72(FP), AX
	MOVQ   ldc+80(FP), DX
	SHLQ   $2, DX
	LEAQ   (DX)(DX*2), R14
	MOVQ   lda+88(FP), R13
	SHLQ   $2, R13
	LEAQ   (R13)(R13*2), R15
	MOVQ   ldb+96(FP), R8
	SHLQ   $2, R8
	VXORPS X13, X13, X13

pass:
	CMPQ AX, $4
	JGE  quad

	// Fewer than four rows left: the pass's row 3 is the last one, and its
	// rows 1 and 2 are rows 1 and 2 when three are left, row 0 otherwise.
	LEAQ  -1(AX), R14
	IMULQ DX, R14
	LEAQ  -1(AX), R15
	IMULQ R13, R15
	CMPQ  AX, $3
	JEQ   quad
	XORQ  DX, DX
	XORQ  R13, R13

quad:
	MOVQ R12, DI
	MOVQ c_len+8(FP), CX
	MOVQ b_base+48(FP), BX

strip16:
	CMPQ    CX, $16
	JLT     strip8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(DX*1), Y2
	VMOVUPS 32(DI)(DX*1), Y3
	VMOVUPS (DI)(DX*2), Y4
	VMOVUPS 32(DI)(DX*2), Y5
	VMOVUPS (DI)(R14*1), Y6
	VMOVUPS 32(DI)(R14*1), Y7
	MOVQ    SI, R9
	MOVQ    BX, R10
	MOVQ    a_len+32(FP), R11

k16:
	VMOVUPS  (R10), Y8
	VMOVUPS  32(R10), Y9
	VUCOMISS (R9), X13
	JNE      mac0_16
	JPC      row1_16

mac0_16:
	VBROADCASTSS (R9), Y10
	VMULPS       Y10, Y8, Y11
	VMULPS       Y10, Y9, Y12
	VADDPS       Y11, Y0, Y0
	VADDPS       Y12, Y1, Y1

row1_16:
	VUCOMISS (R9)(R13*1), X13
	JNE      mac1_16
	JPC      row2_16

mac1_16:
	VBROADCASTSS (R9)(R13*1), Y10
	VMULPS       Y10, Y8, Y11
	VMULPS       Y10, Y9, Y12
	VADDPS       Y11, Y2, Y2
	VADDPS       Y12, Y3, Y3

row2_16:
	VUCOMISS (R9)(R13*2), X13
	JNE      mac2_16
	JPC      row3_16

mac2_16:
	VBROADCASTSS (R9)(R13*2), Y10
	VMULPS       Y10, Y8, Y11
	VMULPS       Y10, Y9, Y12
	VADDPS       Y11, Y4, Y4
	VADDPS       Y12, Y5, Y5

row3_16:
	VUCOMISS (R9)(R15*1), X13
	JNE      mac3_16
	JPC      next16

mac3_16:
	VBROADCASTSS (R9)(R15*1), Y10
	VMULPS       Y10, Y8, Y11
	VMULPS       Y10, Y9, Y12
	VADDPS       Y11, Y6, Y6
	VADDPS       Y12, Y7, Y7

next16:
	ADDQ    $4, R9
	ADDQ    R8, R10
	DECQ    R11
	JNZ     k16
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(DX*1)
	VMOVUPS Y3, 32(DI)(DX*1)
	VMOVUPS Y4, (DI)(DX*2)
	VMOVUPS Y5, 32(DI)(DX*2)
	VMOVUPS Y6, (DI)(R14*1)
	VMOVUPS Y7, 32(DI)(R14*1)
	ADDQ    $64, DI
	ADDQ    $64, BX
	SUBQ    $16, CX
	JMP     strip16

strip8:
	CMPQ    CX, $8
	JLT     strip4
	VMOVUPS (DI), Y0
	VMOVUPS (DI)(DX*1), Y1
	VMOVUPS (DI)(DX*2), Y2
	VMOVUPS (DI)(R14*1), Y3
	MOVQ    SI, R9
	MOVQ    BX, R10
	MOVQ    a_len+32(FP), R11

k8:
	VMOVUPS  (R10), Y8
	VUCOMISS (R9), X13
	JNE      mac0_8
	JPC      row1_8

mac0_8:
	VBROADCASTSS (R9), Y10
	VMULPS       Y10, Y8, Y11
	VADDPS       Y11, Y0, Y0

row1_8:
	VUCOMISS (R9)(R13*1), X13
	JNE      mac1_8
	JPC      row2_8

mac1_8:
	VBROADCASTSS (R9)(R13*1), Y10
	VMULPS       Y10, Y8, Y11
	VADDPS       Y11, Y1, Y1

row2_8:
	VUCOMISS (R9)(R13*2), X13
	JNE      mac2_8
	JPC      row3_8

mac2_8:
	VBROADCASTSS (R9)(R13*2), Y10
	VMULPS       Y10, Y8, Y11
	VADDPS       Y11, Y2, Y2

row3_8:
	VUCOMISS (R9)(R15*1), X13
	JNE      mac3_8
	JPC      next8

mac3_8:
	VBROADCASTSS (R9)(R15*1), Y10
	VMULPS       Y10, Y8, Y11
	VADDPS       Y11, Y3, Y3

next8:
	ADDQ    $4, R9
	ADDQ    R8, R10
	DECQ    R11
	JNZ     k8
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(DX*1)
	VMOVUPS Y2, (DI)(DX*2)
	VMOVUPS Y3, (DI)(R14*1)
	ADDQ    $32, DI
	ADDQ    $32, BX
	SUBQ    $8, CX

strip4:
	CMPQ    CX, $4
	JLT     strip1
	VMOVUPS (DI), X0
	VMOVUPS (DI)(DX*1), X1
	VMOVUPS (DI)(DX*2), X2
	VMOVUPS (DI)(R14*1), X3
	MOVQ    SI, R9
	MOVQ    BX, R10
	MOVQ    a_len+32(FP), R11

k4:
	VMOVUPS  (R10), X8
	VUCOMISS (R9), X13
	JNE      mac0_4
	JPC      row1_4

mac0_4:
	VBROADCASTSS (R9), X10
	VMULPS       X10, X8, X11
	VADDPS       X11, X0, X0

row1_4:
	VUCOMISS (R9)(R13*1), X13
	JNE      mac1_4
	JPC      row2_4

mac1_4:
	VBROADCASTSS (R9)(R13*1), X10
	VMULPS       X10, X8, X11
	VADDPS       X11, X1, X1

row2_4:
	VUCOMISS (R9)(R13*2), X13
	JNE      mac2_4
	JPC      row3_4

mac2_4:
	VBROADCASTSS (R9)(R13*2), X10
	VMULPS       X10, X8, X11
	VADDPS       X11, X2, X2

row3_4:
	VUCOMISS (R9)(R15*1), X13
	JNE      mac3_4
	JPC      next4

mac3_4:
	VBROADCASTSS (R9)(R15*1), X10
	VMULPS       X10, X8, X11
	VADDPS       X11, X3, X3

next4:
	ADDQ    $4, R9
	ADDQ    R8, R10
	DECQ    R11
	JNZ     k4
	VMOVUPS X0, (DI)
	VMOVUPS X1, (DI)(DX*1)
	VMOVUPS X2, (DI)(DX*2)
	VMOVUPS X3, (DI)(R14*1)
	ADDQ    $16, DI
	ADDQ    $16, BX
	SUBQ    $4, CX

strip1:
	TESTQ  CX, CX
	JZ     nextpass
	VMOVSS (DI), X0
	VMOVSS (DI)(DX*1), X1
	VMOVSS (DI)(DX*2), X2
	VMOVSS (DI)(R14*1), X3
	MOVQ   SI, R9
	MOVQ   BX, R10
	MOVQ   a_len+32(FP), R11

k1:
	VMOVSS   (R10), X8
	VUCOMISS (R9), X13
	JNE      mac0_1
	JPC      row1_1

mac0_1:
	VMOVSS (R9), X10
	VMULSS X8, X10, X11
	VADDSS X11, X0, X0

row1_1:
	VUCOMISS (R9)(R13*1), X13
	JNE      mac1_1
	JPC      row2_1

mac1_1:
	VMOVSS (R9)(R13*1), X10
	VMULSS X8, X10, X11
	VADDSS X11, X1, X1

row2_1:
	VUCOMISS (R9)(R13*2), X13
	JNE      mac2_1
	JPC      row3_1

mac2_1:
	VMOVSS (R9)(R13*2), X10
	VMULSS X8, X10, X11
	VADDSS X11, X2, X2

row3_1:
	VUCOMISS (R9)(R15*1), X13
	JNE      mac3_1
	JPC      next1

mac3_1:
	VMOVSS (R9)(R15*1), X10
	VMULSS X8, X10, X11
	VADDSS X11, X3, X3

next1:
	ADDQ   $4, R9
	ADDQ   R8, R10
	DECQ   R11
	JNZ    k1
	VMOVSS X0, (DI)
	VMOVSS X1, (DI)(DX*1)
	VMOVSS X2, (DI)(DX*2)
	VMOVSS X3, (DI)(R14*1)
	ADDQ   $4, DI
	ADDQ   $4, BX
	DECQ   CX
	JMP    strip1

nextpass:
	LEAQ (R12)(DX*4), R12
	LEAQ (SI)(R13*4), SI
	SUBQ $4, AX
	JG   pass
	VZEROUPPER
	RET

// func cpuHasAVX() bool
//
// CPUID.1:ECX reports AVX (bit 28) and OSXSAVE (bit 27), and XGETBV(0)
// shows the operating system saves the XMM and YMM state (bits 1 and 2).
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   done
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	SETEQ ret+0(FP)

done:
	RET
