#include "textflag.h"

// func tileSSE2(c, a, b []float32, rows, ldc, lda, ldb int)
//
// For each of rows rows r, c[r·ldc+j] += a[r·lda+kx]·b[kx·ldb+j] for
// j < len(c), kx ascending below len(a) — the contract of tilePortable,
// which is also the oracle this is tested against bit for bit. SSE2 only
// (the GOAMD64=v1 baseline): a strip of 16, 8, 4 or 1 elements of a C row
// stays in X0-X3 while k is walked, each term is MULPS then ADDPS
// (MULSS/ADDSS for the last one to three columns) — two roundings, as the
// Go loop compiles to; an FMA would round once and change the bits. A zero
// of a is skipped as `aik != 0` does: UCOMISS sets ZF for equal and for
// unordered and PF only for unordered, so only ZF=1, PF=0 skips and a NaN
// multiplies. All loads and stores are unaligned (MOVUPS): operands are
// float32 slices, 4-byte aligned at best. The caller (tile) has asserted
// rows > 0, len(c) > 0, len(a) > 0, non-negative strides, and that the
// last row's furthest element of c, a and b lies inside the slice: rows
// after the first are reached through the capacity of c and a.
//
// Per band: R12 c row, SI a row, AX rows left, DX len(a), R8 ldb in bytes.
// Per row: DI c cursor, CX columns left, BX b cursor (first row of b,
// current strip). Per strip: R9/R10/R11 walk a, b and k; between rows R9
// scales the row strides, which are read from the frame.
TEXT ·tileSSE2(SB), NOSPLIT, $0-104
	MOVQ  c_base+0(FP), R12
	MOVQ  a_base+24(FP), SI
	MOVQ  a_len+32(FP), DX
	MOVQ  rows+72(FP), AX
	MOVQ  ldb+96(FP), R8
	SHLQ  $2, R8
	XORPS X9, X9

row:
	MOVQ R12, DI
	MOVQ c_len+8(FP), CX
	MOVQ b_base+48(FP), BX

strip16:
	CMPQ   CX, $16
	JLT    strip8
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	MOVQ   SI, R9
	MOVQ   BX, R10
	MOVQ   DX, R11

k16:
	MOVSS   (R9), X4
	UCOMISS X9, X4
	JNE     mac16
	JPC     next16

mac16:
	SHUFPS $0, X4, X4
	MOVUPS (R10), X5
	MOVUPS 16(R10), X6
	MOVUPS 32(R10), X7
	MOVUPS 48(R10), X8
	MULPS  X4, X5
	MULPS  X4, X6
	MULPS  X4, X7
	MULPS  X4, X8
	ADDPS  X5, X0
	ADDPS  X6, X1
	ADDPS  X7, X2
	ADDPS  X8, X3

next16:
	ADDQ   $4, R9
	ADDQ   R8, R10
	DECQ   R11
	JNZ    k16
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	ADDQ   $64, DI
	ADDQ   $64, BX
	SUBQ   $16, CX
	JMP    strip16

strip8:
	CMPQ   CX, $8
	JLT    strip4
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVQ   SI, R9
	MOVQ   BX, R10
	MOVQ   DX, R11

k8:
	MOVSS   (R9), X4
	UCOMISS X9, X4
	JNE     mac8
	JPC     next8

mac8:
	SHUFPS $0, X4, X4
	MOVUPS (R10), X5
	MOVUPS 16(R10), X6
	MULPS  X4, X5
	MULPS  X4, X6
	ADDPS  X5, X0
	ADDPS  X6, X1

next8:
	ADDQ   $4, R9
	ADDQ   R8, R10
	DECQ   R11
	JNZ    k8
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	ADDQ   $32, DI
	ADDQ   $32, BX
	SUBQ   $8, CX

strip4:
	CMPQ   CX, $4
	JLT    strip1
	MOVUPS (DI), X0
	MOVQ   SI, R9
	MOVQ   BX, R10
	MOVQ   DX, R11

k4:
	MOVSS   (R9), X4
	UCOMISS X9, X4
	JNE     mac4
	JPC     next4

mac4:
	SHUFPS $0, X4, X4
	MOVUPS (R10), X5
	MULPS  X4, X5
	ADDPS  X5, X0

next4:
	ADDQ   $4, R9
	ADDQ   R8, R10
	DECQ   R11
	JNZ    k4
	MOVUPS X0, (DI)
	ADDQ   $16, DI
	ADDQ   $16, BX
	SUBQ   $4, CX

strip1:
	TESTQ CX, CX
	JZ    nextrow
	MOVSS (DI), X0
	MOVQ  SI, R9
	MOVQ  BX, R10
	MOVQ  DX, R11

k1:
	MOVSS   (R9), X4
	UCOMISS X9, X4
	JNE     mac1
	JPC     next1

mac1:
	MULSS (R10), X4
	ADDSS X4, X0

next1:
	ADDQ  $4, R9
	ADDQ  R8, R10
	DECQ  R11
	JNZ   k1
	MOVSS X0, (DI)
	ADDQ  $4, DI
	ADDQ  $4, BX
	DECQ  CX
	JMP   strip1

nextrow:
	MOVQ ldc+80(FP), R9
	SHLQ $2, R9
	ADDQ R9, R12
	MOVQ lda+88(FP), R9
	SHLQ $2, R9
	ADDQ R9, SI
	DECQ AX
	JNZ  row
	RET
