#include "textflag.h"

// func tileSSE2(c, a, b []float32, ldb int)
//
// c[j] += a[kx]·b[kx·ldb+j] for j < len(c), kx ascending over a — the
// contract of tilePortable, which is also the oracle this is tested against
// bit for bit. SSE2 only (the GOAMD64=v1 baseline): a strip of 16, 8, 4 or 1
// elements of c stays in X0-X3 while k is walked, each term is MULPS then
// ADDPS (MULSS/ADDSS for the last one to three columns) — two roundings, as
// the Go loop compiles to; an FMA would round once and change the bits. A
// zero of a is skipped as `aik != 0` does: UCOMISS sets ZF for equal and for
// unordered and PF only for unordered, so only ZF=1, PF=0 skips and a NaN
// multiplies. All loads and stores are unaligned (MOVUPS): operands are
// float32 slices, 4-byte aligned at best. The caller (tile) has asserted
// len(c) > 0, len(a) > 0, ldb >= 0 and (len(a)-1)·ldb+len(c) <= len(b).
//
// DI c cursor, CX columns left, BX b cursor (first row, current strip),
// SI a, DX len(a), R8 ldb in bytes; per strip R9/R10/R11 walk a, b, k.
TEXT ·tileSSE2(SB), NOSPLIT, $0-80
	MOVQ  c_base+0(FP), DI
	MOVQ  c_len+8(FP), CX
	MOVQ  a_base+24(FP), SI
	MOVQ  a_len+32(FP), DX
	MOVQ  b_base+48(FP), BX
	MOVQ  ldb+72(FP), R8
	SHLQ  $2, R8
	XORPS X9, X9

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
	JZ    done
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

done:
	RET
