#include "textflag.h"

// func laneRows2(x0, y0, x1, y1 *[4]float64, g rowGrid, s *[8]float64)
//
// Walks g's r2 blocks of r1 rows of n group elements. Per element: one
// VSUBPD, one VMULPD and one VADDPD per group, each rounding every lane
// as its scalar counterpart in laneRow does; no fused multiply-add. Y0
// and Y1, the two groups' chains, stay in registers across every row.
// The four pointers stand at the end of the current row and R8 counts
// up from −n·32 to 0; after a row they step by st1, after a block by
// st2 − r1·st1. BP is left alone.
TEXT ·laneRows2(SB), NOSPLIT, $0-80
	MOVQ g_n+32(FP), SI
	MOVQ g_r1+40(FP), R9
	MOVQ g_r2+56(FP), R11
	TESTQ SI, SI
	JLE  empty
	TESTQ R9, R9
	JLE  empty
	TESTQ R11, R11
	JLE  empty
	MOVQ x0+0(FP), AX
	MOVQ y0+8(FP), BX
	MOVQ x1+16(FP), CX
	MOVQ y1+24(FP), DX
	MOVQ g_st1+48(FP), R10
	MOVQ g_st2+64(FP), R12
	MOVQ s+72(FP), DI
	SHLQ $5, SI
	SHLQ $5, R10
	SHLQ $5, R12
	MOVQ R9, R13
	IMULQ R10, R13
	SUBQ R13, R12
	ADDQ SI, AX
	ADDQ SI, BX
	ADDQ SI, CX
	ADDQ SI, DX
	NEGQ SI
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1

block:
	MOVQ R9, R13

row:
	MOVQ SI, R8

elem:
	VMOVUPD (AX)(R8*1), Y2
	VSUBPD  (BX)(R8*1), Y2, Y2
	VMULPD  Y2, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD (CX)(R8*1), Y3
	VSUBPD  (DX)(R8*1), Y3, Y3
	VMULPD  Y3, Y3, Y3
	VADDPD  Y3, Y1, Y1
	ADDQ    $32, R8
	JNZ     elem
	ADDQ R10, AX
	ADDQ R10, BX
	ADDQ R10, CX
	ADDQ R10, DX
	DECQ R13
	JNZ  row
	ADDQ R12, AX
	ADDQ R12, BX
	ADDQ R12, CX
	ADDQ R12, DX
	DECQ R11
	JNZ  block
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER

empty:
	RET
