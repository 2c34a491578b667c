#include "textflag.h"

// func laneRow2(x0, y0, x1, y1 *[4]float64, n int, s *[8]float64)
//
// One VSUBPD, one VMULPD and one VADDPD per group element, each
// rounding every lane as its scalar counterpart in laneRow does; no
// fused multiply-add. Y0 and Y1 are the two groups' chains.
TEXT ·laneRow2(SB), NOSPLIT, $0-48
	MOVQ x0+0(FP), AX
	MOVQ y0+8(FP), BX
	MOVQ x1+16(FP), CX
	MOVQ y1+24(FP), DX
	MOVQ n+32(FP), SI
	MOVQ s+40(FP), DI
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	SHLQ $5, SI
	XORQ R8, R8
	JMP  check

loop:
	VMOVUPD (AX)(R8*1), Y2
	VSUBPD  (BX)(R8*1), Y2, Y2
	VMULPD  Y2, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD (CX)(R8*1), Y3
	VSUBPD  (DX)(R8*1), Y3, Y3
	VMULPD  Y3, Y3, Y3
	VADDPD  Y3, Y1, Y1
	ADDQ    $32, R8

check:
	CMPQ R8, SI
	JLT  loop
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET
