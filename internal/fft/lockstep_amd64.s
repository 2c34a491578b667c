#include "textflag.h"

// The lockstep line kernels. A group holds four lines interleaved: its
// row k, 64 bytes, is element k of lines 0–3, and one Y register holds
// two of them. Every twiddle and root is shared by the four lines and
// broadcast, its real part to one register and its imaginary part to
// another. Each kernel runs, lane by lane, exactly the products and
// sums of its Go counterpart in fft.go or plan.go, each one rounded:
// there is no fused multiply-add.

// CMUL sets d = v·w for the broadcast twiddle w = wr + i·wi: per
// complex lane (a, b), d = (a·wr − b·wi, b·wr + a·wi), Go's complex128
// product term for term. t is clobbered; d may be v.
#define CMUL(v, wr, wi, t, d) \
	VPERMILPD $5, v, t; \
	VMULPD    wr, v, d; \
	VMULPD    wi, t, t; \
	VADDSUBPD t, d, d

// RADIX22 is one radix-2² butterfly on two lanes of four rows, as in
// butterflies: with x0–x3 the rows at a0–a3,
//
//	y0, y1 = x0 ± x1·w1;  y2, y3 = x2 ± x3·w1
//	b0 = y0 + y2·wt, b2 = y0 − y2·wt;  b1 = y1 + y3·wq, b3 = y1 − y3·wq
//
// with (Y0, Y1) = w1, (Y2, Y3) = wt and (Y4, Y5) = wq. It clobbers
// Y6–Y12.
#define RADIX22(a0, a1, a2, a3, b0, b1, b2, b3) \
	VMOVUPD a0, Y6; \
	VMOVUPD a1, Y7; \
	CMUL(Y7, Y0, Y1, Y8, Y7); \
	VADDPD  Y7, Y6, Y9; \
	VSUBPD  Y7, Y6, Y10; \
	VMOVUPD a2, Y6; \
	VMOVUPD a3, Y7; \
	CMUL(Y7, Y0, Y1, Y8, Y7); \
	VADDPD  Y7, Y6, Y11; \
	VSUBPD  Y7, Y6, Y12; \
	CMUL(Y11, Y2, Y3, Y8, Y11); \
	VADDPD  Y11, Y9, Y6; \
	VSUBPD  Y11, Y9, Y7; \
	VMOVUPD Y6, b0; \
	VMOVUPD Y7, b2; \
	CMUL(Y12, Y4, Y5, Y8, Y12); \
	VADDPD  Y12, Y10, Y6; \
	VSUBPD  Y12, Y10, Y7; \
	VMOVUPD Y6, b1; \
	VMOVUPD Y7, b3

// func radix22x4(x, w *complex128, n, h, step int)
//
// One pass of butterflies over a group of n-point lines at x: for
// every 4h-block and k < h, RADIX22 on rows k, k+h, k+2h and k+3h in
// place, with w1 = w[2t], wt = w[t] and wq = w[t+n/4] for t = k·step.
TEXT ·radix22x4(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ n+16(FP), AX
	MOVQ AX, DX
	SHLQ $2, DX                 // (n/4)·16: wq's offset from wt
	SHLQ $6, AX
	ADDQ DI, AX                 // end of the group
	MOVQ h+24(FP), BX
	SHLQ $6, BX                 // h rows
	LEAQ (BX)(BX*2), R14        // 3h rows
	MOVQ step+32(FP), CX
	SHLQ $4, CX                 // wt's step
	LEAQ (CX)(CX*1), R12        // w1's step

block:
	CMPQ DI, AX
	JAE  done
	MOVQ DI, R8
	LEAQ (DI)(BX*1), R9
	MOVQ SI, R10                // wt
	MOVQ SI, R11                // w1

row:
	VBROADCASTSD 0(R11), Y0
	VBROADCASTSD 8(R11), Y1
	VBROADCASTSD 0(R10), Y2
	VBROADCASTSD 8(R10), Y3
	VBROADCASTSD 0(R10)(DX*1), Y4
	VBROADCASTSD 8(R10)(DX*1), Y5
	RADIX22(0(R8), 0(R8)(BX*1), 0(R8)(BX*2), 0(R8)(R14*1), 0(R8), 0(R8)(BX*1), 0(R8)(BX*2), 0(R8)(R14*1))
	RADIX22(32(R8), 32(R8)(BX*1), 32(R8)(BX*2), 32(R8)(R14*1), 32(R8), 32(R8)(BX*1), 32(R8)(BX*2), 32(R8)(R14*1))
	ADDQ $64, R8
	ADDQ CX, R10
	ADDQ R12, R11
	CMPQ R8, R9
	JB   row
	LEAQ (DI)(BX*4), DI
	JMP  block

done:
	VZEROUPPER
	RET

// func leafQuadsx4(dst, src *complex128, n, stride int, pw *complex128)
//
// leaf's gather and first radix-2² pass for an even stage count: for
// s = 0, 4, …, the rows r, r+n/2, r+n/4 and r+3n/4 of the source (rows
// stride apart, r = rev(s/4) over log2(n/4) bits) through RADIX22 with
// w1 = wt = pw[0] and wq = pw[n/4], into rows s to s+3 of dst.
TEXT ·leafQuadsx4(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), AX
	MOVQ stride+24(FP), R8
	MOVQ pw+32(FP), R13
	VBROADCASTSD 0(R13), Y0
	VBROADCASTSD 8(R13), Y1
	VMOVAPD      Y0, Y2
	VMOVAPD      Y1, Y3
	MOVQ AX, R12
	SHLQ $2, R12                // (n/4)·16
	VBROADCASTSD 0(R13)(R12*1), Y4
	VBROADCASTSD 8(R13)(R12*1), Y5
	SHLQ $6, R8                 // stride rows
	MOVQ AX, R10
	SHRQ $3, R10                // (n/4)/2
	MOVQ AX, CX
	SHRQ $2, CX
	IMULQ R8, CX                // n/4 strides
	LEAQ (CX)(CX*1), BX         // n/2 strides
	LEAQ (CX)(BX*1), DX         // 3n/4 strides
	SHLQ $6, AX
	ADDQ DI, AX                 // end of dst
	XORQ R9, R9                 // r, with R10 the top bit of rev's
	                            // log2(n/4) bits

quad:
	MOVQ R9, R12
	IMULQ R8, R12
	ADDQ SI, R12
	RADIX22(0(R12), 0(R12)(BX*1), 0(R12)(CX*1), 0(R12)(DX*1), 0(DI), 64(DI), 128(DI), 192(DI))
	RADIX22(32(R12), 32(R12)(BX*1), 32(R12)(CX*1), 32(R12)(DX*1), 32(DI), 96(DI), 160(DI), 224(DI))
	MOVQ R10, R11               // revInc(r, ·)
quadbit:
	TESTQ R11, R9
	JZ    quadset
	XORQ  R11, R9
	SHRQ  $1, R11
	JMP   quadbit
quadset:
	ORQ   R11, R9
	ADDQ $256, DI
	CMPQ DI, AX
	JB   quad
	VZEROUPPER
	RET

// func leafPairsx4(dst, src *complex128, n, stride int, pw *complex128)
//
// leaf's gather and lone radix-2 pass for an odd stage count: for
// s = 0, 2, …, rows s and s+1 of dst are a ± b·pw[0] for the source
// rows a = r and b = r+n/2 (rows stride apart, r = rev(s/2) over
// log2(n/2) bits).
TEXT ·leafPairsx4(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), AX
	MOVQ stride+24(FP), R8
	MOVQ pw+32(FP), R13
	VBROADCASTSD 0(R13), Y0
	VBROADCASTSD 8(R13), Y1
	SHLQ $6, R8                 // stride rows
	MOVQ AX, R10
	SHRQ $2, R10                // (n/2)/2
	MOVQ AX, BX
	SHRQ $1, BX
	IMULQ R8, BX                // n/2 strides
	SHLQ $6, AX
	ADDQ DI, AX                 // end of dst
	XORQ R9, R9                 // r, with R10 the top bit of rev's
	                            // log2(n/2) bits

pair:
	MOVQ R9, R12
	IMULQ R8, R12
	ADDQ SI, R12
	VMOVUPD 0(R12), Y6
	VMOVUPD 0(R12)(BX*1), Y7
	CMUL(Y7, Y0, Y1, Y8, Y7)
	VADDPD  Y7, Y6, Y9
	VSUBPD  Y7, Y6, Y10
	VMOVUPD Y9, 0(DI)
	VMOVUPD Y10, 64(DI)
	VMOVUPD 32(R12), Y6
	VMOVUPD 32(R12)(BX*1), Y7
	CMUL(Y7, Y0, Y1, Y8, Y7)
	VADDPD  Y7, Y6, Y9
	VSUBPD  Y7, Y6, Y10
	VMOVUPD Y9, 32(DI)
	VMOVUPD Y10, 96(DI)
	MOVQ R10, R11               // revInc(r, ·)
pairbit:
	TESTQ R11, R9
	JZ    pairset
	XORQ  R11, R9
	SHRQ  $1, R11
	JMP   pairbit
pairset:
	ORQ   R11, R9
	ADDQ $128, DI
	CMPQ DI, AX
	JB   pair
	VZEROUPPER
	RET

// ROOTSUM stores u0 + u1·roots[ra] + u2·roots[rb], summed left to
// right as combine3 does, to out; (ra, rb) are byte offsets into the
// roots at R8, and (Y6, Y7, Y8) hold (u0, u1, u2). It clobbers Y9 and
// Y11–Y14.
#define ROOTSUM(ra, rb, out) \
	VBROADCASTSD ra(R8), Y11; \
	VBROADCASTSD ra+8(R8), Y12; \
	CMUL(Y7, Y11, Y12, Y14, Y9); \
	VADDPD       Y9, Y6, Y13; \
	VBROADCASTSD rb(R8), Y11; \
	VBROADCASTSD rb+8(R8), Y12; \
	CMUL(Y8, Y11, Y12, Y14, Y9); \
	VADDPD       Y9, Y13, Y13; \
	VMOVUPD      Y13, out

// COMBINE3 is combine3's step k2 on the two lanes at byte offset off
// of rows k2, k2+m and k2+2m (DI, BX = m rows): u0 = d0·w[0],
// u1 = d1·w[mult·k2], u2 = d2·w[2·mult·k2] with the twiddles in
// (Y0, Y1), (Y2, Y3) and (Y4, Y5), then the three root sums.
#define COMBINE3(off) \
	VMOVUPD off(DI), Y6; \
	CMUL(Y6, Y0, Y1, Y14, Y6); \
	VMOVUPD off(DI)(BX*1), Y7; \
	CMUL(Y7, Y2, Y3, Y14, Y7); \
	VMOVUPD off(DI)(BX*2), Y8; \
	CMUL(Y8, Y4, Y5, Y14, Y8); \
	ROOTSUM(16, 32, off(DI)); \
	ROOTSUM(64, 80, off(DI)(BX*1)); \
	ROOTSUM(112, 128, off(DI)(BX*2))

// func combine3x4(dst *complex128, m, mult int, w *complex128, roots *[25]complex128)
//
// combine3 over a group: for k2 < m, COMBINE3 on both lane pairs of
// rows k2, k2+m and k2+2m of dst, with the roots roots[1], roots[2],
// roots[4], roots[5], roots[7] and roots[8].
TEXT ·combine3x4(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ m+8(FP), BX
	MOVQ mult+16(FP), CX
	MOVQ w+24(FP), SI
	MOVQ roots+32(FP), R8
	SHLQ $6, BX                 // m rows
	LEAQ (DI)(BX*1), AX         // end of d0
	SHLQ $4, CX                 // w[mult·k2]'s step
	LEAQ (CX)(CX*1), DX         // w[2·mult·k2]'s step
	VBROADCASTSD 0(SI), Y0
	VBROADCASTSD 8(SI), Y1
	MOVQ SI, R10
	MOVQ SI, R11
	CMPQ DI, AX
	JAE  end

step:
	VBROADCASTSD 0(R10), Y2
	VBROADCASTSD 8(R10), Y3
	VBROADCASTSD 0(R11), Y4
	VBROADCASTSD 8(R11), Y5
	COMBINE3(0)
	COMBINE3(32)
	ADDQ $64, DI
	ADDQ CX, R10
	ADDQ DX, R11
	CMPQ DI, AX
	JB   step

end:
	VZEROUPPER
	RET
