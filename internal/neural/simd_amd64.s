#include "textflag.h"

// AVX2 kernels for Adam.Step and BackwardVec. Every packed instruction
// here (VMULPD, VADDPD, VSUBPD, VDIVPD, VSQRTPD) rounds each lane
// exactly as its scalar SSE2 form does, and each lane sees the scalar
// loop's operations in the scalar loop's order. No FMA is used: the
// Go loops they replace compile without fusing at GOAMD64=v1.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func adamAVX2(w, m, v, g []float64, k *adamConsts) (live bool)
//
// Per lane, as in Adam.Step:
//   live = g != 0 || m != 0 || v != 0   (NaN counts as nonzero)
//   m'   = b1*m + c1*g
//   v'   = b2*v + (c2*g)*g
//   w'   = w - lr*(m'/b1c) / (sqrt(v'/b2c) + eps)
//   g'   = 0
// and a blend on the live mask keeps the old bits on the other lanes.
TEXT ·adamAVX2(SB), NOSPLIT, $0-105
	MOVQ w_base+0(FP), AX
	MOVQ m_base+24(FP), BX
	MOVQ v_base+48(FP), CX
	MOVQ g_base+72(FP), DX
	MOVQ g_len+80(FP), SI
	MOVQ k+96(FP), DI
	VBROADCASTSD 0(DI), Y0  // b1
	VBROADCASTSD 8(DI), Y1  // c1
	VBROADCASTSD 16(DI), Y2 // b2
	VBROADCASTSD 24(DI), Y3 // c2
	VBROADCASTSD 32(DI), Y4 // b1c
	VBROADCASTSD 40(DI), Y5 // b2c
	VBROADCASTSD 48(DI), Y6 // lr
	VBROADCASTSD 56(DI), Y7 // eps
	VXORPD Y8, Y8, Y8       // +0
	VXORPD Y9, Y9, Y9       // OR of the live masks
	SHRQ $2, SI
	JZ   adamDone

adamLoop:
	VMOVUPD (DX), Y10 // g
	VMOVUPD (BX), Y11 // m
	VMOVUPD (CX), Y12 // v

	// Live mask: predicate 4 is NEQ_UQ, true for a NaN lane.
	VCMPPD $4, Y8, Y10, Y13
	VCMPPD $4, Y8, Y11, Y14
	VORPD  Y14, Y13, Y13
	VCMPPD $4, Y8, Y12, Y14
	VORPD  Y14, Y13, Y13
	VORPD  Y13, Y9, Y9

	// m' = b1*m + c1*g
	VMULPD    Y11, Y0, Y14
	VMULPD    Y10, Y1, Y15
	VADDPD    Y15, Y14, Y14
	VBLENDVPD Y13, Y14, Y11, Y11
	VMOVUPD   Y11, (BX)

	// v' = b2*v + (c2*g)*g
	VMULPD    Y12, Y2, Y14
	VMULPD    Y10, Y3, Y15
	VMULPD    Y10, Y15, Y15
	VADDPD    Y15, Y14, Y14
	VBLENDVPD Y13, Y14, Y12, Y12
	VMOVUPD   Y12, (CX)

	// w' = w - lr*(m'/b1c) / (sqrt(v'/b2c) + eps)
	VDIVPD    Y4, Y11, Y14
	VMULPD    Y14, Y6, Y14
	VDIVPD    Y5, Y12, Y15
	VSQRTPD   Y15, Y15
	VADDPD    Y7, Y15, Y15
	VDIVPD    Y15, Y14, Y14
	VMOVUPD   (AX), Y15
	VSUBPD    Y14, Y15, Y14
	VBLENDVPD Y13, Y14, Y15, Y15
	VMOVUPD   Y15, (AX)

	// g' = +0 on live lanes
	VBLENDVPD Y13, Y8, Y10, Y10
	VMOVUPD   Y10, (DX)

	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, CX
	ADDQ $32, DX
	DECQ SI
	JNZ  adamLoop

adamDone:
	VMOVMSKPD Y9, AX
	TESTL     AX, AX
	SETNE     live+104(FP)
	VZEROUPPER
	RET

// func backward4AVX2(d *[4]float64, w, g, x, dx []float64)
//
// Per column j of a four-column group, as in BackwardVec:
//   g_r[j] += d_r*x[j]                                for r = 0..3
//   dx[j]   = (((dx[j] + d0*w0[j]) + d1*w1[j]) + d2*w2[j]) + d3*w3[j]
TEXT ·backward4AVX2(SB), NOSPLIT, $0-104
	MOVQ d+0(FP), AX
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	MOVQ w_base+8(FP), SI
	MOVQ g_base+32(FP), DI
	MOVQ x_base+56(FP), R8
	MOVQ x_len+64(FP), CX
	MOVQ dx_base+80(FP), R9
	MOVQ CX, DX
	SHLQ $3, DX                // row stride in bytes
	LEAQ (DX)(DX*2), R10       // three rows
	SHRQ $2, CX
	JZ   backDone

backLoop:
	VMOVUPD (R8), Y4 // x

	VMULPD  Y4, Y0, Y5
	VADDPD  (DI), Y5, Y5
	VMOVUPD Y5, (DI)
	VMULPD  Y4, Y1, Y5
	VADDPD  (DI)(DX*1), Y5, Y5
	VMOVUPD Y5, (DI)(DX*1)
	VMULPD  Y4, Y2, Y5
	VADDPD  (DI)(DX*2), Y5, Y5
	VMOVUPD Y5, (DI)(DX*2)
	VMULPD  Y4, Y3, Y5
	VADDPD  (DI)(R10*1), Y5, Y5
	VMOVUPD Y5, (DI)(R10*1)

	VMOVUPD (R9), Y6
	VMULPD  (SI), Y0, Y7
	VADDPD  Y7, Y6, Y6
	VMULPD  (SI)(DX*1), Y1, Y7
	VADDPD  Y7, Y6, Y6
	VMULPD  (SI)(DX*2), Y2, Y7
	VADDPD  Y7, Y6, Y6
	VMULPD  (SI)(R10*1), Y3, Y7
	VADDPD  Y7, Y6, Y6
	VMOVUPD Y6, (R9)

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	DECQ CX
	JNZ  backLoop

backDone:
	VZEROUPPER
	RET

// MULTILE accumulates one four-column group of the four rows at ptr
// into acc: a register transpose of the 4×4 tile (two 128-bit halves
// per register, then unpack) gives one column per register, lanes =
// rows, and each column is multiplied by its broadcast x (Y2..Y5) and
// added to acc in ascending column order. DX is the row stride in
// bytes, R10 three times it.
#define MULTILE(ptr, acc) \
	VMOVUPD     (ptr), X6; \
	VINSERTF128 $1, (ptr)(DX*2), Y6, Y6; \
	VMOVUPD     (ptr)(DX*1), X7; \
	VINSERTF128 $1, (ptr)(R10*1), Y7, Y7; \
	VUNPCKLPD   Y7, Y6, Y8; \
	VUNPCKHPD   Y7, Y6, Y9; \
	VMOVUPD     16(ptr), X6; \
	VINSERTF128 $1, 16(ptr)(DX*2), Y6, Y6; \
	VMOVUPD     16(ptr)(DX*1), X7; \
	VINSERTF128 $1, 16(ptr)(R10*1), Y7, Y7; \
	VUNPCKLPD   Y7, Y6, Y10; \
	VUNPCKHPD   Y7, Y6, Y11; \
	VMULPD      Y2, Y8, Y8; \
	VADDPD      Y8, acc, acc; \
	VMULPD      Y3, Y9, Y9; \
	VADDPD      Y9, acc, acc; \
	VMULPD      Y4, Y10, Y10; \
	VADDPD      Y10, acc, acc; \
	VMULPD      Y5, Y11, Y11; \
	VADDPD      Y11, acc, acc

// XBCAST loads x[j..j+3] at R9 into Y2..Y5, one value per register.
#define XBCAST \
	VBROADCASTSD (R9), Y2; \
	VBROADCASTSD 8(R9), Y3; \
	VBROADCASTSD 16(R9), Y4; \
	VBROADCASTSD 24(R9), Y5

// func mulBatch4AVX2(w, x, s []float64)
//
// For each row r < len(s) of w (row stride len(x); len(s) a multiple
// of four), as in mulBatch's four-row block:
//   s[r] = (((+0 + w[r][0]*x[0]) + w[r][1]*x[1]) + ...) + w[r][n-1]*x[n-1]
// over the first n = len(x)&^3 columns. Each lane of an accumulator is
// one row's running sum. Four row blocks (sixteen rows) run
// interleaved, so four independent add chains hide the add latency;
// the last blocks run one at a time.
TEXT ·mulBatch4AVX2(SB), NOSPLIT, $0-72
	MOVQ w_base+0(FP), SI
	MOVQ x_base+24(FP), R8
	MOVQ x_len+32(FP), CX
	MOVQ s_base+48(FP), DI
	MOVQ s_len+56(FP), BX
	MOVQ CX, DX
	SHLQ $3, DX                // row stride in bytes
	LEAQ (DX)(DX*2), R10       // three rows
	MOVQ DX, R11
	SHLQ $2, R11               // four rows
	SHRQ $2, CX                // four-column groups
	SHRQ $2, BX                // four-row blocks

mulQuad:
	CMPQ BX, $4
	JB   mulSingle
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	MOVQ SI, R12
	MOVQ R8, R9
	MOVQ CX, AX
	TESTQ AX, AX
	JZ   mulQuadStore

mulQuadCol:
	XBCAST
	LEAQ (R12)(R11*1), R13
	MULTILE(R12, Y0)
	MULTILE(R13, Y1)
	ADDQ R11, R13
	MULTILE(R13, Y12)
	ADDQ R11, R13
	MULTILE(R13, Y13)
	ADDQ $32, R12
	ADDQ $32, R9
	DECQ AX
	JNZ  mulQuadCol

mulQuadStore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y12, 64(DI)
	VMOVUPD Y13, 96(DI)
	ADDQ $128, DI
	LEAQ (SI)(R11*4), SI
	SUBQ $4, BX
	JMP  mulQuad

mulSingle:
	TESTQ BX, BX
	JZ    mulDone
	VXORPD Y0, Y0, Y0
	MOVQ SI, R12
	MOVQ R8, R9
	MOVQ CX, AX
	TESTQ AX, AX
	JZ   mulSingleStore

mulSingleCol:
	XBCAST
	MULTILE(R12, Y0)
	ADDQ $32, R12
	ADDQ $32, R9
	DECQ AX
	JNZ  mulSingleCol

mulSingleStore:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ R11, SI
	DECQ BX
	JMP  mulSingle

mulDone:
	VZEROUPPER
	RET
