#include "textflag.h"

// AVX2 kernels for Adam.Step, BackwardVec, mulVec, Panels, Sigmoid
// and Tanh. Every packed instruction here rounds each lane exactly as
// its scalar form does, and each lane sees the scalar code's
// operations in the scalar code's order. The Go loops compile without
// fusing at GOAMD64=v1, so the kernels that replace them use no FMA;
// the one FMA sequence, EXP_FUSED, replays math.Exp's own assembly on
// the CPUs where that assembly uses FMA.

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
//   g    = g*scale
//   live = g != 0 || m != 0 || v != 0   (NaN counts as nonzero)
//   m'   = b1*m + c1*g
//   v'   = b2*v + (c2*g)*g
//   w'   = w - lr*(m'/b1c) / (sqrt(v'/b2c) + eps)   (lr*m' when unbias is 0)
//   g'   = 0
// and a blend on the live mask keeps the old W, m and v bits and the
// scaled g on the other lanes.
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
	MOVQ 96(DI), R8         // unbias
	VXORPD Y8, Y8, Y8       // +0
	VXORPD Y9, Y9, Y9       // OR of the live masks
	SHRQ $2, SI
	JZ   adamDone

adamLoop:
	VMOVUPD (DX), Y10     // g
	VMULPD  64(DI), Y10, Y10 // g*scale
	VMOVUPD (BX), Y11     // m
	VMOVUPD (CX), Y12     // v

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

	// w' = w - lr*(m'/b1c) / (sqrt(v'/b2c) + eps); the m'/b1c divide
	// is skipped once b1c is 1. The branch goes the same way on every
	// iteration of a call.
	TESTQ  R8, R8
	JZ     adamNoUnbias
	VDIVPD Y4, Y11, Y14
	VMULPD Y14, Y6, Y14
	JMP    adamUnbiased

adamNoUnbias:
	VMULPD Y11, Y6, Y14

adamUnbiased:
	VDIVPD    Y5, Y12, Y15
	VSQRTPD   Y15, Y15
	VADDPD    Y7, Y15, Y15
	VDIVPD    Y15, Y14, Y14
	VMOVUPD   (AX), Y15
	VSUBPD    Y14, Y15, Y14
	VBLENDVPD Y13, Y14, Y15, Y15
	VMOVUPD   Y15, (AX)

	// g' = +0 on live lanes, the scaled g on the others
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
// of four), as in mulVec's four-row block:
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

// func panelMulAddAVX2(p, x, y []float64)
//
// For each whole panel q of p (len(x) groups of four: group j holds
// column j of rows 4q..4q+3, one row per lane), as in mulVec's
// row loop followed by the add:
//   y[4q+r] += (((+0 + w[4q+r][0]*x[0]) + w[4q+r][1]*x[1]) + ...) + w[4q+r][n-1]*x[n-1]
// over all n = len(x) columns, for len(y)/4 panels. Each lane of an
// accumulator is one row's running sum, so no transpose is needed.
// Four panels (sixteen rows) run interleaved; the last run one at a
// time.
TEXT ·panelMulAddAVX2(SB), NOSPLIT, $0-72
	MOVQ p_base+0(FP), SI
	MOVQ x_base+24(FP), R8
	MOVQ x_len+32(FP), CX
	MOVQ y_base+48(FP), DI
	MOVQ y_len+56(FP), BX
	MOVQ CX, DX
	SHLQ $5, DX                // panel stride in bytes
	LEAQ (DX)(DX*2), R10       // three panels
	SHRQ $2, BX                // panels

panelOct:
	CMPQ BX, $8
	JB   panelQuad
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	MOVQ SI, R12
	LEAQ (SI)(DX*4), R13
	MOVQ R8, R9
	MOVQ CX, AX
	TESTQ AX, AX
	JZ   panelOctStore

panelOctCol:
	VBROADCASTSD (R9), Y4
	VMULPD (R12), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD (R12)(DX*1), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD (R12)(DX*2), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD (R12)(R10*1), Y4, Y12
	VADDPD Y12, Y3, Y3
	VMULPD (R13), Y4, Y13
	VADDPD Y13, Y8, Y8
	VMULPD (R13)(DX*1), Y4, Y14
	VADDPD Y14, Y9, Y9
	VMULPD (R13)(DX*2), Y4, Y15
	VADDPD Y15, Y10, Y10
	VMULPD (R13)(R10*1), Y4, Y5
	VADDPD Y5, Y11, Y11
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $8, R9
	DECQ AX
	JNZ  panelOctCol

panelOctStore:
	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	VADDPD  32(DI), Y1, Y1
	VMOVUPD Y1, 32(DI)
	VADDPD  64(DI), Y2, Y2
	VMOVUPD Y2, 64(DI)
	VADDPD  96(DI), Y3, Y3
	VMOVUPD Y3, 96(DI)
	VADDPD  128(DI), Y8, Y8
	VMOVUPD Y8, 128(DI)
	VADDPD  160(DI), Y9, Y9
	VMOVUPD Y9, 160(DI)
	VADDPD  192(DI), Y10, Y10
	VMOVUPD Y10, 192(DI)
	VADDPD  224(DI), Y11, Y11
	VMOVUPD Y11, 224(DI)
	ADDQ $256, DI
	LEAQ (SI)(DX*8), SI
	SUBQ $8, BX
	JMP  panelOct

panelQuad:
	CMPQ BX, $4
	JB   panelSingle
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, R12
	MOVQ R8, R9
	MOVQ CX, AX
	TESTQ AX, AX
	JZ   panelQuadStore

panelQuadCol:
	VBROADCASTSD (R9), Y4
	VMULPD (R12), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD (R12)(DX*1), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD (R12)(DX*2), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD (R12)(R10*1), Y4, Y8
	VADDPD Y8, Y3, Y3
	ADDQ $32, R12
	ADDQ $8, R9
	DECQ AX
	JNZ  panelQuadCol

panelQuadStore:
	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	VADDPD  32(DI), Y1, Y1
	VMOVUPD Y1, 32(DI)
	VADDPD  64(DI), Y2, Y2
	VMOVUPD Y2, 64(DI)
	VADDPD  96(DI), Y3, Y3
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	LEAQ (SI)(DX*4), SI
	SUBQ $4, BX
	JMP  panelQuad

panelSingle:
	TESTQ BX, BX
	JZ    panelDone
	VXORPD Y0, Y0, Y0
	MOVQ SI, R12
	MOVQ R8, R9
	MOVQ CX, AX
	TESTQ AX, AX
	JZ   panelSingleStore

panelSingleCol:
	VBROADCASTSD (R9), Y4
	VMULPD (R12), Y4, Y5
	VADDPD Y5, Y0, Y0
	ADDQ $32, R12
	ADDQ $8, R9
	DECQ AX
	JNZ  panelSingleCol

panelSingleStore:
	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ DX, SI
	DECQ BX
	JMP  panelSingle

panelDone:
	VZEROUPPER
	RET

// Activation kernels. Sigmoid and Tanh call math.Exp, which on amd64
// is the assembly routine archExp in package math. EXP_PLAIN and
// EXP_FUSED replay its two paths, instruction for instruction, four
// lanes at a time: EXP_FUSED is the path math.Exp takes on a CPU with
// AVX and FMA, EXP_PLAIN the one it takes otherwise. Both leave out
// archExp's overflow, underflow and denormal branches, so a caller
// must only pass lanes with |x| <= 700, where archExp's exponent k
// lies in [-1010, 1010] and it takes none of them. Each sets Y0 to
// exp(Y0) and clobbers Y1, Y2 and Y3.

DATA actconst<>+0(SB)/8, $1.4426950408889634073599246810018920
DATA actconst<>+8(SB)/8, $1.4426950408889634073599246810018920
DATA actconst<>+16(SB)/8, $1.4426950408889634073599246810018920
DATA actconst<>+24(SB)/8, $1.4426950408889634073599246810018920
DATA actconst<>+32(SB)/8, $0.69314718055966295651160180568695068359375
DATA actconst<>+40(SB)/8, $0.69314718055966295651160180568695068359375
DATA actconst<>+48(SB)/8, $0.69314718055966295651160180568695068359375
DATA actconst<>+56(SB)/8, $0.69314718055966295651160180568695068359375
DATA actconst<>+64(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA actconst<>+72(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA actconst<>+80(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA actconst<>+88(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA actconst<>+96(SB)/8, $0.0625
DATA actconst<>+104(SB)/8, $0.0625
DATA actconst<>+112(SB)/8, $0.0625
DATA actconst<>+120(SB)/8, $0.0625
DATA actconst<>+128(SB)/8, $2.4801587301587301587e-5
DATA actconst<>+136(SB)/8, $2.4801587301587301587e-5
DATA actconst<>+144(SB)/8, $2.4801587301587301587e-5
DATA actconst<>+152(SB)/8, $2.4801587301587301587e-5
DATA actconst<>+160(SB)/8, $1.9841269841269841270e-4
DATA actconst<>+168(SB)/8, $1.9841269841269841270e-4
DATA actconst<>+176(SB)/8, $1.9841269841269841270e-4
DATA actconst<>+184(SB)/8, $1.9841269841269841270e-4
DATA actconst<>+192(SB)/8, $1.3888888888888888889e-3
DATA actconst<>+200(SB)/8, $1.3888888888888888889e-3
DATA actconst<>+208(SB)/8, $1.3888888888888888889e-3
DATA actconst<>+216(SB)/8, $1.3888888888888888889e-3
DATA actconst<>+224(SB)/8, $8.3333333333333333333e-3
DATA actconst<>+232(SB)/8, $8.3333333333333333333e-3
DATA actconst<>+240(SB)/8, $8.3333333333333333333e-3
DATA actconst<>+248(SB)/8, $8.3333333333333333333e-3
DATA actconst<>+256(SB)/8, $4.1666666666666666667e-2
DATA actconst<>+264(SB)/8, $4.1666666666666666667e-2
DATA actconst<>+272(SB)/8, $4.1666666666666666667e-2
DATA actconst<>+280(SB)/8, $4.1666666666666666667e-2
DATA actconst<>+288(SB)/8, $1.6666666666666666667e-1
DATA actconst<>+296(SB)/8, $1.6666666666666666667e-1
DATA actconst<>+304(SB)/8, $1.6666666666666666667e-1
DATA actconst<>+312(SB)/8, $1.6666666666666666667e-1
DATA actconst<>+320(SB)/8, $0.5
DATA actconst<>+328(SB)/8, $0.5
DATA actconst<>+336(SB)/8, $0.5
DATA actconst<>+344(SB)/8, $0.5
DATA actconst<>+352(SB)/8, $1.0
DATA actconst<>+360(SB)/8, $1.0
DATA actconst<>+368(SB)/8, $1.0
DATA actconst<>+376(SB)/8, $1.0
DATA actconst<>+384(SB)/8, $2.0
DATA actconst<>+392(SB)/8, $2.0
DATA actconst<>+400(SB)/8, $2.0
DATA actconst<>+408(SB)/8, $2.0
DATA actconst<>+416(SB)/4, $1023
DATA actconst<>+420(SB)/4, $1023
DATA actconst<>+424(SB)/4, $1023
DATA actconst<>+428(SB)/4, $1023
DATA actconst<>+432(SB)/8, $0
DATA actconst<>+440(SB)/8, $0
DATA actconst<>+448(SB)/8, $0x8000000000000000
DATA actconst<>+456(SB)/8, $0x8000000000000000
DATA actconst<>+464(SB)/8, $0x8000000000000000
DATA actconst<>+472(SB)/8, $0x8000000000000000
DATA actconst<>+480(SB)/8, $0x7fffffffffffffff
DATA actconst<>+488(SB)/8, $0x7fffffffffffffff
DATA actconst<>+496(SB)/8, $0x7fffffffffffffff
DATA actconst<>+504(SB)/8, $0x7fffffffffffffff
DATA actconst<>+512(SB)/8, $700.0
DATA actconst<>+520(SB)/8, $700.0
DATA actconst<>+528(SB)/8, $700.0
DATA actconst<>+536(SB)/8, $700.0
DATA actconst<>+544(SB)/8, $44.014845965556527147994
DATA actconst<>+552(SB)/8, $44.014845965556527147994
DATA actconst<>+560(SB)/8, $44.014845965556527147994
DATA actconst<>+568(SB)/8, $44.014845965556527147994
DATA actconst<>+576(SB)/8, $0.625
DATA actconst<>+584(SB)/8, $0.625
DATA actconst<>+592(SB)/8, $0.625
DATA actconst<>+600(SB)/8, $0.625
DATA actconst<>+608(SB)/8, $-9.64399179425052238628e-1
DATA actconst<>+616(SB)/8, $-9.64399179425052238628e-1
DATA actconst<>+624(SB)/8, $-9.64399179425052238628e-1
DATA actconst<>+632(SB)/8, $-9.64399179425052238628e-1
DATA actconst<>+640(SB)/8, $-9.92877231001918586564e1
DATA actconst<>+648(SB)/8, $-9.92877231001918586564e1
DATA actconst<>+656(SB)/8, $-9.92877231001918586564e1
DATA actconst<>+664(SB)/8, $-9.92877231001918586564e1
DATA actconst<>+672(SB)/8, $-1.61468768441708447952e3
DATA actconst<>+680(SB)/8, $-1.61468768441708447952e3
DATA actconst<>+688(SB)/8, $-1.61468768441708447952e3
DATA actconst<>+696(SB)/8, $-1.61468768441708447952e3
DATA actconst<>+704(SB)/8, $1.12811678491632931402e2
DATA actconst<>+712(SB)/8, $1.12811678491632931402e2
DATA actconst<>+720(SB)/8, $1.12811678491632931402e2
DATA actconst<>+728(SB)/8, $1.12811678491632931402e2
DATA actconst<>+736(SB)/8, $2.23548839060100448583e3
DATA actconst<>+744(SB)/8, $2.23548839060100448583e3
DATA actconst<>+752(SB)/8, $2.23548839060100448583e3
DATA actconst<>+760(SB)/8, $2.23548839060100448583e3
DATA actconst<>+768(SB)/8, $4.84406305325125486048e3
DATA actconst<>+776(SB)/8, $4.84406305325125486048e3
DATA actconst<>+784(SB)/8, $4.84406305325125486048e3
DATA actconst<>+792(SB)/8, $4.84406305325125486048e3
GLOBL actconst<>(SB), RODATA|NOPTR, $800

#define C_LOG2E actconst<>+0(SB)
#define C_LN2U actconst<>+32(SB)
#define C_LN2L actconst<>+64(SB)
#define C_SIXTEENTH actconst<>+96(SB)
#define C_E8 actconst<>+128(SB)
#define C_E7 actconst<>+160(SB)
#define C_E6 actconst<>+192(SB)
#define C_E5 actconst<>+224(SB)
#define C_E4 actconst<>+256(SB)
#define C_E3 actconst<>+288(SB)
#define C_HALF actconst<>+320(SB)
#define C_ONE actconst<>+352(SB)
#define C_TWO actconst<>+384(SB)
#define C_BIAS actconst<>+416(SB)
#define C_SIGN actconst<>+448(SB)
#define C_ABS actconst<>+480(SB)
#define C_SIGMAX actconst<>+512(SB)
#define C_TANHMAX actconst<>+544(SB)
#define C_TANHMID actconst<>+576(SB)
#define C_TP0 actconst<>+608(SB)
#define C_TP1 actconst<>+640(SB)
#define C_TP2 actconst<>+672(SB)
#define C_TQ0 actconst<>+704(SB)
#define C_TQ1 actconst<>+736(SB)
#define C_TQ2 actconst<>+768(SB)

// EXP_HEAD is the argument reduction both paths share up to the
// subtraction: Y1 = k = round(x*LOG2E) as a float (CVTSD2SL rounds to
// nearest, like VCVTPD2DQ), X2 = k as int32.
#define EXP_HEAD \
	VMULPD     C_LOG2E, Y0, Y1; \
	VCVTPD2DQY Y1, X2; \
	VCVTDQ2PD  X2, Y1

// EXP_SCALE multiplies Y0 by 2**k, built from the int32 k in X2 as
// archExp builds it: (k + 0x3FF) << 52.
#define EXP_SCALE \
	VPADDD    C_BIAS, X2, X2; \
	VPMOVZXDQ X2, Y2; \
	VPSLLQ    $52, Y2, Y2; \
	VMULPD    Y2, Y0, Y0

#define EXP_PLAIN \
	EXP_HEAD; \
	VMULPD C_LN2U, Y1, Y3; \
	VSUBPD Y3, Y0, Y0; \
	VMULPD C_LN2L, Y1, Y3; \
	VSUBPD Y3, Y0, Y0; \
	VMULPD C_SIXTEENTH, Y0, Y0; \
	VMULPD C_E8, Y0, Y1; \
	VADDPD C_E7, Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD C_E6, Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD C_E5, Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD C_E4, Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD C_E3, Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD C_HALF, Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD C_ONE, Y1, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD C_TWO, Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD C_TWO, Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD C_TWO, Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD C_TWO, Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD C_ONE, Y0, Y0; \
	EXP_SCALE

#define EXP_FUSED \
	EXP_HEAD; \
	VFNMADD231PD C_LN2U, Y1, Y0; \
	VFNMADD231PD C_LN2L, Y1, Y0; \
	VMULPD       C_SIXTEENTH, Y0, Y0; \
	VMOVUPD      C_E8, Y1; \
	VFMADD213PD  C_E7, Y0, Y1; \
	VFMADD213PD  C_E6, Y0, Y1; \
	VFMADD213PD  C_E5, Y0, Y1; \
	VFMADD213PD  C_E4, Y0, Y1; \
	VFMADD213PD  C_E3, Y0, Y1; \
	VFMADD213PD  C_HALF, Y0, Y1; \
	VFMADD213PD  C_ONE, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       C_TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       C_TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       C_TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       C_TWO, Y0, Y1; \
	VFMADD213PD  C_ONE, Y1, Y0; \
	EXP_SCALE

// func sigmoidAVX2(src, dst []float64, fused bool) (n int)
//
// Per lane, as in Sigmoid: dst = 1 / (1 + exp(-src)), exp on the
// fused path when fused is set. It stops at the first four-element
// group holding a value with |x| > 700 or a NaN and returns how many
// elements it wrote, a multiple of four.
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-64
	MOVQ    src_base+0(FP), SI
	MOVQ    src_len+8(FP), CX
	MOVQ    dst_base+24(FP), DI
	MOVBLZX fused+48(FP), DX
	XORQ    AX, AX
	SHRQ    $2, CX
	JZ      sigDone

sigLoop:
	VMOVUPD   (SI)(AX*8), Y0
	VANDPD    C_ABS, Y0, Y1
	VCMPPD    $2, C_SIGMAX, Y1, Y1 // LE_OS: false for NaN
	VMOVMSKPD Y1, BX
	CMPL      BX, $15
	JNE       sigDone
	VXORPD    C_SIGN, Y0, Y0
	TESTL     DX, DX
	JZ        sigPlain
	EXP_FUSED
	JMP       sigStore

sigPlain:
	EXP_PLAIN

sigStore:
	VADDPD  C_ONE, Y0, Y0
	VMOVUPD C_ONE, Y1
	VDIVPD  Y0, Y1, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	DECQ    CX
	JNZ     sigLoop

sigDone:
	MOVQ AX, n+56(FP)
	VZEROUPPER
	RET

// func tanhAVX2(src, dst []float64, fused bool) (n int)
//
// Per lane, math.Tanh's two finite branches, both computed and blended
// on z = |x| >= 0.625:
//   z >= 0.625: r = 1 - 2/(exp(2z)+1), negated for x < 0
//   otherwise:  s = x*x; r = x + ((x*s)*((P0*s+P1)*s+P2)) / (((s+Q0)*s+Q1)*s+Q2),
//               and r = x where x == 0 (so -0 stays -0)
// It stops at the first four-element group holding a value with
// |x| > 0.5*MAXLOG (where math.Tanh returns ±1) or a NaN and returns
// how many elements it wrote, a multiple of four.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-64
	MOVQ    src_base+0(FP), SI
	MOVQ    src_len+8(FP), CX
	MOVQ    dst_base+24(FP), DI
	MOVBLZX fused+48(FP), DX
	XORQ    AX, AX
	SHRQ    $2, CX
	JZ      tanhDone

tanhLoop:
	VMOVUPD   (SI)(AX*8), Y4 // x
	VANDPD    C_ABS, Y4, Y5  // z
	VCMPPD    $2, C_TANHMAX, Y5, Y1
	VMOVMSKPD Y1, BX
	CMPL      BX, $15
	JNE       tanhDone

	VADDPD Y5, Y5, Y0 // 2z
	TESTL  DX, DX
	JZ     tanhPlain
	EXP_FUSED
	JMP    tanhBig

tanhPlain:
	EXP_PLAIN

tanhBig:
	VADDPD  C_ONE, Y0, Y0
	VMOVUPD C_TWO, Y1
	VDIVPD  Y0, Y1, Y0
	VMOVUPD C_ONE, Y1
	VSUBPD  Y0, Y1, Y0
	VANDPD  C_SIGN, Y4, Y1
	VXORPD  Y1, Y0, Y0

	VMULPD Y4, Y4, Y6 // s
	VMULPD C_TP0, Y6, Y7
	VADDPD C_TP1, Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD C_TP2, Y7, Y7
	VMULPD Y6, Y4, Y8
	VMULPD Y7, Y8, Y8
	VADDPD C_TQ0, Y6, Y9
	VMULPD Y6, Y9, Y9
	VADDPD C_TQ1, Y9, Y9
	VMULPD Y6, Y9, Y9
	VADDPD C_TQ2, Y9, Y9
	VDIVPD Y9, Y8, Y8
	VADDPD Y8, Y4, Y8
	VXORPD    Y10, Y10, Y10
	VCMPPD    $0, Y10, Y4, Y11 // EQ_OQ
	VBLENDVPD Y11, Y4, Y8, Y8

	VCMPPD    $13, C_TANHMID, Y5, Y11 // GE_OS
	VBLENDVPD Y11, Y0, Y8, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	DECQ      CX
	JNZ       tanhLoop

tanhDone:
	MOVQ AX, n+56(FP)
	VZEROUPPER
	RET
