//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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

// LANE stores lane sel of x to acc[perm[k]] unless perm[k] ≥ n, where
// perm[k] is the 32-bit word at off(DI), and folds perm[k] into the
// running maximum R13.
#define LANE(off, sel, x) \
	MOVL       off(DI), DX     \
	CMPL       DX, R13         \
	CMOVLHI    DX, R13         \
	CMPQ       DX, R12         \
	JCC        2(PC)           \
	VEXTRACTPS $sel, x, (R11)(DX*4)

// func pullAVX2(off []int64, idx, perm []graph.VertexID, contrib, acc []float32) (maxIdx, maxPerm uint32)
//
// SI = &off[k], CX = chunks left, AX = entry, BX = chunk end, R8/R9 = idx
// base/len, DI = &perm[8k], R10 = contrib, R11 = acc, R12 = n (the sink),
// R13 = largest lane, Y13 = largest indices, Y14 = n in every lane,
// Y0 = the chunk's eight sums.
TEXT ·pullAVX2(SB), NOSPLIT, $0-128
	MOVQ         off_base+0(FP), SI
	MOVQ         off_len+8(FP), CX
	DECQ         CX
	MOVQ         idx_base+24(FP), R8
	MOVQ         idx_len+32(FP), R9
	MOVQ         perm_base+48(FP), DI
	MOVQ         contrib_base+72(FP), R10
	MOVQ         acc_base+96(FP), R11
	MOVQ         acc_len+104(FP), R12
	VMOVD        R12, X14
	VPBROADCASTD X14, Y14
	VPXOR        Y13, Y13, Y13
	XORL         R13, R13
	MOVQ         (SI), AX

chunk:
	TESTQ  CX, CX
	JZ     done
	MOVQ   8(SI), BX
	CMPQ   AX, BX
	JHI    bad
	CMPQ   BX, R9
	JHI    bad
	MOVQ   BX, DX
	SUBQ   AX, DX
	TESTQ  $7, DX
	JNZ    bad
	VXORPS Y0, Y0, Y0
	CMPQ   AX, BX
	JEQ    store

step:
	VMOVDQU    (R8)(AX*4), Y1
	VPMAXUD    Y1, Y13, Y13
	VPMINUD    Y1, Y14, Y1
	VPCMPEQD   Y2, Y2, Y2
	VPXOR      Y3, Y3, Y3
	VGATHERDPS Y2, (R10)(Y1*4), Y3
	VADDPS     Y3, Y0, Y0
	ADDQ       $8, AX
	CMPQ       AX, BX
	JNE        step

store:
	VEXTRACTF128 $1, Y0, X4
	LANE(0, 0, X0)
	LANE(4, 1, X0)
	LANE(8, 2, X0)
	LANE(12, 3, X0)
	LANE(16, 0, X4)
	LANE(20, 1, X4)
	LANE(24, 2, X4)
	LANE(28, 3, X4)
	ADDQ         $8, SI
	ADDQ         $32, DI
	DECQ         CX
	JMP          chunk

done:
	VEXTRACTI128 $1, Y13, X1
	VPMAXUD      X1, X13, X13
	VPSHUFD      $0x4e, X13, X1
	VPMAXUD      X1, X13, X13
	VPSHUFD      $0xb1, X13, X1
	VPMAXUD      X1, X13, X13
	VMOVD        X13, AX
	MOVL         AX, maxIdx+120(FP)
	MOVL         R13, maxPerm+124(FP)
	VZEROUPPER
	RET

bad:
	MOVL $0xffffffff, maxIdx+120(FP)
	MOVL R13, maxPerm+124(FP)
	VZEROUPPER
	RET

// func rankAVX2(ranks, contrib, acc, inv []float32, d, base, redis float32) (maxDiff float32, dangling float64)
//
// DI = ranks, SI = contrib, R8 = acc, R9 = inv, CX = length, AX = vertex,
// Y10/Y11/Y12 = d/base/redis, Y13 = the abs mask, Y9 = largest |new−old|,
// Y8 = +0, X7 = dangling sum.
TEXT ·rankAVX2(SB), NOSPLIT, $0-128
	MOVQ         ranks_base+0(FP), DI
	MOVQ         ranks_len+8(FP), CX
	MOVQ         contrib_base+24(FP), SI
	MOVQ         acc_base+48(FP), R8
	MOVQ         inv_base+72(FP), R9
	VBROADCASTSS d+96(FP), Y10
	VBROADCASTSS base+100(FP), Y11
	VBROADCASTSS redis+104(FP), Y12
	MOVL         $0x7fffffff, AX
	VMOVD        AX, X13
	VPBROADCASTD X13, Y13
	VXORPS       Y9, Y9, Y9
	VXORPS       Y8, Y8, Y8
	VXORPD       X7, X7, X7
	XORQ         AX, AX

loop:
	CMPQ      AX, CX
	JCC       done
	VMOVUPS   (R8)(AX*4), Y0
	VMULPS    Y0, Y10, Y0        // d·acc
	VADDPS    Y0, Y11, Y0        // base + d·acc
	VADDPS    Y12, Y0, Y0        // (base + d·acc) + redis
	VMOVUPS   (DI)(AX*4), Y1
	VMOVUPS   Y0, (DI)(AX*4)
	VMOVUPS   (R9)(AX*4), Y2
	VMULPS    Y2, Y0, Y3
	VMOVUPS   Y3, (SI)(AX*4)
	VSUBPS    Y1, Y0, Y4         // new − old
	VANDPS    Y13, Y4, Y4
	VMAXPS    Y9, Y4, Y9         // Y4 > Y9 ? Y4 : Y9, so NaN keeps Y9
	VCMPPS    $0, Y8, Y2, Y5     // inv == 0
	VMOVMSKPS Y5, DX
	TESTL     DX, DX
	JNZ       dangling

next:
	ADDQ $8, AX
	JMP  loop

dangling:
	BSFL      DX, BX
	LEAQ      (AX)(BX*1), R10
	VCVTSS2SD (DI)(R10*4), X6, X6
	VADDSD    X6, X7, X7
	LEAL      -1(DX), BX
	ANDL      BX, DX
	JNZ       dangling
	JMP       next

done:
	VEXTRACTF128 $1, Y9, X0
	VMAXPS       X0, X9, X9
	VPSHUFD      $0x4e, X9, X0
	VMAXPS       X0, X9, X9
	VPSHUFD      $0xb1, X9, X0
	VMAXPS       X0, X9, X9
	VMOVSS       X9, maxDiff+112(FP)
	VMOVSD       X7, dangling+120(FP)
	VZEROUPPER
	RET
