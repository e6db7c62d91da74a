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

// func pullAVX2(chunk, off []int64, enc []uint16, perm []graph.VertexID, vals, acc []float32, add bool) (maxIdx, maxPerm uint32)
//
// SI = &chunk[k], R14 = &off[k], CX = chunks left, R8 = enc base, AX =
// steps left in the chunk, BX = address of its next step, DX = 1 for a
// narrow chunk, R9 scratch, DI = &perm[8k], R10 = vals, R11 = acc, R12 = n
// (the lane sink), R13 = largest lane, Y1 = a narrow chunk's running
// indices, Y12 = EndOfRow in every lane, Y13 = largest indices, Y14 =
// len(vals)-1 (the index clamp and the sink) in every lane, Y15 = n in
// every lane, Y0 = the chunk's eight sums.
TEXT ·pullAVX2(SB), NOSPLIT, $0-160
	MOVQ         chunk_base+0(FP), SI
	MOVQ         chunk_len+8(FP), CX
	DECQ         CX
	MOVQ         off_base+24(FP), R14
	MOVQ         enc_base+48(FP), R8
	MOVQ         perm_base+72(FP), DI
	MOVQ         vals_base+96(FP), R10
	MOVQ         vals_len+104(FP), DX
	DECQ         DX
	VMOVD        DX, X14
	VPBROADCASTD X14, Y14
	MOVQ         acc_base+120(FP), R11
	MOVQ         acc_len+128(FP), R12
	VMOVD        R12, X15
	VPBROADCASTD X15, Y15
	MOVL         $0xffff, DX
	VMOVD        DX, X12
	VPBROADCASTD X12, Y12
	VPXOR        Y13, Y13, Y13
	XORL         R13, R13

chunk:
	TESTQ CX, CX
	JZ    done

	// The chunk's steps, from its entry offsets: whole steps, in order.
	MOVQ  8(SI), AX
	SUBQ  (SI), AX
	JLT   bad
	TESTQ $7, AX
	JNZ   bad
	SHRQ  $3, AX

	// Its encoding, in order and inside enc, of 16·steps uint16s (wide)
	// or, from two steps on, 8·(steps+1) (narrow).
	MOVQ (R14), BX
	MOVQ 8(R14), DX
	CMPQ BX, DX
	JHI  bad
	CMPQ DX, enc_len+56(FP)
	JHI  bad
	SUBQ BX, DX
	LEAQ (R8)(BX*2), BX
	MOVQ AX, R9
	SHLQ $4, R9
	CMPQ DX, R9
	JEQ  wide
	CMPQ AX, $2
	JCS  bad
	LEAQ 1(AX), R9
	SHLQ $3, R9
	CMPQ DX, R9
	JNE  bad
	MOVL $1, DX
	JMP  start

wide:
	XORL DX, DX

start:
	VXORPS Y0, Y0, Y0
	CMPB   add+144(FP), $0
	JEQ    sum
	TESTQ  AX, AX
	JZ     next

	// Accumulate: the sums start from acc[perm[i]] for the real lanes.
	VMOVDQU    (DI), Y5
	VPMINUD    Y5, Y15, Y5
	VPCMPEQD   Y5, Y15, Y6
	VPCMPEQD   Y7, Y7, Y7
	VPXOR      Y7, Y6, Y6
	VGATHERDPS Y6, (R11)(Y5*4), Y0

sum:
	TESTQ AX, AX
	JZ    store
	TESTQ DX, DX
	JNZ   narrow

wstep:
	VMOVDQU    (BX), Y1
	VPMAXUD    Y1, Y13, Y13
	VPMINUD    Y1, Y14, Y1
	VPCMPEQD   Y2, Y2, Y2
	VPXOR      Y3, Y3, Y3
	VGATHERDPS Y2, (R10)(Y1*4), Y3
	VADDPS     Y3, Y0, Y0
	ADDQ       $32, BX
	DECQ       AX
	JNZ        wstep
	JMP        store

	// A narrow chunk: step 0 is eight 32-bit indices, each later step
	// eight 16-bit differences, widened and added to the running indices;
	// a lane at EndOfRow moves to the sink.
narrow:
	VMOVDQU (BX), Y1
	ADDQ    $32, BX
	JMP     nsum

nstep:
	VPMOVZXWD (BX), Y4
	VPCMPEQD  Y4, Y12, Y5
	VPADDD    Y4, Y1, Y1
	VPBLENDVB Y5, Y14, Y1, Y1
	ADDQ      $16, BX

nsum:
	VPMAXUD    Y1, Y13, Y13
	VPMINUD    Y1, Y14, Y6
	VPCMPEQD   Y2, Y2, Y2
	VPXOR      Y3, Y3, Y3
	VGATHERDPS Y2, (R10)(Y6*4), Y3
	VADDPS     Y3, Y0, Y0
	DECQ       AX
	JNZ        nstep

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

next:
	ADDQ $8, SI
	ADDQ $8, R14
	ADDQ $32, DI
	DECQ CX
	JMP  chunk

done:
	VEXTRACTI128 $1, Y13, X1
	VPMAXUD      X1, X13, X13
	VPSHUFD      $0x4e, X13, X1
	VPMAXUD      X1, X13, X13
	VPSHUFD      $0xb1, X13, X1
	VPMAXUD      X1, X13, X13
	VMOVD        X13, AX
	MOVL         AX, maxIdx+152(FP)
	MOVL         R13, maxPerm+156(FP)
	VZEROUPPER
	RET

bad:
	MOVL $0xffffffff, maxIdx+152(FP)
	MOVL R13, maxPerm+156(FP)
	VZEROUPPER
	RET

// func rankAVX2(ranks, next, contrib, acc, inv, add []float32, d, base, redis float32) (maxDiff float32, dangling float64)
//
// R12 = ranks, DI = next, SI = contrib, R8 = acc, R9 = inv, R11 = add,
// R13 = len(add) (0: no addend), CX = length, AX = vertex, Y10/Y11/Y12 =
// d/base/redis, Y13 = the abs mask, Y9 = largest |new−old|, Y8 = +0, X7 =
// dangling sum.
TEXT ·rankAVX2(SB), NOSPLIT, $0-176
	MOVQ         ranks_base+0(FP), R12
	MOVQ         ranks_len+8(FP), CX
	MOVQ         next_base+24(FP), DI
	MOVQ         contrib_base+48(FP), SI
	MOVQ         acc_base+72(FP), R8
	MOVQ         inv_base+96(FP), R9
	MOVQ         add_base+120(FP), R11
	MOVQ         add_len+128(FP), R13
	VBROADCASTSS d+144(FP), Y10
	VBROADCASTSS base+148(FP), Y11
	VBROADCASTSS redis+152(FP), Y12
	MOVL         $0x7fffffff, AX
	VMOVD        AX, X13
	VPBROADCASTD X13, Y13
	VXORPS       Y9, Y9, Y9
	VXORPS       Y8, Y8, Y8
	VXORPD       X7, X7, X7
	XORQ         AX, AX

loop:
	CMPQ    AX, CX
	JCC     done
	VMOVUPS (R8)(AX*4), Y0
	VMULPS  Y0, Y10, Y0        // d·acc
	VADDPS  Y0, Y11, Y0        // base + d·acc
	VADDPS  Y12, Y0, Y0        // (base + d·acc) + redis
	TESTQ   R13, R13
	JZ      update
	VADDPS  (R11)(AX*4), Y0, Y0 // ((base + d·acc) + redis) + add

update:
	VMOVUPS   (R12)(AX*4), Y1   // old, read before the store: next may be ranks
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

advance:
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
	JMP       advance

done:
	VEXTRACTF128 $1, Y9, X0
	VMAXPS       X0, X9, X9
	VPSHUFD      $0x4e, X9, X0
	VMAXPS       X0, X9, X9
	VPSHUFD      $0xb1, X9, X0
	VMAXPS       X0, X9, X9
	VMOVSS       X9, maxDiff+160(FP)
	VMOVSD       X7, dangling+168(FP)
	VZEROUPPER
	RET
