#include "textflag.h"

// func crc64CLMUL(crc uint64, p []byte) (lo, hi uint64)
//
// Folds p (len(p) >= 64, a multiple of 16) into one 128-bit remainder R,
// congruent modulo the CRC-64/ECMA polynomial to p's message polynomial with
// crc XORed into its first eight bytes. The caller finishes R as a 16-byte
// message with the byte table. Four lanes fold 64-byte blocks by x^512 (the
// clmulFold constants' first pair), then every further 16 bytes fold into one
// lane by x^128 (the second pair); the layout follows hash/crc32's ieeeCLMUL.
TEXT ·crc64CLMUL(SB), NOSPLIT, $0-48
	MOVQ crc+0(FP), X0
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), CX

	MOVOU (SI), X1
	MOVOU 16(SI), X2
	MOVOU 32(SI), X3
	MOVOU 48(SI), X4
	PXOR  X0, X1
	ADDQ  $64, SI
	SUBQ  $64, CX
	CMPQ  CX, $64
	JB    fold4

	MOVOU ·clmulFold+0(SB), X0

loop64:
	// Prefetch 2 KiB (32 blocks) ahead: without it the four fold chains
	// stall on input outside L2, and 32 MiB scans ran at a third of the
	// in-L2 rate.
	PREFETCHT0 2048(SI)
	MOVOA      X1, X5
	MOVOA X2, X6
	MOVOA X3, X7
	MOVOA X4, X8

	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x00, X0, X2
	PCLMULQDQ $0x00, X0, X3
	PCLMULQDQ $0x00, X0, X4

	MOVOU (SI), X11
	MOVOU 16(SI), X12
	MOVOU 32(SI), X13
	MOVOU 48(SI), X14

	PCLMULQDQ $0x11, X0, X5
	PCLMULQDQ $0x11, X0, X6
	PCLMULQDQ $0x11, X0, X7
	PCLMULQDQ $0x11, X0, X8

	PXOR X5, X1
	PXOR X6, X2
	PXOR X7, X3
	PXOR X8, X4

	PXOR X11, X1
	PXOR X12, X2
	PXOR X13, X3
	PXOR X14, X4

	ADDQ $64, SI
	SUBQ $64, CX
	CMPQ CX, $64
	JAE  loop64

fold4:
	// Fold the four lanes into X1, 16 bytes at a time.
	MOVOU ·clmulFold+16(SB), X0

	MOVOA     X1, X5
	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X2, X1

	MOVOA     X1, X5
	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X3, X1

	MOVOA     X1, X5
	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X4, X1

	CMPQ CX, $16
	JB   done

loop16:
	MOVOU     (SI), X10
	MOVOA     X1, X5
	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X10, X1
	ADDQ      $16, SI
	SUBQ      $16, CX
	CMPQ      CX, $16
	JAE       loop16

done:
	MOVQ   X1, lo+32(FP)
	PSRLDQ $8, X1
	MOVQ   X1, hi+40(FP)
	RET

// func cpuHasPCLMULQDQ() bool
TEXT ·cpuHasPCLMULQDQ(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	SHRL  $1, CX
	ANDL  $1, CX
	MOVB  CX, ret+0(FP)
	RET
