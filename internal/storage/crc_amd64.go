package storage

import (
	"encoding/binary"
	"hash/crc64"
)

// clmulFold holds the kernel's fold multipliers, x^n mod P for the
// reflected CRC-64/ECMA polynomial P, each stored bit-reflected like the CRC
// itself. A 128-bit lane H·x^64 + L moved d bits further down the message
// becomes H·(x^(d+63) mod P) + L·(x^(d-1) mod P) under carry-less multiply;
// the -1 absorbs the one-bit shift a product of two reflected 64-bit values
// carries. The first pair folds by d = 512 (four lanes, 64 bytes), the second
// by d = 128 (one lane, 16 bytes). TestCLMULFoldConstants rederives them from
// the ECMA byte table.
var clmulFold = [4]uint64{
	0x6ae3efbb9dd441f3, // x^575
	0x081f6054a7842df4, // x^511
	0xe05dd497ca393ae4, // x^191
	0xdabe95afc7875f40, // x^127
}

// clmulMinLen is the shortest input the carry-less-multiply kernel takes:
// one 64-byte block fills its four lanes. Shorter inputs use the table.
const clmulMinLen = 64

// hasPCLMULQDQ reports whether the CPU runs the carry-less-multiply kernel,
// probed once when the package initializes.
var hasPCLMULQDQ = cpuHasPCLMULQDQ()

func cpuHasPCLMULQDQ() bool

//go:noescape
func crc64CLMUL(crc uint64, p []byte) (lo, hi uint64)

// crc64Update folds the 16-byte-aligned bulk of p with the kernel, then runs
// the folded remainder (as a 16-byte message from a zero register) and the
// tail of fewer than 16 bytes through the table.
func crc64Update(crc uint64, p []byte) uint64 {
	if len(p) < clmulMinLen || !hasPCLMULQDQ {
		return crc64.Update(crc, ecmaTable, p)
	}
	n := len(p) &^ 15
	lo, hi := crc64CLMUL(^crc, p[:n])
	var r [16]byte
	binary.LittleEndian.PutUint64(r[:8], lo)
	binary.LittleEndian.PutUint64(r[8:], hi)
	crc = crc64.Update(^uint64(0), ecmaTable, r[:])
	return crc64.Update(crc, ecmaTable, p[n:])
}
