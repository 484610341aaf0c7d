package storage

import "hash/crc64"

// ecmaTable is the CRC-64/ECMA byte table: the whole scan on inputs
// too short for the carry-less-multiply kernel (or CPUs without one), and
// the kernel's finish on the folded remainder and the tail.
var ecmaTable = crc64.MakeTable(crc64.ECMA)

// CRC64 extends a running CRC-64/ECMA with p — the polynomial every end of
// the data plane agrees on (dataplane.Plane.Checksum, File.StoreChecksum),
// and the one checksum kernel both ends run. On amd64 with PCLMULQDQ it
// folds inputs of 64 bytes and more by carry-less multiply; the result
// always equals hash/crc64.Update with the ECMA table.
func CRC64(crc uint64, p []byte) uint64 { return crc64Update(crc, p) }

// crc64Poly is the reflected CRC-64/ECMA polynomial (the bit order
// hash/crc64 computes in), needed to build the combine operator matrices.
const crc64Poly = 0xC96C5795D7870F42

// CRC64Combine merges two independently computed CRC-64/ECMA checksums:
// given crc1 over a byte stream A and crc2 over a stream B (each computed
// from a zero initial value, as crc64.Update(0, …) does), it returns the
// checksum of the concatenation A‖B, where len2 is len(B). This is zlib's
// crc32_combine ported to 64 bits: appending len2 bytes to A multiplies
// A's CRC state by x^(8·len2) in GF(2)[x]/poly, and that linear operator is
// applied via O(log len2) squarings of a 64×64 GF(2) matrix. It lets
// checksum work shard across workers and merge in order afterwards.
func CRC64Combine(crc1, crc2 uint64, len2 int64) uint64 {
	if len2 <= 0 {
		return crc1 ^ crc2
	}
	var even, odd [64]uint64 // operator matrices: shift by 2^k zero bits

	// odd = the one-zero-bit shift operator for the reflected polynomial.
	odd[0] = crc64Poly
	row := uint64(1)
	for n := 1; n < 64; n++ {
		odd[n] = row
		row <<= 1
	}
	gf2MatrixSquare(&even, &odd) // even = shift by 2 bits
	gf2MatrixSquare(&odd, &even) // odd  = shift by 4 bits

	// Apply shift-by-len2-bytes: square up through len2's bits, multiplying
	// crc1 by the operator wherever a bit is set.
	for {
		gf2MatrixSquare(&even, &odd)
		if len2&1 != 0 {
			crc1 = gf2MatrixTimes(&even, crc1)
		}
		len2 >>= 1
		if len2 == 0 {
			break
		}
		gf2MatrixSquare(&odd, &even)
		if len2&1 != 0 {
			crc1 = gf2MatrixTimes(&odd, crc1)
		}
		len2 >>= 1
		if len2 == 0 {
			break
		}
	}
	return crc1 ^ crc2
}

// gf2MatrixTimes multiplies the GF(2) matrix by the bit-vector vec.
func gf2MatrixTimes(mat *[64]uint64, vec uint64) uint64 {
	var sum uint64
	for i := 0; vec != 0; i++ {
		if vec&1 != 0 {
			sum ^= mat[i]
		}
		vec >>= 1
	}
	return sum
}

// gf2MatrixSquare sets dst to src·src (composing the shift operator with
// itself, doubling the shift distance).
func gf2MatrixSquare(dst, src *[64]uint64) {
	for i := range dst {
		dst[i] = gf2MatrixTimes(src, src[i])
	}
}
