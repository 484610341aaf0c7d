package storage

import (
	"encoding/binary"
	"hash/crc64"
	"testing"
)

// xPowMod returns x^n mod P, bit-reflected, for the CRC-64/ECMA polynomial
// P, derived from the ECMA byte table alone: the table steps a CRC register
// by eight zero bits at a time, and its entry for the byte 0x80 (the lone
// message bit x^0) is x^64 mod P, the reflected polynomial, for single-bit
// steps.
func xPowMod(table *crc64.Table, n int) uint64 {
	poly := table[0x80]
	r := uint64(1) << 63 // x^0
	for ; n >= 8; n -= 8 {
		r = table[byte(r)] ^ r>>8
	}
	for ; n > 0; n-- {
		if r&1 != 0 {
			r = r>>1 ^ poly
		} else {
			r >>= 1
		}
	}
	return r
}

// TestCLMULFoldConstants rederives the kernel's fold multipliers: folding a
// lane d bits down takes x^(d+63) and x^(d-1) mod P, for d = 512 and 128.
func TestCLMULFoldConstants(t *testing.T) {
	table := crc64.MakeTable(crc64.ECMA)
	if table[0x80] != crc64Poly {
		t.Fatalf("table[0x80] = %#x, want the reflected polynomial %#x", table[0x80], uint64(crc64Poly))
	}
	want := [4]uint64{}
	for i, d := range []int{512, 128} {
		want[2*i] = xPowMod(table, d+63)
		want[2*i+1] = xPowMod(table, d-1)
	}
	if clmulFold != want {
		t.Fatalf("clmulFold = %#x, rederived %#x", clmulFold, want)
	}
}

// TestCLMULKernel drives the assembly kernel directly, so a dispatch change
// in crc64Update cannot hide it: its folded remainder, finished as a 16-byte
// message from a zero register, must be hash/crc64's checksum of the input.
func TestCLMULKernel(t *testing.T) {
	if !hasPCLMULQDQ {
		t.Skip("CPU has no PCLMULQDQ; CRC64 runs the table")
	}
	table := crc64.MakeTable(crc64.ECMA)
	p := make([]byte, 1024)
	for i := range p {
		p[i] = byte(i*7 + i>>8)
	}
	for n := clmulMinLen; n <= len(p); n += 16 {
		const start = 0x5a5a5a5a5a5a5a5a
		lo, hi := crc64CLMUL(^uint64(start), p[:n])
		var r [16]byte
		binary.LittleEndian.PutUint64(r[:8], lo)
		binary.LittleEndian.PutUint64(r[8:], hi)
		if got, want := crc64.Update(^uint64(0), table, r[:]), crc64.Update(start, table, p[:n]); got != want {
			t.Fatalf("%d bytes: kernel remainder finishes to %#x, want %#x", n, got, want)
		}
	}
}
