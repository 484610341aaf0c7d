//go:build !amd64

package storage

import "hash/crc64"

// crc64Update is the table-driven CRC-64/ECMA scan; only amd64 has the
// carry-less-multiply kernel.
func crc64Update(crc uint64, p []byte) uint64 { return crc64.Update(crc, ecmaTable, p) }
