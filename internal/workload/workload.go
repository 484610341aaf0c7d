// Package workload generates the access patterns of the paper's evaluation:
// the IOR-style micro-benchmark (per-rank contiguous blocks) and HACC-IO,
// the I/O kernel of the HACC cosmology code (9 particle variables, 38 bytes
// per particle, in array-of-structures or structure-of-arrays layout).
package workload

import "tapioca/internal/storage"

// HACC particle variables: coordinates, velocity, and physics properties.
// Sizes sum to ParticleBytes (38), as in the paper.
var (
	HACCVarNames = []string{"xx", "yy", "zz", "vx", "vy", "vz", "phi", "pid", "mask"}
	HACCVarSizes = []int64{4, 4, 4, 4, 4, 4, 4, 8, 2}
)

// ParticleBytes is the size of one HACC particle record (38 bytes).
const ParticleBytes = 38

// Layouts for HACC-IO.
const (
	// AoS stores interleaved particle records; writing one variable is a
	// sparse strided pattern (e.g. 4 bytes every 38).
	AoS = iota
	// SoA stores each variable as a file-global array; writing one
	// variable is a dense contiguous block per rank.
	SoA
)

// LayoutName returns "AoS" or "SoA".
func LayoutName(layout int) string {
	if layout == AoS {
		return "AoS"
	}
	return "SoA"
}

// IORSegs returns the IOR-style pattern: rank writes size contiguous bytes
// at rank*size.
func IORSegs(rank int, size int64) []storage.Seg {
	if size <= 0 {
		return nil
	}
	return []storage.Seg{storage.Contig(int64(rank)*size, size)}
}

// HACCDeclared returns the per-variable declared patterns for one rank:
// declared[v] is the file extent list of variable v. ranks is the number of
// ranks sharing the file (the subfiling group on Mira, the world on Theta).
func HACCDeclared(rank, ranks int, particles int64, layout int) [][]storage.Seg {
	out := make([][]storage.Seg, len(HACCVarSizes))
	switch layout {
	case AoS:
		base := int64(rank) * particles * ParticleBytes
		var fieldOff int64
		for v, sz := range HACCVarSizes {
			out[v] = []storage.Seg{storage.Strided(base+fieldOff, sz, ParticleBytes, particles)}
			fieldOff += sz
		}
	default: // SoA
		var regionOff int64
		for v, sz := range HACCVarSizes {
			off := regionOff + int64(rank)*particles*sz
			out[v] = []storage.Seg{storage.Contig(off, particles*sz)}
			regionOff += int64(ranks) * particles * sz
		}
	}
	return out
}

// HACCFileBytes returns the total file size for a HACC run.
func HACCFileBytes(ranks int, particles int64) int64 {
	return int64(ranks) * particles * ParticleBytes
}

// ParticlesForMB returns the particle count whose records occupy about
// mb megabytes (the paper: "a useful base value of 25,000 particles requires
// approximately 1 MB").
func ParticlesForMB(mb float64) int64 {
	return int64(mb * (1 << 20) / ParticleBytes)
}
