package workload

import (
	"testing"

	"tapioca/internal/storage"
)

func TestHACCVarSizesSumTo38(t *testing.T) {
	var sum int64
	for _, s := range HACCVarSizes {
		sum += s
	}
	if sum != ParticleBytes {
		t.Fatalf("variable sizes sum to %d, want %d", sum, ParticleBytes)
	}
	if len(HACCVarNames) != len(HACCVarSizes) {
		t.Fatal("names and sizes disagree")
	}
}

func TestParticlesForMB(t *testing.T) {
	// The paper: 25,000 particles ≈ 1 MB.
	p := ParticlesForMB(1)
	if p < 25000 || p > 29000 {
		t.Fatalf("ParticlesForMB(1) = %d", p)
	}
}

func TestIORSegs(t *testing.T) {
	segs := IORSegs(3, 1<<20)
	if len(segs) != 1 || segs[0].Off != 3<<20 || segs[0].Bytes() != 1<<20 {
		t.Fatalf("segs = %+v", segs)
	}
	if IORSegs(0, 0) != nil {
		t.Fatal("zero size should be empty")
	}
}

// Both layouts must tile the file exactly with no gaps or overlaps.
func TestHACCLayoutsTileFile(t *testing.T) {
	const ranks = 4
	const particles = 100
	total := HACCFileBytes(ranks, particles)
	for _, layout := range []int{AoS, SoA} {
		var bytes int64
		seen := make([]bool, total)
		for r := 0; r < ranks; r++ {
			decl := HACCDeclared(r, ranks, particles, layout)
			if len(decl) != 9 {
				t.Fatalf("layout %s: %d variables", LayoutName(layout), len(decl))
			}
			for _, segs := range decl {
				storage.Enumerate(segs, 1<<22, func(off, length int64) {
					for i := off; i < off+length; i++ {
						if i < 0 || i >= total {
							t.Fatalf("layout %s: byte %d outside file of %d", LayoutName(layout), i, total)
						}
						if seen[i] {
							t.Fatalf("layout %s: byte %d written twice", LayoutName(layout), i)
						}
						seen[i] = true
					}
					bytes += length
				})
			}
		}
		if bytes != total {
			t.Fatalf("layout %s: %d bytes declared, want %d", LayoutName(layout), bytes, total)
		}
	}
}

func TestHACCAoSIsStrided(t *testing.T) {
	decl := HACCDeclared(0, 2, 50, AoS)
	for v, segs := range decl {
		if len(segs) != 1 || segs[0].Count != 50 {
			t.Fatalf("var %d: %+v", v, segs)
		}
		if segs[0].Stride != ParticleBytes {
			t.Fatalf("var %d stride = %d", v, segs[0].Stride)
		}
	}
}

func TestHACCSoAIsContiguous(t *testing.T) {
	decl := HACCDeclared(1, 2, 50, SoA)
	for v, segs := range decl {
		if len(segs) != 1 || segs[0].Count != 1 {
			t.Fatalf("var %d: %+v", v, segs)
		}
		if segs[0].Bytes() != 50*HACCVarSizes[v] {
			t.Fatalf("var %d bytes = %d", v, segs[0].Bytes())
		}
	}
}
