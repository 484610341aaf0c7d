package par

import (
	"sync/atomic"
	"testing"
)

func TestMapCoversEveryIndexOnce(t *testing.T) {
	for _, lim := range []int{0, 1, 3, 64} {
		const n = 257
		counts := make([]atomic.Int32, n)
		Map(lim, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("limit %d: index %d ran %d times", lim, i, c)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	Map(4, 0, func(int) { t.Fatal("called") })
	Map(4, -5, func(int) { t.Fatal("called") })
}

func TestMapPanicIsLowestIndex(t *testing.T) {
	for _, lim := range []int{1, 4} {
		got := func() (r any) {
			defer func() { r = recover() }()
			Map(lim, 16, func(i int) {
				if i == 3 || i == 11 {
					panic(i)
				}
			})
			return nil
		}()
		if got != 3 {
			t.Fatalf("limit %d: recovered %v, want 3 (lowest panicking index)", lim, got)
		}
	}
}
