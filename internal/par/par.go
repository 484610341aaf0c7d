// Package par provides the bounded worker pool behind the experiment grid
// runner (internal/expt) and the autotuner's closed-loop probes
// (internal/tune).
//
// Every unit of work handed to Map is an independent simulation: a fresh
// engine, fabric and storage system with no shared mutable state. Executing
// them concurrently therefore cannot change any result — callers write each
// result into index-addressed storage, so assembled output is byte-identical
// to a serial loop no matter how the pool interleaves execution.
package par

import (
	"sync"
	"sync/atomic"
)

// Map runs fn(0), fn(1), …, fn(n-1) on up to workers goroutines (serially
// when workers <= 1) and returns once every call has finished. Work is
// handed out by an atomic cursor, so the pool never idles while cells
// remain.
//
// Panics are deterministic: every cell still runs, and the panic raised by
// the lowest index is re-thrown on the caller — the same cell a serial loop
// would have died on.
func Map(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	var (
		cursor   atomic.Int64
		mu       sync.Mutex
		panicIdx = -1
		panicVal any
		wg       sync.WaitGroup
	)
	cursor.Store(-1)
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if panicIdx < 0 || i < panicIdx {
					panicIdx, panicVal = i, r
				}
				mu.Unlock()
			}
		}()
		fn(i)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1))
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	if panicIdx >= 0 {
		panic(panicVal)
	}
}
