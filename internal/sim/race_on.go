//go:build race

package sim

// keepCarriers pools idle carriers under the race detector: the Go runtime
// does not release an ended coroutine's race-detector state, so ending one
// carrier per proc would grow memory with every proc ever run.
const keepCarriers = true
