//go:build !race

package sim

// keepCarriers is false without the race detector: a carrier ends with its
// proc and frees its stack. Pooled carriers keep the stacks their earlier
// procs grew, which raises peak memory more than the reuse saves.
const keepCarriers = false
