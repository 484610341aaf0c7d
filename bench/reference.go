package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

// referenceJSON holds the virtual-result digests of seeds 1 and 2 at the
// benchmark's size, generated by --reference. A change that moves them
// changes the paper's figures and needs its own benchmark change first.
//
//go:embed reference.json
var referenceJSON []byte

// referenceFile maps seed → workload → per-cell digests.
type referenceFile map[string]map[string][]cellDigest

// referenceFor returns the committed digests of a workload at a seed.
func referenceFor(pr params, name string) ([]cellDigest, bool) {
	if pr.smoke {
		return nil, false
	}
	var ref referenceFile
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		fail(fmt.Errorf("reference.json: %w", err))
	}
	d, ok := ref[strconv.FormatUint(pr.seed, 10)][name]
	return d, ok
}

// generateReference runs one pass of every workload at each reference seed
// and returns the digests as indented JSON.
func generateReference() ([]byte, error) {
	ref := referenceFile{}
	for _, seed := range []uint64{1, 2} {
		key := strconv.FormatUint(seed, 10)
		ref[key] = map[string][]cellDigest{}
		for _, w := range workloads {
			run, _ := w.prepare(params{seed: seed})
			p := newPass(false)
			run(p)
			if p.failed > 0 {
				return nil, fmt.Errorf("seed %d workload %s: %s", seed, w.name, p.errs[0])
			}
			ref[key][w.name] = p.digest
		}
	}
	out, err := json.MarshalIndent(ref, "", "  ")
	return append(out, '\n'), err
}
