package graphdim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/dataset"
)

// goldenSelectionDigest is selectionDigest of the DSPMap build on bench's
// set-up inputs, recorded from the sequential, closure-walk DSPMap the
// packed-bitset distances and the worker-pool sub-runs replaced. Both
// changes are meant to leave every selected dimension and every weight
// bit unchanged; a different digest means they did not.
const goldenSelectionDigest = "55496a3b50c519a672f42ee49864126bb7bfc70925172920a9047a780af879c4"

// benchSelectionOptions are bench's build options (bench/spec.go): p 64,
// tau 0.05, Delta2, DSPMap, MCS budget 500, seed 7.
func benchSelectionOptions(workers int) Options {
	return Options{
		Dimensions: 64,
		Tau:        0.05,
		Metric:     Delta2,
		Algorithm:  DSPMap,
		MCSBudget:  500,
		Seed:       7,
		Workers:    workers,
	}
}

// benchSelectionSample is bench's 200-graph selection sample.
func benchSelectionSample() []*Graph {
	return dataset.Chemical(dataset.ChemConfig{N: 200, Seed: 7, Scaffolds: 64})
}

// selectionDigest hashes the ordered selected dimensions (dimsDigest) and
// the bits of their weights.
func selectionDigest(ix *Index) string {
	h := sha256.New()
	h.Write(ix.dims[:])
	var buf [8]byte
	for _, w := range ix.weights {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(w))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDSPMapSelectionGolden pins DSPMap's selection on bench's inputs,
// bit for bit, at one worker and at two.
func TestDSPMapSelectionGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds bench's 200-graph selection twice")
	}
	db := benchSelectionSample()
	for _, workers := range []int{1, 2} {
		ix, err := Build(db, benchSelectionOptions(workers))
		if err != nil {
			t.Fatalf("workers=%d: Build: %v", workers, err)
		}
		if got := selectionDigest(ix); got != goldenSelectionDigest {
			t.Errorf("workers=%d: selection digest %s, want %s", workers, got, goldenSelectionDigest)
		}
	}
}
