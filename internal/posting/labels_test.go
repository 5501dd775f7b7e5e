package posting

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// TestLabelPrefixThenAppend: cutting a label index to its first k graphs
// and appending others equals building the index over those graphs, and
// leaves the receiver, and an Append to it, as they were.
func TestLabelPrefixThenAppend(t *testing.T) {
	gs := dataset.Synthetic(dataset.SynthConfig{N: 90, AvgEdges: 8, Labels: 6, Seed: 3})
	more := dataset.Synthetic(dataset.SynthConfig{N: 30, AvgEdges: 8, Labels: 6, Seed: 4})
	for _, k := range []int{0, 1, 40, 89, 90} {
		l := LabelsFromGraphs(gs)
		grown := l.Append(more[:5]) // writes where l's chain appends
		got := l.Prefix(k).Append(more)
		if want := LabelsFromGraphs(append(slices.Clip(gs[:k]), more...)); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: Prefix then Append differs from a fresh build", k)
		}
		if !reflect.DeepEqual(l, LabelsFromGraphs(gs)) {
			t.Fatalf("k=%d: Prefix or its Append changed the receiver", k)
		}
		if want := LabelsFromGraphs(append(slices.Clip(gs), more[:5]...)); !reflect.DeepEqual(grown, want) {
			t.Fatalf("k=%d: an Append to the prefix changed the receiver's chain", k)
		}
	}
}
