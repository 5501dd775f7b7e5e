package main

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/graph"
)

// fingerprint serializes everything a run feeds the program.
func fingerprint(t *testing.T, in *inputs) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, gs := range [][]*graph.Graph{in.sample, in.corpus, in.queries, in.stream} {
		if err := graph.WriteAll(&buf, gs); err != nil {
			t.Fatal(err)
		}
		buf.WriteString("--\n")
	}
	for _, docs := range in.docs {
		for _, d := range docs {
			buf.Write(d)
			buf.WriteByte('\n')
		}
	}
	fmt.Fprintln(&buf, in.draws, in.removeOrder)
	return buf.Bytes()
}

func TestInputsRepeatForEqualSeedsAndDifferAcrossSeeds(t *testing.T) {
	for _, name := range workloadNames {
		w, _ := specOf(name)
		a := fingerprint(t, generate(w, 1, smokeScale))
		b := fingerprint(t, generate(w, 1, smokeScale))
		c := fingerprint(t, generate(w, 2, smokeScale))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations from seed 1 differ", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 generate the same inputs", name)
		}
	}
}

func TestWorkloadsDrawUnrelatedStreams(t *testing.T) {
	a, _ := specOf(wVerifyTopK)
	b, _ := specOf(wIngestMixed)
	if bytes.Equal(fingerprint(t, generate(a, 1, smokeScale)), fingerprint(t, generate(b, 1, smokeScale))) {
		t.Error("two workloads with equal corpus sizes were fed the same corpus")
	}
}

func TestPipelineDrawsAreSkewedAndMixed(t *testing.T) {
	w, _ := specOf(wPipelineHot)
	in := generate(w, 1, smokeScale)
	draws := in.draws[0]
	if len(draws) != drawsEach {
		t.Fatalf("got %d draws, want %d", len(draws), drawsEach)
	}
	var kinds [pipeKinds]int
	top := 0
	for _, d := range draws {
		kinds[d.kind]++
		if d.kind == pipeSearch && d.doc == 0 {
			top++
		}
		if int(d.doc) >= len(in.docs[d.kind]) {
			t.Fatalf("draw names document %d of %d", d.doc, len(in.docs[d.kind]))
		}
	}
	for kind, share := range pipeMix {
		want := float64(share) / 100
		if got := float64(kinds[kind]) / float64(len(draws)); got < want-0.02 || got > want+0.02 {
			t.Errorf("kind %d is %.3f of the draws, want about %.2f", kind, got, want)
		}
	}
	// Zipf(1.1, v = 16): the most popular document alone takes several
	// times its uniform share of the searches.
	uniform := float64(kinds[pipeSearch]) / float64(len(in.docs[pipeSearch]))
	if float64(top) < 3*uniform {
		t.Errorf("rank-0 search drawn %d times, uniform would be %.0f: not skewed", top, uniform)
	}
	if s := repeatShare(draws); s < 0.5 {
		t.Errorf("only %.2f of the draws repeat an earlier one", s)
	}
	// Distinct means distinct.
	for kind, docs := range in.docs {
		seen := map[string]bool{}
		for _, d := range docs {
			if seen[string(d)] {
				t.Fatalf("kind %d holds a duplicate document", kind)
			}
			seen[string(d)] = true
		}
	}
}
