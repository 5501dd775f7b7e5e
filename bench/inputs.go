package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/pipeline"
)

// inputs is everything one run feeds the program under test. All of it
// is generated up front from (workload, seed, scale); the program sees
// only these values.
type inputs struct {
	sample  []*graph.Graph // fixed dimSeed sample the dimensions are selected from; ids [0, len)
	corpus  []*graph.Graph // seeded; ids continue after the sample
	queries []*graph.Graph // dense 10–20-vertex molecules held out of the same generator call

	// pipeline_hot only. docs[kind] are the distinct JSON documents of one
	// pipeline kind; draws[client] is that client's fixed op sequence.
	docs  [pipeKinds][][]byte
	draws [][]pipeDraw

	// stream is the write stream, batchSize graphs per durable Add;
	// removeOrder is the order base ids are tombstoned in.
	stream      []*graph.Graph
	removeOrder []int
}

const (
	pipeSearch = iota // filter → search
	pipeCount         // filter → count
	pipeGroup         // filter → group_by(edge_label)
	pipeKinds
)

// pipeMix is each kind's percentage of pipeline_hot's ops and of its
// distinct documents. Only a search is cacheable — a scan is computed every
// time — so the share of searches caps the share of cache hits. At 90%
// searches, nine in ten of them hits, four reads in five are hits and the
// median read is a typical hit. At the 70/15/15 the issue proposed, hits
// were 60% of the reads and the median sat on the edge between the slowest
// hits (40 µs) and the fastest misses (100 µs), where two points of hit
// ratio move it by a tenth. The scans are still half of the time spent.
var pipeMix = [pipeKinds]int{pipeSearch: 90, pipeCount: 5, pipeGroup: 5}

// pipeDraw is one op of pipeline_hot: which document of which kind.
type pipeDraw struct {
	kind uint8
	doc  int32
}

const (
	zipfS      = 1.1     // popularity exponent: P(rank k) ∝ (zipfV + k)^-zipfS
	zipfV      = 16      // flattens the head: no single document is >2% of a kind's draws
	drawsEach  = 1 << 16 // pre-drawn ops per client; the sequence wraps
	maxClients = 4
)

// baseN is the number of graphs in the collection after set-up.
func (in *inputs) baseN() int { return len(in.sample) + len(in.corpus) }

// seedFor separates the random streams of one run: the same -seed gives
// the same inputs, a different workload or purpose an unrelated stream.
func seedFor(seed int64, workload string, purpose int64) int64 {
	h := int64(1469598103934665603)
	for _, c := range workload {
		h = (h ^ int64(c)) * 1099511628211
	}
	return (h^seed)*31 + purpose
}

func generate(w workloadSpec, seed int64, sc scale) *inputs {
	in := &inputs{}
	in.sample = dataset.Chemical(dataset.ChemConfig{N: sc.sample, Seed: dimSeed, Scaffolds: chemScaffolds})

	// One generator call yields corpus and queries, so queries come from
	// the same compound families without being corpus members.
	n := w.corpus(sc)
	all := dataset.Chemical(dataset.ChemConfig{N: n + sc.queries, Seed: seedFor(seed, w.name, 1), Scaffolds: chemScaffolds})
	in.corpus, in.queries = all[:n], all[n:]

	streamGraphs := (sc.burstAdds + sc.tailAdds) * batchSize
	if w.writer {
		// About what one writer commits in ten seconds on a 2-core box;
		// the writer wraps around if it gets further.
		streamGraphs = 6 * sc.checkpointAt * batchSize
	}
	in.stream = dataset.Chemical(dataset.ChemConfig{N: streamGraphs, Seed: seedFor(seed, w.name, 2), Scaffolds: chemScaffolds})
	in.removeOrder = rand.New(rand.NewSource(seedFor(seed, w.name, 3))).Perm(in.baseN())

	if w.pipes {
		in.genPipelines(seedFor(seed, w.name, 4), sc)
	}
	return in
}

// genPipelines builds the distinct pipeline documents and each client's
// Zipf-distributed draw sequence. The kind of an op is drawn by pipeMix
// independently of its popularity rank, so the mix does not depend on
// which kind happens to hold rank 0.
func (in *inputs) genPipelines(seed int64, sc scale) {
	r := rand.New(rand.NewSource(seed))
	pool := append(append([]*graph.Graph{}, in.corpus...), in.queries...)
	for kind, share := range pipeMix {
		n := sc.pipelines * share / 100
		seen := make(map[string]bool, n)
		for len(in.docs[kind]) < n {
			doc := pipelineDoc(r, kind, pool)
			if seen[string(doc)] {
				continue
			}
			seen[string(doc)] = true
			in.docs[kind] = append(in.docs[kind], doc)
		}
	}
	in.draws = make([][]pipeDraw, maxClients)
	for c := range in.draws {
		cr := rand.New(rand.NewSource(seed + int64(c) + 1))
		var zipf [pipeKinds]*rand.Zipf
		for kind := range zipf {
			zipf[kind] = rand.NewZipf(cr, zipfS, zipfV, uint64(len(in.docs[kind])-1))
		}
		in.draws[c] = make([]pipeDraw, drawsEach)
		for i := range in.draws[c] {
			kind, x := pipeSearch, cr.Intn(100)
			for x >= pipeMix[kind] {
				x -= pipeMix[kind]
				kind++
			}
			in.draws[c][i] = pipeDraw{kind: uint8(kind), doc: int32(zipf[kind].Uint64())}
		}
	}
}

// pipelineDoc renders one random pipeline of the given kind as the JSON a
// gserve /query client would post.
func pipelineDoc(r *rand.Rand, kind int, pool []*graph.Graph) []byte {
	f := &pipeline.Filter{}
	if kind != pipeSearch || r.Intn(3) != 0 {
		// Oxygen, nitrogen or sulfur at least once or twice: a label
		// predicate the label index pushes down, so the search scores
		// exactly the pushed-down ids.
		f.VertexLabels = []pipeline.LabelCount{{Label: 1 + r.Intn(3), MinCount: 1 + r.Intn(2)}}
	}
	if len(f.VertexLabels) == 0 || r.Intn(2) == 0 {
		// A size bound stays a residual per-graph predicate. A third of
		// the searches carry nothing else, and so go through the posting
		// planner like an unfiltered sparse query.
		f.MinVertices = 10 + r.Intn(8)
	}
	p := pipeline.Pipeline{Stages: []pipeline.Stage{{Filter: f}}}
	switch kind {
	case pipeSearch:
		q := smallSubgraph(r, pool[r.Intn(len(pool))])
		p.Stages = append(p.Stages, pipeline.Stage{Search: &pipeline.Search{Query: graphSpec(q), K: topK}})
	case pipeCount:
		scanPredicates(r, f)
		p.Stages = append(p.Stages, pipeline.Stage{Count: &pipeline.Count{}})
	case pipeGroup:
		scanPredicates(r, f)
		p.Stages = append(p.Stages, pipeline.Stage{GroupBy: &pipeline.GroupBy{Key: pipeline.KeyEdgeLabel}})
	}
	doc, err := json.Marshal(&p)
	if err != nil {
		panic(fmt.Sprintf("bench: encoding a generated pipeline: %v", err))
	}
	return doc
}

// scanPredicates adds the predicates only searchless pipelines carry: an
// edge-count floor (residual) and, half the time, a bond-label predicate
// (pushed down). They also make the space of distinct documents large
// enough to draw thousands from.
func scanPredicates(r *rand.Rand, f *pipeline.Filter) {
	f.MinEdges = 8 + r.Intn(16)
	if r.Intn(2) == 0 {
		f.EdgeLabels = []pipeline.LabelCount{{Label: r.Intn(3), MinCount: 1 + r.Intn(3)}}
	}
}

// smallSubgraph returns a connected 3–6-vertex subgraph of g grown
// breadth-first from a random vertex — a query small enough to contain
// only a couple of dimensions.
func smallSubgraph(r *rand.Rand, g *graph.Graph) *graph.Graph {
	want := 3 + r.Intn(4)
	picked := []int{r.Intn(g.N())}
	in := map[int]bool{picked[0]: true}
	for i := 0; i < len(picked) && len(picked) < want; i++ {
		for _, h := range g.Neighbors(picked[i]) {
			if !in[h.To] && len(picked) < want {
				in[h.To] = true
				picked = append(picked, h.To)
			}
		}
	}
	sub, _ := g.InducedSubgraph(picked)
	return sub
}

func graphSpec(g *graph.Graph) *pipeline.GraphSpec {
	gs := &pipeline.GraphSpec{Labels: make([]int, g.N()), Edges: make([][3]int, 0, g.M())}
	for v := range gs.Labels {
		gs.Labels[v] = int(g.VertexLabel(v))
	}
	for _, e := range g.Edges() {
		gs.Edges = append(gs.Edges, [3]int{e.U, e.V, int(e.Label)})
	}
	return gs
}

// repeatShare is the fraction of draws that repeat an earlier draw of the
// same client — the share of pipeline_hot a cache of unbounded size could
// answer.
func repeatShare(draws []pipeDraw) float64 {
	seen := make(map[pipeDraw]bool, len(draws))
	repeats := 0
	for _, d := range draws {
		if seen[d] {
			repeats++
		}
		seen[d] = true
	}
	return float64(repeats) / float64(len(draws))
}
