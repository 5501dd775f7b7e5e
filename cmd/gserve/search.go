package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/graphdim"
	"repro/internal/pipeline"
)

// maxBodyBytes caps a graph-text request body. 32 MiB is ~3 orders of
// magnitude above a realistic query batch in the text format.
const maxBodyBytes = 32 << 20

// maxPipelineBytes caps a pipeline document. A pipeline carries filters
// and at most one inline query graph, so 1 MiB is orders of magnitude
// above a realistic body while keeping a full read lane of buffered
// bodies small.
const maxPipelineBytes = 1 << 20

// searchResult mirrors graphdim.Result with stable JSON field names.
type searchResult struct {
	ID       int     `json:"id"`
	Distance float64 `json:"distance"`
}

type searchResponse struct {
	Collection string           `json:"collection,omitempty"`
	K          int              `json:"k"`
	Engine     string           `json:"engine"`
	Queries    int              `json:"queries"`
	ElapsedMS  float64          `json:"elapsed_ms"`
	Results    [][]searchResult `json:"results"`
	// Matched is the number of index dimensions each query graph
	// contains — low counts mean the mapped space carries little signal
	// for that query and the verified engine is worth the extra cost.
	Matched []int `json:"matched_dimensions"`
}

// parseSearchOptions resolves the effective per-query options from the
// knobs present in the URL alone: k falls back to the server-wide -k, the
// rest to the library defaults.
func (s *server) parseSearchOptions(r *http.Request) (graphdim.SearchOptions, error) {
	opt := graphdim.SearchOptions{K: s.defaultK}
	q := r.URL.Query()
	if v := q.Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return opt, fmt.Errorf("k must be a positive integer, got %q", v)
		}
		opt.K = n
	}
	if v := q.Get("engine"); v != "" {
		e, err := graphdim.ParseEngine(v)
		if err != nil {
			return opt, fmt.Errorf("engine must be mapped, verified or exact, got %q", v)
		}
		opt.Engine = e
	}
	if v := q.Get("factor"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return opt, fmt.Errorf("factor must be a non-negative integer, got %q", v)
		}
		opt.VerifyFactor = n
	}
	if v := q.Get("maxcand"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return opt, fmt.Errorf("maxcand must be a non-negative integer, got %q", v)
		}
		opt.MaxCandidates = n
	}
	return opt, nil
}

// readGraphs parses the graph-text request body, capped at maxBodyBytes
// so one oversized POST cannot exhaust server memory (MaxBytesReader
// also closes the connection on overrun).
func (s *server) readGraphs(w http.ResponseWriter, r *http.Request) ([]*graphdim.Graph, bool) {
	gs, err := graphdim.ReadGraphs(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.fail(w, bodyStatus(err), "parsing graphs: %v", err)
		return nil, false
	}
	if len(gs) == 0 {
		s.fail(w, http.StatusBadRequest, "no graphs in request body")
		return nil, false
	}
	return gs, true
}

func (s *server) handleSearch(cl *call) {
	w, r, c := cl.w, cl.r, cl.c
	start := time.Now()
	opt, err := s.parseSearchOptions(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	queries, ok := s.readGraphs(w, r)
	if !ok {
		return
	}
	batch, err := c.SearchBatch(cl.ctx, queries, opt)
	if err != nil {
		s.failQuery(cl, err)
		return
	}
	resp := searchResponse{
		Collection: c.Name(),
		K:          opt.K,
		Engine:     batch[0].Engine.String(),
		Queries:    len(queries),
		Results:    make([][]searchResult, len(batch)),
		Matched:    make([]int, len(batch)),
	}
	for i, res := range batch {
		out := make([]searchResult, len(res.Results))
		for j, r := range res.Results {
			out[j] = searchResult{ID: r.ID, Distance: r.Distance}
		}
		resp.Results[i] = out
		resp.Matched[i] = res.Matched.Count()
	}
	elapsed := time.Since(start)
	resp.ElapsedMS = float64(elapsed.Microseconds()) / 1e3

	s.requests.Add(1)
	s.queries.Add(int64(len(queries)))
	s.latencyUS.Add(elapsed.Microseconds())
	w.Header().Set(freshnessHeader, freshnessToken(c))
	writeJSON(w, http.StatusOK, resp)
}

type addResponse struct {
	Collection string `json:"collection,omitempty"`
	IDs        []int  `json:"ids"`
	Size       int    `json:"size"`
	// StaleRatio is the stalest shard's ratio — the operator's signal
	// that the collection has drifted from its dimension selection;
	// StaleRatios lists every shard.
	StaleRatio  float64   `json:"stale_ratio"`
	StaleRatios []float64 `json:"stale_ratios"`
}

func (s *server) handleAdd(cl *call) {
	w, c := cl.w, cl.c
	gs, ok := s.readGraphs(w, cl.r)
	if !ok {
		return
	}
	ids, err := c.Add(cl.ctx, gs...)
	if err != nil {
		s.failQuery(cl, err)
		return
	}
	s.added.Add(int64(len(ids)))
	ratios := c.StaleRatios()
	resp := addResponse{Collection: c.Name(), IDs: ids, Size: c.Size(), StaleRatios: ratios}
	for _, r := range ratios {
		if r > resp.StaleRatio {
			resp.StaleRatio = r
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// stageErrorResponse is the 400 body for a malformed stage: the prose
// error plus the offending stage's position and type name, so clients
// can highlight it without parsing the message (DESIGN.md §13).
type stageErrorResponse struct {
	Error     string `json:"error"`
	Stage     int    `json:"stage"`
	StageName string `json:"stage_name"`
}

// handleQuery runs a composable pipeline: a JSON {"stages":[...]} body.
// It is a read — freshness-gated and admitted on the read lane like
// search.
func (s *server) handleQuery(cl *call) {
	w, c := cl.w, cl.c
	body, err := io.ReadAll(http.MaxBytesReader(w, cl.r.Body, maxPipelineBytes))
	if err != nil {
		s.fail(w, bodyStatus(err), "reading pipeline: %v", err)
		return
	}
	p, err := pipeline.Parse(body)
	var res *pipeline.Result
	if err == nil {
		res, err = c.Query(cl.ctx, p)
	}
	if err != nil {
		var se *pipeline.StageError
		if errors.As(err, &se) {
			s.errors.Add(1)
			writeJSON(w, http.StatusBadRequest, stageErrorResponse{Error: se.Error(), Stage: se.Index, StageName: se.Name})
			return
		}
		s.failQuery(cl, err)
		return
	}
	s.metrics.observePipeline(res.Stats)
	w.Header().Set(freshnessHeader, freshnessToken(c))
	writeJSON(w, http.StatusOK, res)
}
