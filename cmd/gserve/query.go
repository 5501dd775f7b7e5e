package main

import (
	"errors"
	"io"
	"net/http"

	"repro/graphdim"
	"repro/internal/pipeline"
)

// maxPipelineBytes caps a pipeline document. A pipeline carries filters
// and at most one inline query graph, so 1 MiB is orders of magnitude
// above a realistic body while keeping a full read lane of buffered
// bodies small.
const maxPipelineBytes = 1 << 20

// stageErrorResponse is the 400 body for a malformed stage: the prose
// error plus the offending stage's position and type name, so clients
// can highlight it without parsing the message (DESIGN.md §13).
type stageErrorResponse struct {
	Error     string `json:"error"`
	Stage     int    `json:"stage"`
	StageName string `json:"stage_name"`
}

// handleQuery runs a composable pipeline: POST
// /v1/collections/{name}/query with a JSON {"stages":[...]} body. It is
// a read — freshness-gated and admitted on the read lane like search.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request, c *graphdim.Collection) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST a JSON pipeline: {\"stages\":[{\"filter\":{...}},{\"search\":{...}},...]}")
		return
	}
	if !s.checkFreshness(w, r, c) {
		return
	}
	gate := s.lanes(c.Name()).read
	if !s.admit(w, c.Name(), "read", gate) {
		return
	}
	defer gate.Leave()

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPipelineBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge, "pipeline body exceeds %d bytes", tooBig.Limit)
			return
		}
		s.fail(w, http.StatusBadRequest, "reading pipeline: %v", err)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	p, err := pipeline.Parse(body)
	var res *pipeline.Result
	if err == nil {
		res, err = c.Query(ctx, p)
	}
	if err != nil {
		var se *pipeline.StageError
		if errors.As(err, &se) {
			s.errors.Add(1)
			writeJSON(w, http.StatusBadRequest, stageErrorResponse{Error: se.Error(), Stage: se.Index, StageName: se.Name})
			return
		}
		s.failQuery(w, r, ctx, err)
		return
	}
	s.metrics.observePipeline(res.Stats)
	w.Header().Set(freshnessHeader, freshnessToken(c))
	writeJSON(w, http.StatusOK, res)
}
