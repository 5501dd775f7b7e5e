package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/graphdim"
	"repro/internal/pipeline"
)

// Bulk ingest: POST /v1/collections/{name}/ingest streams graphs in as
// NDJSON — one pipeline.GraphSpec per line — and acknowledges them per
// batch. Each batch becomes ONE Collection.Add call, hence one WAL record
// and one fsync, so the ~fsync cost is amortized across
// the whole batch instead of paid per graph (the add endpoint's price).
// Response lines stream back as each batch commits, so a client knows
// exactly which prefix is durable at any moment. A batch either commits
// whole — once its WAL record is appended it lands — or not at all, so a
// crash mid-stream loses only the unacknowledged tail, and a failed batch
// ends the stream with an in-band error after the last ack.

// maxIngestBytes caps one ingest request body. Bulk loads are the point
// of the endpoint, so the cap is well above maxBodyBytes; larger loads
// split across requests.
const maxIngestBytes = 1 << 30

const (
	defaultIngestBatch = 256
	maxIngestBatch     = 4096
)

// ingestAck is one response line: the ack for one committed batch, or —
// with Error set — the in-band failure that ends the stream.
type ingestAck struct {
	Batch   int    `json:"batch"`
	Applied int    `json:"applied"`
	FirstID int    `json:"first_id"`
	LastID  int    `json:"last_id"`
	Error   string `json:"error,omitempty"`
}

// ingestSummary is the final response line.
type ingestSummary struct {
	Done       bool   `json:"done"`
	Collection string `json:"collection"`
	Batches    int    `json:"batches"`
	Applied    int    `json:"applied"`
	Size       int    `json:"size"`
	Error      string `json:"error,omitempty"`
}

func parseIngestBatch(r *http.Request) (int, error) {
	v := r.URL.Query().Get("batch")
	if v == "" {
		return defaultIngestBatch, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("batch must be a positive integer, got %q", v)
	}
	if n > maxIngestBatch {
		n = maxIngestBatch
	}
	return n, nil
}

// handleIngest streams the body in batches. The route is long — the
// stream can legitimately outlast -timeout — so -timeout bounds each
// batch below rather than the request.
func (s *server) handleIngest(cl *call) {
	w, r, c := cl.w, cl.r, cl.c
	batchSize, err := parseIngestBatch(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	rc := http.NewResponseController(w)
	// Acks stream back while the request body is still being read —
	// without full duplex, net/http closes the unread body at the first
	// response write and the stream dies after one batch.
	if err := rc.EnableFullDuplex(); err != nil {
		s.fail(w, http.StatusInternalServerError, "streaming unsupported on this connection: %v", err)
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBytes))

	var (
		started bool // first response byte written — status is committed
		batches int
		applied int
	)
	// fail before any output is a clean 400/413/503; after, the error goes
	// in-band so the client still learns which batches are durable.
	abort := func(status int, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		if !started {
			s.fail(w, status, "%s", msg)
			return
		}
		s.errors.Add(1)
		writeNDJSON(w, ingestSummary{Collection: c.Name(), Batches: batches, Applied: applied, Size: c.Size(), Error: msg})
	}

	for {
		// Decode up to batchSize lines. Build errors and malformed JSON
		// end the stream at a line boundary: everything acked before it
		// stays committed, nothing after it is attempted.
		batch := make([]*graphdim.Graph, 0, batchSize)
		for len(batch) < batchSize {
			var line pipeline.GraphSpec
			if err := dec.Decode(&line); err == io.EOF {
				break
			} else if err != nil {
				abort(bodyStatus(err), "line %d: parsing NDJSON graph: %v", applied+len(batch)+1, err)
				return
			}
			g, err := line.Build()
			if err != nil {
				abort(http.StatusBadRequest, "line %d: %v", applied+len(batch)+1, err)
				return
			}
			batch = append(batch, g)
		}
		if len(batch) == 0 {
			break
		}

		// One Add per batch = one WAL record, one fsync; -timeout
		// bounds each batch rather than the stream.
		ctx, cancel := s.requestContext(r)
		ids, err := c.Add(ctx, batch...)
		cancel()
		batches++
		if err != nil {
			abort(http.StatusServiceUnavailable, "batch %d: %v", batches, err)
			return
		}
		applied += len(ids)
		s.added.Add(int64(len(ids)))
		if !started {
			started = true
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		writeNDJSON(w, ingestAck{Batch: batches, Applied: len(ids), FirstID: ids[0], LastID: ids[len(ids)-1]})
		// Flush so the ack reaches the client before the next batch is
		// read — the ack stream is the durability signal.
		_ = rc.Flush()
	}

	if !started {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	writeNDJSON(w, ingestSummary{Done: true, Collection: c.Name(), Batches: batches, Applied: applied, Size: c.Size()})
}

func writeNDJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	b = append(b, '\n')
	_, _ = w.Write(b)
}
