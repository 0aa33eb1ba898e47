package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"pvsim/internal/sweep"
)

// ShardRequest is the shard protocol's request body (POST /shard on a
// worker): the full grid plus the planned shard to run. The worker
// re-expands the grid itself — expansion is deterministic, so coordinator
// and worker always agree on which jobs the range names.
type ShardRequest struct {
	Grid  sweep.Grid  `json:"grid"`
	Shard sweep.Shard `json:"shard"`
}

// ShardWorker is the worker side of the shard protocol: an http.Handler
// a `pvsim shard` process serves.
//
//	POST /shard    run one shard of a grid, answer its sweep.Partial
//	GET  /healthz  liveness probe (the dispatcher and -join use it)
//
// Each worker owns its own engine (and so its own system pool); shard
// executions on one worker share pooled systems exactly like sweeps on
// one coordinator do.
type ShardWorker struct {
	engine *sweep.Engine
	log    func(format string, args ...interface{})
	mux    *http.ServeMux
}

// NewShardWorker builds a worker around a fresh engine. log may be nil.
func NewShardWorker(opts sweep.Options, log func(format string, args ...interface{})) *ShardWorker {
	w := &ShardWorker{engine: sweep.New(opts), log: log, mux: http.NewServeMux()}
	w.mux.HandleFunc("POST /shard", w.handleShard)
	w.mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Write([]byte("ok\n"))
	})
	return w
}

// ServeHTTP implements http.Handler.
func (w *ShardWorker) ServeHTTP(rw http.ResponseWriter, r *http.Request) { w.mux.ServeHTTP(rw, r) }

// Engine exposes the worker's engine (tests assert pool state through it).
func (w *ShardWorker) Engine() *sweep.Engine { return w.engine }

func (w *ShardWorker) logf(format string, args ...interface{}) {
	if w.log != nil {
		w.log(format, args...)
	}
}

// handleShard runs one shard. An oversized body answers 413; bad requests
// (undecodable body, invalid grid, out-of-range shard) answer 400; a
// cancelled dispatch (the coordinator hung up or timed out) aborts the run
// via the request context and answers nothing anyone reads; simulation
// failures answer 500 so the dispatcher re-dispatches the range elsewhere.
func (w *ShardWorker) handleShard(rw http.ResponseWriter, r *http.Request) {
	body, ok := readBody(rw, r)
	if !ok {
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req ShardRequest
	if err := dec.Decode(&req); err != nil {
		httpError(rw, http.StatusBadRequest, fmt.Sprintf("decoding shard request: %v", err))
		return
	}
	if err := req.Grid.Validate(); err != nil {
		httpError(rw, http.StatusBadRequest, err.Error())
		return
	}
	w.logf("shard: grid %s shard %d [%d,%d) starting", req.Grid.Hash(), req.Shard.Index, req.Shard.Start, req.Shard.End)
	partial, err := w.engine.RunShard(r.Context(), req.Grid, nil, req.Shard, nil, nil)
	switch {
	case errors.Is(err, context.Canceled):
		// The coordinator went away; nothing to answer.
		w.logf("shard: grid %s shard %d cancelled", req.Grid.Hash(), req.Shard.Index)
		return
	case err != nil:
		status := http.StatusInternalServerError
		if errors.Is(err, sweep.ErrShardRange) {
			status = http.StatusBadRequest
		}
		httpError(rw, status, err.Error())
		w.logf("shard: grid %s shard %d failed: %v", req.Grid.Hash(), req.Shard.Index, err)
		return
	}
	writeJSON(rw, http.StatusOK, partial)
	w.logf("shard: grid %s shard %d done (%d rows)", req.Grid.Hash(), req.Shard.Index, len(partial.Rows))
}
