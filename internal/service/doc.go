// Package service is the production sweep service behind `pvsim serve`:
// it turns the deterministic sweep engine (internal/sweep) into a
// multi-tenant HTTP service with admission control, bounded concurrency,
// streaming partial results, and disk-backed result retention.
//
// The subsystem splits into four pieces, each in its own file:
//
//	queue.go      bounded FIFO+priority job queue with deterministic drain
//	              order (priority desc, then submission seq asc) and
//	              JSON persistence for graceful shutdown/restart
//	dispatch.go   shard execution: every sweep runs as cell-aligned
//	              shards, each on a healthy shard worker or, as the last
//	              rung, on the local engine
//	store.go      disk-backed result store keyed by grid hash with
//	              bounded rolling retention, so a restarted server serves
//	              previously computed grids without re-simulating
//	stream.go     per-sweep feed: rows arrive from the release buffer
//	              in expansion order and fan out to any number of
//	              streaming subscribers (framed JSON, NDJSON, SSE)
//
// server.go ties them together as an http.Handler. Determinism is the
// spec throughout: the streamed framed-JSON concatenation of any sweep is
// byte-identical to the serial `pvsim sweep -format json` report, queue
// drain order is a pure function of (priority, seq), and a disk-served
// result is the exact bytes the original run produced.
package service
