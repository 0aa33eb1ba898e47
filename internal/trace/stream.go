package trace

// Stream is anything that produces an access sequence; Generator, Phased
// and CompiledReplayer all implement it, so consumers can run on live or
// compiled traces interchangeably.
type Stream interface {
	Next() Access
}

// BatchReader is implemented by streams that can produce many accesses per
// call. The batched step pipeline (sim.System) fills one reusable batch per
// core through it, amortizing the per-access interface dispatch that a
// Next-per-access loop pays; CompiledReplayer additionally amortizes its
// chunk-decode state across the batch.
type BatchReader interface {
	// ReadBatch fills dst from the stream and returns how many accesses it
	// wrote; a short count means the stream is exhausted. It must allocate
	// nothing.
	ReadBatch(dst []Access) int
}

// Summary aggregates trace statistics for inspection tools.
type Summary struct {
	Accesses       uint64
	Writes         uint64
	DistinctBlocks int
	DistinctPCs    int
	Regions        int // distinct 2KB regions
}

// Summarize scans the rest of a compiled trace.
func Summarize(p *CompiledReplayer) Summary {
	blocks := make(map[uint64]struct{})
	pcs := make(map[uint64]struct{})
	regions := make(map[uint64]struct{})
	var s Summary
	for p.Remaining() > 0 {
		a := p.Next()
		s.Accesses++
		if a.Write {
			s.Writes++
		}
		blocks[uint64(a.Addr)>>6] = struct{}{}
		regions[uint64(a.Addr)>>11] = struct{}{}
		pcs[uint64(a.PC)] = struct{}{}
	}
	s.DistinctBlocks = len(blocks)
	s.DistinctPCs = len(pcs)
	s.Regions = len(regions)
	return s
}
