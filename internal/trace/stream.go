package trace

// Stream is anything that produces an access sequence; Generator, Phased
// and CompiledReplayer all implement it. The simulator drives live
// generators; a CompiledReplayer replays a PVA2 file written by pvtrace.
type Stream interface {
	Next() Access
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
