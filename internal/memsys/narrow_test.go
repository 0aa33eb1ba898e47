package memsys_test

import (
	"testing"

	"pvsim/internal/memsys"
	"pvsim/internal/trace"
	"pvsim/internal/workloads"
)

// TestCacheNarrowAddressesNoHighHalf pins the memory claim of the packed
// tag layout: the paper's workloads keep every address narrow, so a Table 1
// hierarchy they drive never allocates a high tag half and holds 9 B of
// line state per way. A wide fill afterwards must allocate it, and a Reset
// must drop it again, as a pooled system's Rebuild resets its caches.
func TestCacheNarrowAddressesNoHighHalf(t *testing.T) {
	cfg := memsys.DefaultConfig()
	for _, name := range []string{"Apache", "Qry1"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		h := memsys.New(cfg)
		gens := make([]*trace.Generator, cfg.Cores)
		for c := range gens {
			gens[c] = trace.NewGenerator(w.Params, 42, c)
		}
		for range 50_000 {
			for c, g := range gens {
				acc := g.Next()
				h.Fetch(c, acc.PC)
				h.Data(c, acc.Addr, acc.Write)
			}
		}
		caches := []*memsys.Cache{h.L2()}
		for c := range cfg.Cores {
			caches = append(caches, h.L1I(c), h.L1D(c))
		}
		for _, c := range caches {
			if c.ResidentBlocks() == 0 {
				t.Fatalf("%s: %s holds no block; the stream did not reach it", name, c.Config().Name)
			}
			if memsys.CacheHighHalf(c) {
				t.Errorf("%s: %s allocated high tag halves", name, c.Config().Name)
			}
			if b := memsys.CacheBytesPerWay(c); b > 9 {
				t.Errorf("%s: %s holds %d B per way, want at most 9", name, c.Config().Name, b)
			}
		}
		l2 := h.L2()
		l2.Fill(0xFFFF_0000_0000_0000, false, false)
		if !memsys.CacheHighHalf(l2) || memsys.CacheBytesPerWay(l2) != 13 {
			t.Errorf("%s: a wide fill left high halves %v, %d B per way; want allocated, 13 B",
				name, memsys.CacheHighHalf(l2), memsys.CacheBytesPerWay(l2))
		}
		l2.Reset()
		if memsys.CacheHighHalf(l2) || memsys.CacheBytesPerWay(l2) != 9 {
			t.Errorf("%s: Reset left high halves %v, %d B per way; want none, 9 B",
				name, memsys.CacheHighHalf(l2), memsys.CacheBytesPerWay(l2))
		}
	}
}
