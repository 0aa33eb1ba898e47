package memsys

import (
	"math/rand/v2"
	"testing"
)

// checkTable verifies tb's structure and that it holds exactly want: the live
// count matches the full cells, at most half the cells are live, every
// binding is reachable from its home cell without crossing an empty cell,
// and Get agrees with want for every key.
func checkTable(t *testing.T, tb *AddrTable[uint64, uint64], want map[uint64]uint64) {
	t.Helper()
	full := 0
	for i, c := range tb.cells {
		if !c.full {
			continue
		}
		full++
		for j := tb.home(c.key); j != uint64(i); j = (j + 1) & tb.mask {
			if !tb.cells[j].full {
				t.Fatalf("key %#x in cell %d: probe chain from home %d broken at %d", c.key, i, tb.home(c.key), j)
			}
		}
	}
	if full != tb.Len() || tb.Len() != len(want) {
		t.Fatalf("full cells %d, Len %d, reference %d", full, tb.Len(), len(want))
	}
	if 2*tb.Len() > len(tb.cells) {
		t.Fatalf("%d live in %d cells: more than half", tb.Len(), len(tb.cells))
	}
	for k, v := range want {
		if got, ok := tb.Get(k); !ok || got != v {
			t.Fatalf("Get(%#x) = %d, %v; want %d", k, got, ok, v)
		}
	}
}

// homedKeys returns n distinct keys whose home cell is home in a table of
// size cells.
func homedKeys(rng *rand.Rand, size int, home uint64, n int) []uint64 {
	probe := NewAddrTable[uint64, uint64](size / 4)
	if len(probe.cells) != size {
		panic("homedKeys: size is not a table size")
	}
	seen := map[uint64]bool{}
	var keys []uint64
	for len(keys) < n {
		k := rng.Uint64() >> rng.IntN(64)
		if probe.home(k) == home && !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// TestAddrTableMatchesMap drives the table and a Go map through the same
// seeded random put/get/delete/Retain/reset sequence. The key pool piles
// keys onto one home cell and onto the table's last cell, so probe chains
// collide and wrap around the end, and the population crosses the growth
// threshold several times.
func TestAddrTableMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 99))
		tb := NewAddrTable[uint64, uint64](2) // 8 cells
		want := map[uint64]uint64{}

		pool := homedKeys(rng, 8, 3, 6)
		pool = append(pool, homedKeys(rng, 8, 7, 6)...) // wraps to cell 0
		for i := 0; i < 40; i++ {
			pool = append(pool, rng.Uint64()>>rng.IntN(64))
		}
		pool = append(pool, 0, ^uint64(0))

		grew := 0
		for op := 0; op < 4000; op++ {
			k := pool[rng.IntN(len(pool))]
			before := len(tb.cells)
			switch r := rng.IntN(100); {
			case r < 45:
				v := rng.Uint64()
				tb.Put(k, v)
				want[k] = v
			case r < 65:
				got, ok := tb.Get(k)
				if w, wok := want[k]; ok != wok || got != w {
					t.Fatalf("seed %d op %d: Get(%#x) = %d, %v; want %d, %v", seed, op, k, got, ok, w, wok)
				}
			case r < 93:
				got, ok := tb.Delete(k)
				if w, wok := want[k]; ok != wok || got != w {
					t.Fatalf("seed %d op %d: Delete(%#x) = %d, %v; want %d, %v", seed, op, k, got, ok, w, wok)
				}
				delete(want, k)
			case r < 99:
				mod := 2 + rng.Uint64N(3)
				seen := map[uint64]int{}
				tb.Retain(func(k, v uint64) bool {
					seen[k]++
					return v%mod != 0
				})
				if len(seen) != len(want) {
					t.Fatalf("seed %d op %d: Retain offered %d keys, table holds %d", seed, op, len(seen), len(want))
				}
				for k, v := range want {
					if seen[k] != 1 {
						t.Fatalf("seed %d op %d: Retain offered key %#x %d times", seed, op, k, seen[k])
					}
					if v%mod == 0 {
						delete(want, k)
					}
				}
			default:
				cells := len(tb.cells)
				tb.Retain(func(uint64, uint64) bool { return false })
				clear(want)
				if len(tb.cells) != cells {
					t.Fatalf("emptying Retain changed capacity %d -> %d", cells, len(tb.cells))
				}
			}
			if len(tb.cells) > before {
				grew++
			}
			checkTable(t, &tb, want)
		}
		if grew < 2 {
			t.Fatalf("seed %d: table grew %d times; the sequence never crossed the threshold", seed, grew)
		}
	}
}

// TestAddrTableWrapDelete fills the last cells of a table with keys homed
// at its last cell, so the chain wraps to cell 0, and deletes them in
// several orders: backward shifts must carry entries across the wrap.
func TestAddrTableWrapDelete(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	keys := homedKeys(rng, 16, 15, 4)
	keys = append(keys, homedKeys(rng, 16, 0, 2)...)
	perms := [][]int{{0, 1, 2, 3, 4, 5}, {5, 4, 3, 2, 1, 0}, {1, 4, 0, 5, 2, 3}, {3, 0, 4, 1, 5, 2}}
	for _, perm := range perms {
		tb := NewAddrTable[uint64, uint64](4) // 16 cells
		want := map[uint64]uint64{}
		for i, k := range keys {
			tb.Put(k, uint64(i))
			want[k] = uint64(i)
		}
		if !tb.cells[0].full || !tb.cells[1].full {
			t.Fatal("chain did not wrap to cell 0")
		}
		checkTable(t, &tb, want)
		for _, i := range perm {
			tb.Delete(keys[i])
			delete(want, keys[i])
			checkTable(t, &tb, want)
		}
	}
}

// TestAddrTableGrowth: a table presized for hint keys holds them without
// growing, and doubles once more than half its cells are live.
func TestAddrTableGrowth(t *testing.T) {
	tb := NewAddrTable[Addr, uint32](100)
	cells := len(tb.cells)
	if cells < 400 {
		t.Fatalf("hint 100 gave %d cells, want at least 400", cells)
	}
	for k := 0; k < cells/2; k++ {
		tb.Put(Addr(k)<<6, uint32(k))
	}
	if len(tb.cells) != cells {
		t.Fatalf("grew at %d live of %d cells", tb.Len(), cells)
	}
	tb.Put(Addr(cells)<<6, 0)
	if len(tb.cells) != 2*cells {
		t.Fatalf("%d live of %d cells did not double the table (now %d)", tb.Len(), cells, len(tb.cells))
	}
	for k := 0; k < cells/2; k++ {
		if v, ok := tb.Get(Addr(k) << 6); !ok || v != uint32(k) {
			t.Fatalf("binding %d lost in growth", k)
		}
	}
}

// TestAddrTableAllocFree: a table whose hint bounds its population does not
// allocate on put, get, delete or Retain.
func TestAddrTableAllocFree(t *testing.T) {
	tb := NewAddrTable[Addr, uint64](64)
	k := Addr(0)
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 64; i++ {
			tb.Put(k+Addr(i)<<6, uint64(i))
		}
		tb.Get(k)
		tb.Delete(k)
		tb.Retain(func(_ Addr, v uint64) bool { return v&1 == 0 })
		tb.Retain(func(Addr, uint64) bool { return false })
		k += 64 << 6
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per run", allocs)
	}
}

var sinkU32 uint32

// BenchmarkAddrTableWindow compares the shared table with a Go map on a
// sliding window of live blocks: for each new block, look it up, update
// it, and delete the block added a window earlier.
func BenchmarkAddrTableWindow(b *testing.B) {
	const window = 4096 // the blocks four 64 KB L1Ds hold
	blocks := make([]Addr, 1<<16)
	rng := rand.New(rand.NewPCG(1, 1))
	for i := range blocks {
		blocks[i] = Addr(rng.Uint64N(1<<24)) << 6
	}
	b.Run("AddrTable", func(b *testing.B) {
		tb := NewAddrTable[Addr, uint32](window)
		for i := 0; b.Loop(); i++ {
			blk := blocks[i&(len(blocks)-1)]
			m, _ := tb.Get(blk)
			tb.Put(blk, m|1)
			old := blocks[(i-window)&(len(blocks)-1)]
			if i >= window {
				tb.Delete(old)
			}
			sinkU32 += m
		}
	})
	b.Run("map", func(b *testing.B) {
		m := make(map[Addr]uint32, window)
		for i := 0; b.Loop(); i++ {
			blk := blocks[i&(len(blocks)-1)]
			v := m[blk]
			m[blk] = v | 1
			old := blocks[(i-window)&(len(blocks)-1)]
			if i >= window {
				delete(m, old)
			}
			sinkU32 += v
		}
	})
}
