package memsys

import "math/bits"

// AddrTable is an allocation-free hash table from addresses, or any other
// uint64-shaped key, to values of type V. It is the simulator's one
// structure for per-access address lookups: the in-flight prefetch records
// of the timing model and the SMS AGT indices use it in place of Go maps,
// whose hashing dominated those paths.
//
// Cells are open-addressed: Fibonacci hashing picks a key's home cell,
// collisions probe linearly, and deletion shifts the rest of the probe
// chain back, so lookups never meet tombstones. NewAddrTable presizes the
// cells so that hint keys fill at most a quarter of them; the table doubles
// only when more than half its cells are live, so a caller whose hint
// bounds the population never allocates after construction.
type AddrTable[K ~uint64, V any] struct {
	cells []addrCell[K, V]
	mask  uint64
	shift uint
	live  int
}

type addrCell[K ~uint64, V any] struct {
	key  K
	val  V
	full bool
}

// NewAddrTable returns an empty table sized for hint live keys.
func NewAddrTable[K ~uint64, V any](hint int) AddrTable[K, V] {
	size := 4
	for size < 4*hint {
		size <<= 1
	}
	var t AddrTable[K, V]
	t.alloc(size)
	return t
}

// alloc replaces the cells with size empty ones (size a power of two),
// leaving the live count to the caller.
func (t *AddrTable[K, V]) alloc(size int) {
	t.cells = make([]addrCell[K, V], size)
	t.mask = uint64(size - 1)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// home is the preferred cell for k (Fibonacci hashing).
func (t *AddrTable[K, V]) home(k K) uint64 {
	return (uint64(k) * 0x9E3779B97F4A7C15) >> t.shift
}

// Get returns the value bound to k.
func (t *AddrTable[K, V]) Get(k K) (V, bool) {
	for i := t.home(k); ; i = (i + 1) & t.mask {
		c := &t.cells[i]
		if !c.full {
			var zero V
			return zero, false
		}
		if c.key == k {
			return c.val, true
		}
	}
}

// Put binds k to v, replacing any previous binding.
func (t *AddrTable[K, V]) Put(k K, v V) {
	for i := t.home(k); ; i = (i + 1) & t.mask {
		c := &t.cells[i]
		if !c.full {
			*c = addrCell[K, V]{key: k, val: v, full: true}
			t.live++
			if 2*t.live > len(t.cells) {
				t.grow()
			}
			return
		}
		if c.key == k {
			c.val = v
			return
		}
	}
}

// grow doubles the cells and rehashes every live binding.
func (t *AddrTable[K, V]) grow() {
	old := t.cells
	t.alloc(2 * len(old))
	for _, c := range old {
		if !c.full {
			continue
		}
		i := t.home(c.key)
		for t.cells[i].full {
			i = (i + 1) & t.mask
		}
		t.cells[i] = c
	}
}

// Delete removes k and returns the value it was bound to.
func (t *AddrTable[K, V]) Delete(k K) (V, bool) {
	for i := t.home(k); ; i = (i + 1) & t.mask {
		c := &t.cells[i]
		if !c.full {
			var zero V
			return zero, false
		}
		if c.key == k {
			v := c.val
			t.removeAt(i)
			return v, true
		}
	}
}

// removeAt empties the full cell i and closes the hole: each later entry of
// the probe chain whose home does not lie cyclically in (hole, entry] moves
// back into the hole, which then moves to where that entry was.
func (t *AddrTable[K, V]) removeAt(i uint64) {
	t.live--
	for j := (i + 1) & t.mask; t.cells[j].full; j = (j + 1) & t.mask {
		if (j-t.home(t.cells[j].key))&t.mask >= (j-i)&t.mask {
			t.cells[i] = t.cells[j]
			i = j
		}
	}
	t.cells[i] = addrCell[K, V]{}
}

// Retain deletes, in place, every binding for which keep returns false;
// keep sees each binding exactly once.
func (t *AddrTable[K, V]) Retain(keep func(k K, v V) bool) {
	if t.live == 0 {
		return
	}
	// Scan one lap starting just past an empty cell. No probe chain
	// crosses that cell, so a removal's backward shift only ever moves an
	// entry the scan has not reached yet into the cell it is standing on,
	// which is why the scan re-checks that cell before moving on.
	start := uint64(0)
	for t.cells[start].full {
		start++
	}
	for i, n := start, 0; n < len(t.cells); n++ {
		i = (i + 1) & t.mask
		for c := &t.cells[i]; c.full && !keep(c.key, c.val); {
			t.removeAt(i)
		}
	}
}

// Len returns the number of live bindings.
func (t *AddrTable[K, V]) Len() int { return t.live }
