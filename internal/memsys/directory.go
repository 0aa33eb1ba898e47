package memsys

// directory tracks which cores' L1 data caches may hold each block. It is a
// deliberately simple full-map invalidation directory: a store by one core
// invalidates every other sharer's L1 copy, which is the only coherence
// behaviour SMS cares about (an invalidation ends a spatial-region
// generation, §3.1).
type directory struct {
	sharers AddrTable[Addr, uint32]
}

// newDirectory returns an empty directory that grows on demand.
func newDirectory() *directory { return newDirectorySized(0) }

// newDirectorySized returns an empty directory presized for blocks tracked
// blocks. The directory mirrors L1D residency, so a hierarchy passes cores
// x L1D lines and its directory never grows.
func newDirectorySized(blocks int) *directory {
	return &directory{sharers: NewAddrTable[Addr, uint32](blocks)}
}

// add records that core's L1D now holds block.
func (d *directory) add(core int, block Addr) {
	m, _ := d.sharers.Get(block)
	d.sharers.Put(block, m|1<<uint(core))
}

// remove records that core's L1D no longer holds block.
func (d *directory) remove(core int, block Addr) {
	m, ok := d.sharers.Get(block)
	if !ok {
		return
	}
	m &^= 1 << uint(core)
	if m == 0 {
		d.sharers.Delete(block)
	} else {
		d.sharers.Put(block, m)
	}
}

// others returns the sharer mask for block excluding core.
func (d *directory) others(core int, block Addr) uint32 {
	m, _ := d.sharers.Get(block)
	return m &^ (1 << uint(core))
}

// len returns the number of tracked blocks (for tests).
func (d *directory) len() int { return d.sharers.Len() }

// reset forgets every sharer, keeping the table's capacity for reuse.
func (d *directory) reset() { d.sharers.Reset() }
