package bench

import (
	"fmt"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// A shared host's other tenants move the simulator's speed by half for
// minutes at a time: the simulator is bound by memory latency, and their
// load on the last-level cache and memory slows every memory-bound program
// alike. So an untraced run times a fixed probe, random reads over a 16 MiB
// buffer, whenever no op is running, and reports every host time scaled to a
// host on which the probe takes nominalProbeNs per read. The probe is the
// benchmark's own code, so a change to the program does not move it.

const (
	probeWords     = 2 << 20 // 16 MiB of uint64
	probeReads     = 100_000 // per repetition, about 1 ms
	probeReps      = 5       // the probe reports their median
	nominalProbeNs = 10.0    // about an idle 2-vCPU Xeon guest's reading
)

// hostProbe measures the host's memory speed. A nil *hostProbe is the
// traced run's, which does not scale: its speed is 1.
type hostProbe struct {
	mem []byte   // mapped outside the Go heap, so the collector's pacing
	buf []uint64 // of the program's heap ignores it
	x   uint64   // the read sequence's state, carried across calls
	sum uint64   // keeps the reads live
}

func newHostProbe() (*hostProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("bench: mapping the host probe: %w", err)
	}
	p := &hostProbe{mem: mem, buf: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), probeWords), x: 1}
	for i := range p.buf {
		p.buf[i] = uint64(i)
	}
	return p, nil
}

// close unmaps the probe's buffer.
func (p *hostProbe) close() error {
	p.buf = nil
	return syscall.Munmap(p.mem)
}

// speed is the host's speed relative to the nominal one: nominalProbeNs over
// the median time per read. A host time t measured now reads t·speed at the
// nominal speed. The first repetitions refetch the part of the buffer that
// other tenants evicted since the last probe, so the reading also measures
// their pressure on the shared cache; the program's own working set is a
// small share of that cache.
func (p *hostProbe) speed() float64 {
	if p == nil {
		return 1
	}
	var ns [probeReps]float64
	for r := range ns {
		start := time.Now()
		p.reads()
		ns[r] = float64(time.Since(start)) / probeReads
	}
	sort.Float64s(ns[:])
	return nominalProbeNs / ns[probeReps/2]
}

// reads makes probeReads random reads of the buffer.
func (p *hostProbe) reads() {
	x, sum := p.x, p.sum
	for i := 0; i < probeReads; i++ {
		x = x*6364136223846793005 + 1442695040888963407 // Knuth's MMIX LCG
		sum += p.buf[(x>>20)&(probeWords-1)]
	}
	p.x, p.sum = x, sum
}
