package memsys

import "fmt"

// Addr is a physical byte address.
type Addr uint64

// AddrRange is a half-open physical address interval [Start, End).
type AddrRange struct {
	Start Addr
	End   Addr
}

// Contains reports whether a falls inside the range.
func (r AddrRange) Contains(a Addr) bool { return a >= r.Start && a < r.End }

// Size returns the range length in bytes.
func (r AddrRange) Size() uint64 { return uint64(r.End - r.Start) }

func (r AddrRange) String() string {
	return fmt.Sprintf("[%#x, %#x)", uint64(r.Start), uint64(r.End))
}

// AccessKind identifies who generated a memory request. The L2 itself is
// oblivious to the distinction (per the paper, PVProxy requests "do not
// differ from the requests generated by the conventional L1 caches"); the
// kinds exist purely for statistics.
type AccessKind uint8

const (
	// Load is a demand data read issued by a core.
	Load AccessKind = iota
	// Store is a demand data write issued by a core.
	Store
	// IFetch is an instruction fetch.
	IFetch
	// IPrefetch is a next-line instruction prefetch.
	IPrefetch
	// DPrefetch is a data prefetch issued by an optimization engine (SMS).
	DPrefetch
	// PVFetch is a predictor-metadata read issued by a PVProxy.
	PVFetch
	// PVWriteback is a dirty predictor set written back by a PVProxy.
	PVWriteback

	// NumKinds is the number of distinct access kinds.
	NumKinds
)

var kindNames = [NumKinds]string{
	"load", "store", "ifetch", "iprefetch", "dprefetch", "pvfetch", "pvwriteback",
}

func (k AccessKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("AccessKind(%d)", uint8(k))
}

// IsPV reports whether the kind is predictor-virtualization metadata traffic.
func (k AccessKind) IsPV() bool { return k == PVFetch || k == PVWriteback }

// Class partitions addresses into application data and predictor (PV)
// metadata, mirroring the split of Figure 8.
type Class uint8

const (
	// ClassApp is ordinary application data.
	ClassApp Class = iota
	// ClassPV is data inside a reserved PVTable address range.
	ClassPV

	// NumClasses is the number of traffic classes.
	NumClasses
)

func (c Class) String() string {
	if c == ClassApp {
		return "app"
	}
	return "pv"
}

// Level identifies the hierarchy level that satisfied an access.
type Level uint8

const (
	// LevelL1 means the access hit in the requesting core's L1.
	LevelL1 Level = iota + 1
	// LevelL2 means the access was satisfied by the shared L2.
	LevelL2
	// LevelMem means the access went to main memory.
	LevelMem
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMem:
		return "mem"
	}
	return fmt.Sprintf("Level(%d)", uint8(l))
}
