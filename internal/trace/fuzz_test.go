package trace

import (
	"bytes"
	"encoding/binary"
	"testing"

	"pvsim/internal/memsys"
)

// sliceStream replays a fixed access slice; it lets the fuzzer drive the
// codec with arbitrary (not just generator-shaped) sequences.
type sliceStream struct {
	accs []Access
	i    int
}

func (s *sliceStream) Next() Access {
	a := s.accs[s.i]
	s.i++
	return a
}

// FuzzTraceRoundTrip exercises the compiled trace codec from both sides.
// The input bytes are used twice: first as an arbitrary access sequence
// that must round-trip bit-exactly through Compile→CompiledReplayer
// (including a file serialization), then as a raw candidate trace file
// that ReadCompiled must reject or accept without ever panicking — the
// truncated/corrupt-input error paths.
func FuzzTraceRoundTrip(f *testing.F) {
	gen := func(seed uint64, n int) []byte {
		var buf bytes.Buffer
		g := NewGenerator(testParams(), seed, 0)
		var rec [17]byte
		for i := 0; i < n; i++ {
			a := g.Next()
			binary.LittleEndian.PutUint64(rec[0:], uint64(a.PC))
			binary.LittleEndian.PutUint64(rec[8:], uint64(a.Addr))
			if a.Write {
				rec[16] = 1
			} else {
				rec[16] = 0
			}
			buf.Write(rec[:])
		}
		return buf.Bytes()
	}
	f.Add(gen(42, 100), uint16(8))
	f.Add(gen(7, 5), uint16(1))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte("PVA2\x05\x00\x00\x00\x00\x00\x00\x00"), uint16(4)) // header cut after count
	f.Add([]byte("PVA2\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"), uint16(3))

	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		// Side 1: data as an access sequence (17 bytes per record).
		n := len(data) / 17
		if n > 4096 {
			n = 4096
		}
		accs := make([]Access, n)
		for i := range accs {
			rec := data[i*17:]
			accs[i] = Access{
				PC:    memsys.Addr(binary.LittleEndian.Uint64(rec[0:])),
				Addr:  memsys.Addr(binary.LittleEndian.Uint64(rec[8:])),
				Write: rec[16]&1 != 0,
			}
		}

		ct, err := Compile(&sliceStream{accs: accs}, n, int(chunk), "fuzz")
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		var ser bytes.Buffer
		if _, err := ct.WriteTo(&ser); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		reread, err := ReadCompiled(bytes.NewReader(ser.Bytes()))
		if err != nil {
			t.Fatalf("ReadCompiled on own serialization: %v", err)
		}
		cp := reread.Replayer()
		for i, want := range accs {
			if got := cp.Next(); got != want {
				t.Fatalf("compiled access %d: got %+v want %+v", i, got, want)
			}
		}
		if rem := cp.Remaining(); rem != 0 {
			t.Fatalf("CompiledReplayer holds %d accesses past the sequence", rem)
		}

		// Every strict prefix of the serialized compiled trace must error.
		if ser.Len() > 0 {
			cut := len(data) % ser.Len()
			if _, err := ReadCompiled(bytes.NewReader(ser.Bytes()[:cut])); err == nil && cut < ser.Len() {
				t.Fatalf("truncated compiled trace (%d/%d bytes) accepted", cut, ser.Len())
			}
		}

		// Side 2: data as a raw candidate trace file — the parser must
		// never panic.
		if ct, err := ReadCompiled(bytes.NewReader(data)); err == nil {
			// Validation accepted it: full replay must be panic-free and
			// yield exactly Len accesses.
			p := ct.Replayer()
			var count uint64
			for p.Remaining() > 0 {
				p.Next()
				count++
			}
			if count != ct.Len() {
				t.Fatalf("validated trace replayed %d of %d accesses", count, ct.Len())
			}
		}
	})
}
