package core

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestBitWriterReaderRoundTrip(t *testing.T) {
	buf := make([]byte, 16)
	w := NewBitWriter(buf)
	w.Write(0x5, 3)
	w.Write(0xABCD, 16)
	w.Write(0x1, 1)
	w.Write(0xFFFFFFFFFF, 40)
	if w.Pos() != 60 {
		t.Fatalf("writer pos = %d, want 60", w.Pos())
	}

	r := NewBitReader(buf)
	if got := r.Read(3); got != 0x5 {
		t.Errorf("field 1 = %#x", got)
	}
	if got := r.Read(16); got != 0xABCD {
		t.Errorf("field 2 = %#x", got)
	}
	if got := r.Read(1); got != 1 {
		t.Errorf("field 3 = %#x", got)
	}
	if got := r.Read(40); got != 0xFFFFFFFFFF {
		t.Errorf("field 4 = %#x", got)
	}
	if r.Pos() != 60 {
		t.Errorf("reader pos = %d", r.Pos())
	}
}

// TestBitFieldsQuick: arbitrary (value, width) sequences round-trip through
// the packed representation.
func TestBitFieldsQuick(t *testing.T) {
	fn := func(vals []uint64, widths []uint8) bool {
		n := len(vals)
		if len(widths) < n {
			n = len(widths)
		}
		if n > 20 {
			n = 20
		}
		buf := make([]byte, 8*20+8)
		w := NewBitWriter(buf)
		fields := make([]struct {
			v     uint64
			width uint
		}, 0, n)
		for i := 0; i < n; i++ {
			width := uint(widths[i]%64) + 1
			v := vals[i] & (1<<width - 1)
			w.Write(v, width)
			fields = append(fields, struct {
				v     uint64
				width uint
			}{v, width})
		}
		r := NewBitReader(buf)
		for _, f := range fields {
			if got := r.Read(f.width); got != f.v {
				t.Logf("width %d: wrote %#x read %#x", f.width, f.v, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitWriterZeroBuffer(t *testing.T) {
	buf := make([]byte, 2)
	w := NewBitWriter(buf)
	w.Write(0, 16) // writing zeros must leave the buffer zero
	for _, b := range buf {
		if b != 0 {
			t.Fatal("zero write dirtied buffer")
		}
	}
}

// refWrite and refRead are the bit-at-a-time codec BitWriter and BitReader
// must match bit for bit: the LSB-first, little-endian-within-bytes layout.
func refWrite(buf []byte, pos uint, v uint64, n uint) {
	for i := uint(0); i < n; i++ {
		if v&(1<<i) != 0 {
			buf[(pos+i)>>3] |= 1 << ((pos + i) & 7)
		}
	}
}

func refRead(buf []byte, pos uint, n uint) uint64 {
	var v uint64
	for i := uint(0); i < n; i++ {
		if buf[(pos+i)>>3]&(1<<((pos+i)&7)) != 0 {
			v |= 1 << i
		}
	}
	return v
}

// lowBits masks v to its low n bits (n <= 64).
func lowBits(v uint64, n uint) uint64 {
	if n == 64 {
		return v
	}
	return v & (1<<n - 1)
}

// checkFields writes fields into a buffer of exactly the bytes they need,
// compares the bytes with the reference layout, and reads them back.
func checkFields(t *testing.T, vals []uint64, widths []uint) {
	t.Helper()
	total := uint(0)
	for _, n := range widths {
		total += n
	}
	buf := make([]byte, (total+7)/8)
	ref := make([]byte, len(buf))
	w := NewBitWriter(buf)
	for i, n := range widths {
		refWrite(ref, w.Pos(), vals[i], n)
		w.Write(vals[i], n)
	}
	if !bytes.Equal(buf, ref) {
		t.Fatalf("widths %v: packed %x, reference %x", widths, buf, ref)
	}
	r := NewBitReader(buf)
	for i, n := range widths {
		if got, want := r.Read(n), lowBits(vals[i], n); got != want {
			t.Fatalf("widths %v: field %d (%d bits at %d) read %#x, want %#x", widths, i, n, r.Pos()-n, got, want)
		}
	}
}

// TestBitFieldsExactLength packs random field sequences into buffers with
// no slack, so the last fields always go through the reader's tail path.
func TestBitFieldsExactLength(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for iter := 0; iter < 2000; iter++ {
		k := 1 + rng.IntN(24)
		vals := make([]uint64, k)
		widths := make([]uint, k)
		for i := range vals {
			vals[i] = rng.Uint64() // bits above the width must be ignored
			widths[i] = uint(rng.IntN(65))
		}
		checkFields(t, vals, widths)
	}
}

// TestBitFieldsBlockEnd places 64-bit fields at every bit offset 0-7 such
// that each ends on the last byte of a 64-byte block: offsets 1-7 straddle
// nine bytes, the ninth being the block's last.
func TestBitFieldsBlockEnd(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for off := uint(0); off < 8; off++ {
		start := 448 - 8 + off
		if off == 0 {
			start = 448
		}
		if end := start + 63; end>>3 != 63 {
			t.Fatalf("offset %d: field ends in byte %d", off, end>>3)
		}
		v := rng.Uint64()
		checkFields(t, []uint64{0, v}, []uint{start, 64})

		// The same position read out of a block of random bytes.
		blk := make([]byte, 64)
		for i := range blk {
			blk[i] = byte(rng.Uint32())
		}
		r := NewBitReader(blk)
		r.Read(start)
		if got, want := r.Read(64), refRead(blk, start, 64); got != want {
			t.Fatalf("offset %d: read %#x, want %#x", off, got, want)
		}
		// Every field of the block's last 8 bytes, any width that fits.
		for pos := uint(448); pos < 512; pos++ {
			for n := uint(0); pos+n <= 512 && n <= 64; n++ {
				r := NewBitReader(blk)
				r.Read(pos)
				if got, want := r.Read(n), refRead(blk, pos, n); got != want {
					t.Fatalf("%d bits at %d: read %#x, want %#x", n, pos, got, want)
				}
			}
		}
	}
}

// TestBitWriterMasksHighBits: Write stores only the low n bits of v, so a
// field never spills into its neighbour.
func TestBitWriterMasksHighBits(t *testing.T) {
	for n := uint(0); n <= 64; n++ {
		for off := uint(0); off < 8; off++ {
			buf := make([]byte, 10)
			w := NewBitWriter(buf)
			w.Write(0, off)
			w.Write(^uint64(0), n)
			ref := make([]byte, 10)
			refWrite(ref, off, ^uint64(0), n)
			if !bytes.Equal(buf, ref) {
				t.Fatalf("%d ones at bit %d: packed %x, want %x", n, off, buf, ref)
			}
		}
	}
}

// TestAllZero: every length up to two words and a tail, with no set byte
// and with one set byte at each position.
func TestAllZero(t *testing.T) {
	for n := 0; n <= 19; n++ {
		b := make([]byte, n)
		if !AllZero(b) {
			t.Fatalf("AllZero(%d zero bytes) = false", n)
		}
		for i := range b {
			b[i] = 0x10
			if AllZero(b) {
				t.Fatalf("AllZero of %d bytes with byte %d set = true", n, i)
			}
			b[i] = 0
		}
	}
}

// TestBitReaderZeroBlock: every field of a zero block reads as zero, the
// property behind the codec's zero-is-empty law.
func TestBitReaderZeroBlock(t *testing.T) {
	blk := make([]byte, 64)
	for pos := uint(0); pos < 512; pos++ {
		for n := uint(0); pos+n <= 512 && n <= 64; n++ {
			r := NewBitReader(blk)
			r.Read(pos)
			if got := r.Read(n); got != 0 {
				t.Fatalf("%d bits at %d of a zero block = %#x", n, pos, got)
			}
		}
	}
}

// TestBitReaderPastEndPanics: a field running past the buffer is a codec
// bug, and reading it panics rather than returning invented zeros.
func TestBitReaderPastEndPanics(t *testing.T) {
	for _, tc := range []struct{ size, pos, n uint }{{64, 449, 64}, {64, 508, 5}, {3, 20, 5}, {8, 1, 64}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d bits at %d of a %d-byte buffer did not panic", tc.n, tc.pos, tc.size)
				}
			}()
			r := NewBitReader(make([]byte, tc.size))
			r.Read(tc.pos)
			r.Read(tc.n)
		}()
	}
}

// FuzzBitFields checks BitWriter and BitReader against the bit-at-a-time
// reference. Each 9-byte chunk of the input is one field: a width (mod 65)
// and a 64-bit value whose bits above the width must be ignored. The fields
// are packed into an exact-length buffer, and the same widths are read out
// of the raw input bytes.
func FuzzBitFields(f *testing.F) {
	f.Add([]byte{43, 1, 2, 3, 4, 5, 6, 7, 8, 64, 255, 255, 255, 255, 255, 255, 255, 255, 4, 9, 0, 0, 0, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{64, 0xA5, 0x5A, 0xFF, 0, 0x80, 1, 0x7F, 0xC3}, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		var vals []uint64
		var widths []uint
		for c := data; len(c) >= 9 && len(widths) < 64; c = c[9:] {
			widths = append(widths, uint(c[0])%65)
			vals = append(vals, binary.LittleEndian.Uint64(c[1:9]))
		}
		if len(widths) == 0 {
			return
		}
		checkFields(t, vals, widths)

		r := NewBitReader(data)
		for _, n := range widths {
			pos := r.Pos()
			if pos+n > uint(len(data))*8 {
				break
			}
			if got, want := r.Read(n), refRead(data, pos, n); got != want {
				t.Fatalf("%d bits at %d of the input: read %#x, want %#x", n, pos, got, want)
			}
		}
	})
}
