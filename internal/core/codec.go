package core

import "encoding/binary"

// Codec converts between the decoded form S of one predictor set and the
// packed bytes stored in the memory system. Implementations must satisfy
// two laws, which the property tests in this package check for every codec
// the repository ships:
//
//  1. Round trip: Unpack(Pack(s)) is semantically equal to s.
//  2. Zero is empty: Unpack(make([]byte, BlockBytes())) is an empty set
//     (no valid entries). This makes an untouched PVTable slot read back
//     as "predictor miss", matching hardware that never initializes the
//     reserved physical range.
//
// The shipped codecs lay their fields out with BitWriter and BitReader,
// which move a whole field per call: the reader with one unaligned 64-bit
// word load, the writer with a byte-chunked OR.
type Codec[S any] interface {
	// BlockBytes is the packed size; it must equal the memory system's
	// cache block size so one request moves one predictor set.
	BlockBytes() int

	// Pack serializes s into dst, which has exactly BlockBytes bytes and
	// arrives zeroed.
	Pack(s S, dst []byte)

	// Unpack deserializes a packed set.
	Unpack(src []byte) S

	// UnpackInto deserializes a packed set into dst, reusing dst's backing
	// storage (slices, buffers) when it is already the right shape. It must
	// leave dst semantically equal to Unpack(src) regardless of dst's prior
	// contents; the PVProxy uses it to refill PVCache entries without
	// allocating on the simulation hot path.
	UnpackInto(src []byte, dst *S)
}

// AllZero reports whether every byte of b is zero. The shipped codecs'
// UnpackInto test their source with it and decode an all-zero block, the
// never-written set, to the cleared set without reading a field.
func AllZero(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
	}
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// BitWriter packs bit fields little-endian-within-bytes into a byte slice;
// predictor codecs use it to lay entries out exactly as Figure 3a does
// (11 entries x 43 bits leaves trailing unused bits in a 64-byte block).
type BitWriter struct {
	buf []byte
	pos uint // bit cursor
}

// NewBitWriter wraps buf, starting at bit 0.
func NewBitWriter(buf []byte) *BitWriter { return &BitWriter{buf: buf} }

// Write ORs the low n bits of v (n <= 64) into the buffer at the cursor;
// bits of v above n are ignored. It ORs one byte-sized chunk at a time and
// stops after the last byte that receives a set bit, so a zero field leaves
// the buffer untouched.
func (w *BitWriter) Write(v uint64, n uint) {
	if n < 64 {
		v &= 1<<n - 1
	}
	i, sh := w.pos>>3, w.pos&7
	w.pos += n
	if v == 0 {
		return
	}
	w.buf[i] |= byte(v << sh)
	for v >>= 8 - sh; v != 0; v >>= 8 {
		i++
		w.buf[i] |= byte(v)
	}
}

// Pos returns the bit cursor.
func (w *BitWriter) Pos() uint { return w.pos }

// BitReader is the matching reader for BitWriter.
type BitReader struct {
	buf []byte
	pos uint
}

// NewBitReader wraps buf, starting at bit 0.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// Read consumes n bits (n <= 64) and returns them in the low bits. A field
// is one unaligned little-endian 64-bit load at its first byte, shifted
// right by the cursor's bit offset and ORed with the ninth byte for a field
// that straddles it, then masked to n bits. A field starting in the last 8
// bytes of the buffer is loaded from a zero-padded copy instead, so no load
// reads past the buffer.
func (r *BitReader) Read(n uint) uint64 {
	i, sh := r.pos>>3, r.pos&7
	r.pos += n
	var v uint64
	// Shifts by 64 yield 0: at sh == 0 the ninth byte adds nothing, and at
	// n == 0 the mask is empty.
	if i+9 <= uint(len(r.buf)) {
		v = binary.LittleEndian.Uint64(r.buf[i:])>>sh | uint64(r.buf[i+8])<<(64-sh)
	} else if n > 0 {
		// The field starts in the last 8 bytes, so it also ends in them and
		// needs no ninth byte. A field running past the end panics here, as
		// a direct load would.
		_ = r.buf[(r.pos-1)>>3]
		var tail [8]byte
		copy(tail[:], r.buf[i:])
		v = binary.LittleEndian.Uint64(tail[:]) >> sh
	}
	return v & (^uint64(0) >> (64 - n))
}

// Pos returns the bit cursor.
func (r *BitReader) Pos() uint { return r.pos }
