package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"

	"pvsim/internal/memsys"
)

// Compiled trace file format (little-endian), magic "PVA2":
//
//	magic    [4]byte "PVA2"
//	count    uint64          total records
//	chunkLen uint32          records per chunk (last chunk may be short)
//	metaLen  uint32          provenance string length
//	meta     metaLen bytes   free-form provenance ("workload=Apache seed=42 ...")
//	nchunks  uint32          number of chunks (== ceil(count/chunkLen))
//	offs     nchunks x uint64  byte offset of each chunk within data
//	dataLen  uint64          encoded record bytes
//	data     dataLen bytes   chunks, back to back
//
// Each chunk is an independently decodable block: its first record carries
// the PC and address as *absolute* values (a sync point), and every
// following record is delta-encoded (zig-zag) against its predecessor. Sync
// points make replay rewind-free — Reset is a couple of integer stores,
// never a re-scan — and the chunk directory makes the block format
// mmap/seek-friendly: a consumer can jump to record i by starting at chunk
// i/chunkLen and decoding forward at most chunkLen-1 records.
//
// Records use a length-tagged group encoding rather than varints, chosen
// for decode speed: one tag byte carries the write flag (bit 7) and
// the byte lengths of both fields (bits 5-3: len(pc)-1, bits 2-0:
// len(addr)-1), followed by the two fields as minimal little-endian byte
// strings. The decoder learns both field lengths from a single byte — no
// per-byte continuation bits to discover serially.
const compiledMagic = "PVA2"

// DefaultChunkLen is the records-per-chunk granularity Compile uses when the
// caller passes 0; 4096 amortizes the sync-point overhead to noise.
const DefaultChunkLen = 4096

// Compiled is one core's access stream materialized into the PVA2 block
// format: a flat byte slice plus its chunk directory, decodable in place
// with no per-access allocation. Build one with Compile (from any Stream) or
// ReadCompiled (from a file); replay it through Replayer.
type Compiled struct {
	count    uint64
	chunkLen uint32
	meta     string
	offs     []uint64
	data     []byte
}

// Len returns the number of compiled accesses.
func (t *Compiled) Len() uint64 { return t.count }

// ChunkLen returns the records-per-chunk granularity.
func (t *Compiled) ChunkLen() int { return int(t.chunkLen) }

// Chunks returns the number of chunks.
func (t *Compiled) Chunks() int { return len(t.offs) }

// Meta returns the free-form provenance string recorded at compile time.
func (t *Compiled) Meta() string { return t.meta }

// DataBytes returns the encoded record payload size (excluding headers).
func (t *Compiled) DataBytes() int { return len(t.data) }

// chunkRecords returns how many records chunk i holds (the last chunk may
// be short).
func (t *Compiled) chunkRecords(i int) uint64 {
	start := uint64(i) * uint64(t.chunkLen)
	n := t.count - start
	if n > uint64(t.chunkLen) {
		n = uint64(t.chunkLen)
	}
	return n
}

// Compile materializes n accesses from s into the PVA2 block format.
// chunkLen is the sync-point period (0 = DefaultChunkLen); meta is a
// free-form provenance string stored alongside the data. A negative n is an
// error: the count header is unsigned, so letting it through would promise
// ~2^64 records to every reader of the file.
func Compile(s Stream, n int, chunkLen int, meta string) (*Compiled, error) {
	if n < 0 {
		return nil, fmt.Errorf("trace: compile: negative access count %d", n)
	}
	if chunkLen <= 0 {
		chunkLen = DefaultChunkLen
	}
	t := &Compiled{
		count:    uint64(n),
		chunkLen: uint32(chunkLen),
		meta:     meta,
		data:     make([]byte, 0, n*4), // tag + small deltas, typically ~4 bytes
	}
	var prevPC, prevAddr int64
	for i := 0; i < n; i++ {
		a := s.Next()
		pc, addr := int64(a.PC), int64(a.Addr)
		if i%chunkLen == 0 {
			// Sync point: open a chunk with the record encoded absolutely.
			t.offs = append(t.offs, uint64(len(t.data)))
			t.data = appendGroup(t.data, a.Write, uint64(pc), uint64(addr))
		} else {
			t.data = appendGroup(t.data, a.Write, zigzag(pc-prevPC), zigzag(addr-prevAddr))
		}
		prevPC, prevAddr = pc, addr
	}
	return t, nil
}

// zigzag maps a signed delta onto an unsigned value so that small deltas of
// either sign encode in few bytes; unzigzag inverts it.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendGroup appends one length-tagged record: the tag byte (write flag in
// bit 7, len(a)-1 in bits 5-3, len(b)-1 in bits 2-0) followed by a and b as
// minimal little-endian byte strings.
func appendGroup(dst []byte, write bool, a, b uint64) []byte {
	la := (bits.Len64(a|1) + 7) >> 3
	lb := (bits.Len64(b|1) + 7) >> 3
	tag := byte(la-1)<<3 | byte(lb-1)
	if write {
		tag |= 0x80
	}
	dst = append(dst, tag)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], a)
	dst = append(dst, buf[:la]...)
	binary.LittleEndian.PutUint64(buf[:], b)
	dst = append(dst, buf[:lb]...)
	return dst
}

// readGroup decodes one record's tag and raw fields at pos byte by byte.
// Validation guarantees the record is in bounds.
func readGroup(data []byte, pos int) (tag byte, a, b uint64, next int) {
	tag = data[pos]
	la := int(tag>>3&7) + 1
	lb := int(tag&7) + 1
	pos++
	for i := 0; i < la; i++ {
		a |= uint64(data[pos+i]) << (8 * i)
	}
	pos += la
	for i := 0; i < lb; i++ {
		b |= uint64(data[pos+i]) << (8 * i)
	}
	return tag, a, b, pos + lb
}

// WriteTo serializes the compiled trace; it implements io.WriterTo.
func (t *Compiled) WriteTo(w io.Writer) (int64, error) {
	var hdr bytes.Buffer
	hdr.WriteString(compiledMagic)
	var u64 [8]byte
	var u32 [4]byte
	binary.LittleEndian.PutUint64(u64[:], t.count)
	hdr.Write(u64[:])
	binary.LittleEndian.PutUint32(u32[:], t.chunkLen)
	hdr.Write(u32[:])
	binary.LittleEndian.PutUint32(u32[:], uint32(len(t.meta)))
	hdr.Write(u32[:])
	hdr.WriteString(t.meta)
	binary.LittleEndian.PutUint32(u32[:], uint32(len(t.offs)))
	hdr.Write(u32[:])
	for _, off := range t.offs {
		binary.LittleEndian.PutUint64(u64[:], off)
		hdr.Write(u64[:])
	}
	binary.LittleEndian.PutUint64(u64[:], uint64(len(t.data)))
	hdr.Write(u64[:])
	n, err := w.Write(hdr.Bytes())
	written := int64(n)
	if err != nil {
		return written, fmt.Errorf("trace: compiled header: %w", err)
	}
	n, err = w.Write(t.data)
	written += int64(n)
	if err != nil {
		return written, fmt.Errorf("trace: compiled data: %w", err)
	}
	return written, nil
}

// ReadCompiled parses and fully validates a PVA2 compiled trace. Validation
// walks every chunk once, checking the directory and every record against
// the data bounds, so replay afterwards needs no per-record error handling
// — a Replayer over a ReadCompiled trace cannot run off the buffer.
func ReadCompiled(r io.Reader) (*Compiled, error) {
	all, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading compiled trace: %w", err)
	}
	return parseCompiled(all)
}

// OpenCompiled reads a compiled trace file.
func OpenCompiled(path string) (*Compiled, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := parseCompiled(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

func parseCompiled(b []byte) (*Compiled, error) {
	pos := 0
	need := func(n int) error {
		if len(b)-pos < n {
			return fmt.Errorf("trace: compiled trace truncated at byte %d (need %d more)", pos, n)
		}
		return nil
	}
	if err := need(4 + 8 + 4 + 4); err != nil {
		return nil, err
	}
	if string(b[:4]) != compiledMagic {
		return nil, fmt.Errorf("trace: bad compiled magic %q", b[:4])
	}
	pos = 4
	t := &Compiled{}
	t.count = binary.LittleEndian.Uint64(b[pos:])
	pos += 8
	t.chunkLen = binary.LittleEndian.Uint32(b[pos:])
	pos += 4
	metaLen := int(binary.LittleEndian.Uint32(b[pos:]))
	pos += 4
	if t.count > 0 && t.chunkLen == 0 {
		return nil, fmt.Errorf("trace: compiled trace has %d records but zero chunk length", t.count)
	}
	if err := need(metaLen); err != nil {
		return nil, err
	}
	t.meta = string(b[pos : pos+metaLen])
	pos += metaLen
	if err := need(4); err != nil {
		return nil, err
	}
	nchunks := int(binary.LittleEndian.Uint32(b[pos:]))
	pos += 4
	wantChunks := 0
	if t.count > 0 {
		wantChunks = int((t.count + uint64(t.chunkLen) - 1) / uint64(t.chunkLen))
	}
	if nchunks != wantChunks {
		return nil, fmt.Errorf("trace: compiled trace declares %d chunks, %d records at chunk length %d imply %d",
			nchunks, t.count, t.chunkLen, wantChunks)
	}
	if err := need(8 * nchunks); err != nil {
		return nil, err
	}
	t.offs = make([]uint64, nchunks)
	for i := range t.offs {
		t.offs[i] = binary.LittleEndian.Uint64(b[pos:])
		pos += 8
	}
	if err := need(8); err != nil {
		return nil, err
	}
	dataLen := binary.LittleEndian.Uint64(b[pos:])
	pos += 8
	if uint64(len(b)-pos) != dataLen {
		return nil, fmt.Errorf("trace: compiled trace carries %d data bytes, header declares %d", len(b)-pos, dataLen)
	}
	t.data = b[pos:]
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// validate walks every chunk's records with explicit bounds checks; after
// it passes, Replayer decode is structurally safe. Record lengths are
// self-describing (the tag byte), so validation is a single linear pass.
func (t *Compiled) validate() error {
	pos := 0
	for c := range t.offs {
		if uint64(pos) != t.offs[c] {
			return fmt.Errorf("trace: chunk %d starts at byte %d, directory says %d", c, pos, t.offs[c])
		}
		for i := uint64(0); i < t.chunkRecords(c); i++ {
			if pos >= len(t.data) {
				return fmt.Errorf("trace: compiled chunk %d truncated before record %d", c, i)
			}
			tag := t.data[pos]
			rl := 1 + int(tag>>3&7) + 1 + int(tag&7) + 1
			if len(t.data)-pos < rl {
				return fmt.Errorf("trace: compiled chunk %d truncated mid-record (%d of %d bytes)", c, len(t.data)-pos, rl)
			}
			pos += rl
		}
	}
	if pos != len(t.data) {
		return fmt.Errorf("trace: %d trailing bytes after the last compiled chunk", len(t.data)-pos)
	}
	return nil
}

// Replayer returns a fresh replayer positioned at the start of the trace.
func (t *Compiled) Replayer() *CompiledReplayer {
	return &CompiledReplayer{t: t}
}

// CompiledReplayer re-plays a compiled trace with zero allocation, one
// access per Next; it implements Source (Next/Reset). Next panics past the
// end of the trace (the length is known up front via Len).
type CompiledReplayer struct {
	t        *Compiled
	pos      int    // byte position in t.data
	chunk    int    // index of the chunk being decoded
	left     uint64 // records remaining in the current chunk
	consumed uint64
	prevPC   int64
	prevAddr int64
}

// Len returns the total number of compiled accesses.
func (p *CompiledReplayer) Len() uint64 { return p.t.count }

// Remaining returns how many accesses are left.
func (p *CompiledReplayer) Remaining() uint64 { return p.t.count - p.consumed }

// Reset rewinds to the start of the trace; no re-scan is needed because
// every chunk opens with an absolute sync point.
func (p *CompiledReplayer) Reset() {
	p.pos, p.chunk, p.left, p.consumed = 0, 0, 0, 0
	p.prevPC, p.prevAddr = 0, 0
}

// Next implements Stream; it panics past the end of the trace.
func (p *CompiledReplayer) Next() Access {
	if p.consumed >= p.t.count {
		panic(fmt.Sprintf("trace: compiled replay past end (%d accesses)", p.t.count))
	}
	tag, a, b, next := readGroup(p.t.data, p.pos)
	p.pos = next
	if p.left == 0 {
		// Chunk boundary: the record is encoded absolutely.
		p.prevPC, p.prevAddr = int64(a), int64(b)
		p.left = p.t.chunkRecords(p.chunk) - 1
		p.chunk++
	} else {
		p.prevPC += unzigzag(a)
		p.prevAddr += unzigzag(b)
		p.left--
	}
	p.consumed++
	return Access{PC: memsys.Addr(p.prevPC), Addr: memsys.Addr(p.prevAddr), Write: tag&0x80 != 0}
}
