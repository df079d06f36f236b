package ooc

// Per-tile float64 compression for the client edge: a front end's tile
// GET/PUT and scan frames negotiate it with a client (x-ooc-gorilla).
// Nothing below the front end stores or logs a frame; DESIGN.md's
// "At-rest compression, priced" says why. The codec is Gorilla-style
// XOR-of-previous delta encoding (Facebook's in-memory TSDB scheme, the
// same family VictoriaMetrics uses on disk): smooth scientific data
// XORs to mostly-zero words, and the control-bit framing stores only
// the meaningful window of each XOR. Incompressible payloads fall back
// to a raw pass-through so the encoded form is never meaningfully
// larger than the input.
//
// # Frame format
//
// Every encoded payload travels inside a self-describing frame:
//
//	bytes  0..7   codecID<<56 | elemCount       (little-endian word)
//	bytes  8..15  encodedLen<<32 | CRC-32C      (little-endian word)
//	bytes 16..    payload, zero-padded to a multiple of 8 bytes
//
// codecID is CodecRaw (little-endian float64 bits) or CodecGorilla.
// encodedLen is the unpadded payload byte length; the CRC (Castagnoli,
// the WAL's polynomial) covers exactly those bytes. The padding to whole
// 8-byte words is part of the format: clients built against it expect
// it.
//
// # Gorilla bit stream
//
// Value 0 is emitted as 64 raw bits. Each subsequent value XORs with
// its predecessor:
//
//	0            identical value
//	1 0 <m>      XOR fits the previous (leading, meaningful) window;
//	             m = the window's meaningful bits
//	1 1 L S <m>  new window: L = 6-bit leading-zero count, S = 6-bit
//	             (meaningful-bit count - 1), then the meaningful bits
//
// Decoding is exact for every bit pattern — NaN payloads, infinities,
// negative zero and denormals included — because no floating-point
// operation ever touches a value; only its bits do.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
)

// Codec identifiers carried in frame headers. Zero is deliberately
// invalid: all-zero bytes can never be mistaken for a frame.
const (
	CodecRaw     = 1
	CodecGorilla = 2
)

const (
	// frameHeaderBytes is the fixed frame header size (two words).
	frameHeaderBytes = 16
	// maxFrameElems bounds elemCount so encodedLen (<= 8*elems + slack)
	// always fits its 32-bit header field. Far above any tile the
	// runtime moves (the serving layer caps tiles at 2^22 elements).
	maxFrameElems = 1 << 28
)

var errCodecFrame = fmt.Errorf("ooc: corrupt codec frame")

// frameSizeBytes returns the full frame size for an unpadded payload
// length: header plus payload rounded up to whole words.
func frameSizeBytes(encLen int) int {
	return frameHeaderBytes + (encLen+7)/8*8
}

// AppendFrame appends the encoded frame for data to dst and returns
// the extended slice. Gorilla encoding is attempted first; when it
// does not beat the raw size the payload is stored raw, so the frame
// never exceeds frameSizeBytes(8*len(data)).
func AppendFrame(dst []byte, data []float64) []byte {
	n := len(data)
	if n > maxFrameElems {
		panic(fmt.Sprintf("ooc: frame of %d elements exceeds the codec bound %d", n, maxFrameElems))
	}
	start := len(dst)
	var hdr [frameHeaderBytes]byte
	dst = append(dst, hdr[:]...)
	codec := CodecRaw
	if n > 0 {
		dst = gorillaEncode(dst, data)
		codec = CodecGorilla
	}
	encLen := len(dst) - start - frameHeaderBytes
	if codec == CodecGorilla && encLen >= n*ElemSize {
		// Incompressible: rewind and store the raw bit patterns.
		dst = dst[:start+frameHeaderBytes]
		var b [8]byte
		for _, v := range data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			dst = append(dst, b[:]...)
		}
		encLen = n * ElemSize
		codec = CodecRaw
	}
	crc := crc32.Checksum(dst[start+frameHeaderBytes:], walCRCTable)
	binary.LittleEndian.PutUint64(dst[start:], uint64(codec)<<56|uint64(uint32(n)))
	binary.LittleEndian.PutUint64(dst[start+8:], uint64(uint32(encLen))<<32|uint64(crc))
	for pad := (8 - encLen%8) % 8; pad > 0; pad-- {
		dst = append(dst, 0)
	}
	return dst
}

// frameHeader parses and validates a frame header, returning the
// element count the frame decodes to and the total frame size in
// bytes. The slice must hold the whole frame (trailing bytes are
// fine); it does not verify the payload CRC (DecodeFrame does).
func frameHeader(frame []byte) (elems, size int, err error) {
	if len(frame) < frameHeaderBytes {
		return 0, 0, errCodecFrame
	}
	w0 := binary.LittleEndian.Uint64(frame[0:8])
	w1 := binary.LittleEndian.Uint64(frame[8:16])
	codec := int(w0 >> 56)
	if w0&(uint64(0xFFFFFF)<<32) != 0 {
		return 0, 0, errCodecFrame
	}
	elems = int(uint32(w0))
	encLen := int(uint32(w1 >> 32))
	switch {
	case codec == CodecRaw:
		if encLen != elems*ElemSize {
			return 0, 0, errCodecFrame
		}
	case codec == CodecGorilla:
		// Gorilla is only ever emitted when it beats raw, and it needs
		// at least one full value. Anything else is not ours.
		if elems < 1 || encLen < 8 || encLen >= elems*ElemSize {
			return 0, 0, errCodecFrame
		}
	default:
		return 0, 0, errCodecFrame
	}
	size = frameSizeBytes(encLen)
	if elems > maxFrameElems || len(frame) < size {
		return 0, 0, errCodecFrame
	}
	return elems, size, nil
}

// DecodeFrame decodes one frame into dst, which must hold exactly the
// frame's element count (callers size it from the box the frame
// carries). It returns the frame's total byte size. Any mismatch —
// truncated buffer, CRC failure, malformed bit stream, wrong element
// count — is an error and dst's contents are unspecified.
func DecodeFrame(frame []byte, dst []float64) (int, error) {
	elems, size, err := frameHeader(frame)
	if err != nil {
		return 0, err
	}
	if elems != len(dst) {
		return 0, fmt.Errorf("ooc: codec frame holds %d elements, want %d", elems, len(dst))
	}
	w0 := binary.LittleEndian.Uint64(frame[0:8])
	w1 := binary.LittleEndian.Uint64(frame[8:16])
	encLen := int(uint32(w1 >> 32))
	payload := frame[frameHeaderBytes : frameHeaderBytes+encLen]
	if crc32.Checksum(payload, walCRCTable) != uint32(w1) {
		return 0, errCodecFrame
	}
	switch int(w0 >> 56) {
	case CodecRaw:
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*ElemSize:]))
		}
	case CodecGorilla:
		if err := gorillaDecode(payload, dst); err != nil {
			return 0, err
		}
	}
	return size, nil
}

// bitWriter appends an MSB-first bit stream to a byte slice.
type bitWriter struct {
	buf []byte
	cur byte
	n   uint8 // bits buffered in cur (0..7)
}

func (w *bitWriter) writeBit(b uint64) {
	w.cur = w.cur<<1 | byte(b&1)
	w.n++
	if w.n == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.n = 0, 0
	}
}

func (w *bitWriter) writeBits(v uint64, nb uint) {
	for i := int(nb) - 1; i >= 0; i-- {
		w.writeBit(v >> uint(i))
	}
}

// finish pads the last partial byte with zero bits and returns the
// stream.
func (w *bitWriter) finish() []byte {
	if w.n > 0 {
		w.buf = append(w.buf, w.cur<<(8-w.n))
		w.cur, w.n = 0, 0
	}
	return w.buf
}

// bitReader consumes an MSB-first bit stream; overruns latch err.
type bitReader struct {
	buf []byte
	pos int
	n   uint8
	err bool
}

func (r *bitReader) readBit() uint64 {
	if r.pos >= len(r.buf) {
		r.err = true
		return 0
	}
	b := uint64(r.buf[r.pos]>>(7-r.n)) & 1
	r.n++
	if r.n == 8 {
		r.n = 0
		r.pos++
	}
	return b
}

func (r *bitReader) readBits(nb uint) uint64 {
	var v uint64
	for i := uint(0); i < nb; i++ {
		v = v<<1 | r.readBit()
	}
	return v
}

// gorillaEncode appends the XOR-of-previous bit stream for data (at
// least one element) to dst.
func gorillaEncode(dst []byte, data []float64) []byte {
	w := bitWriter{buf: dst}
	prev := math.Float64bits(data[0])
	w.writeBits(prev, 64)
	var winLead, winSig uint
	for _, f := range data[1:] {
		cur := math.Float64bits(f)
		xor := cur ^ prev
		prev = cur
		if xor == 0 {
			w.writeBit(0)
			continue
		}
		w.writeBit(1)
		lead := uint(bits.LeadingZeros64(xor))
		trail := uint(bits.TrailingZeros64(xor))
		if winSig > 0 && lead >= winLead && trail >= 64-winLead-winSig {
			w.writeBit(0)
			w.writeBits(xor>>(64-winLead-winSig), winSig)
			continue
		}
		sig := 64 - lead - trail
		w.writeBit(1)
		w.writeBits(uint64(lead), 6)
		w.writeBits(uint64(sig-1), 6)
		w.writeBits(xor>>trail, sig)
		winLead, winSig = lead, sig
	}
	return w.finish()
}

// gorillaDecode reverses gorillaEncode into dst (the element count
// comes from the frame header). A malformed stream — window reuse
// before any window exists, a window wider than 64 bits, or a stream
// shorter than the element count needs — is an error.
func gorillaDecode(payload []byte, dst []float64) error {
	r := bitReader{buf: payload}
	prev := r.readBits(64)
	dst[0] = math.Float64frombits(prev)
	var winLead, winSig uint
	for i := 1; i < len(dst); i++ {
		if r.readBit() == 0 {
			dst[i] = math.Float64frombits(prev)
			continue
		}
		if r.readBit() == 0 {
			if winSig == 0 {
				return errCodecFrame
			}
			prev ^= r.readBits(winSig) << (64 - winLead - winSig)
		} else {
			winLead = uint(r.readBits(6))
			winSig = uint(r.readBits(6)) + 1
			if winLead+winSig > 64 {
				return errCodecFrame
			}
			prev ^= r.readBits(winSig) << (64 - winLead - winSig)
		}
		dst[i] = math.Float64frombits(prev)
	}
	if r.err {
		return errCodecFrame
	}
	return nil
}
