package ooc

import (
	"encoding/binary"
	"hash/crc32"
	"math"
)

// EncodeLegacyWALRecord is the PER-RUN record encoder of the builds
// before the tile record, kept under _test.go only: it is how tests
// build the log image such a build leaves behind (non-test code can
// recognize the format — walLegacyHead — but neither writes nor replays
// it). One record per backend write:
//
//	w0 seq, w1 epoch, w2 nameLen<<48 | dataLen, w3 off, w4 crc32c,
//	then ceil(nameLen/8) name words and dataLen data words
//
// with the CRC over every word but w4, hashed a word at a time as the
// old code did.
func EncodeLegacyWALRecord(seq, epoch uint64, name string, off int64, data []float64) []float64 {
	nameWords := (len(name) + 7) / 8
	rec := make([]float64, 5+nameWords+len(data))
	rec[0] = math.Float64frombits(seq)
	rec[1] = math.Float64frombits(epoch)
	rec[2] = math.Float64frombits(uint64(len(name))<<48 | uint64(len(data)))
	rec[3] = math.Float64frombits(uint64(off))
	for w := 0; w < nameWords; w++ {
		var u uint64
		for k := 0; k < 8 && w*8+k < len(name); k++ {
			u |= uint64(name[w*8+k]) << (8 * uint(k))
		}
		rec[5+w] = math.Float64frombits(u)
	}
	copy(rec[5+nameWords:], data)
	rec[4] = math.Float64frombits(uint64(wordwiseCRC(rec)))
	return rec
}

// wordwiseCRC is the record checksum as the old code computed it: one
// hash.Write per eight-byte word, skipping the CRC word.
func wordwiseCRC(rec []float64) uint32 {
	h := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	var b [8]byte
	for i, w := range rec {
		if i == 4 {
			continue
		}
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(w))
		h.Write(b[:])
	}
	return h.Sum32()
}

// EncodeWALRecord frames one tile record of a single run of data at
// off. With compressed set it is the record of the builds with WAL
// compression, kept under _test.go only (non-test code recognizes the
// format — walCompressedAt — but neither writes nor replays it): the
// data words are the run's codec frame from AppendFrame, eight bytes a
// word, and w2's top bit (comp) marks them.
func EncodeWALRecord(seq, epoch uint64, name string, off int64, data []float64, compressed bool) []float64 {
	list := []walRun{{off: off, len: int64(len(data)), count: 1}}
	payload := data
	if compressed {
		frame := AppendFrame(nil, data)
		payload = make([]float64, len(frame)/8)
		for i := range payload {
			payload[i] = math.Float64frombits(binary.LittleEndian.Uint64(frame[8*i:]))
		}
	}
	rec := make([]float64, walRecordWords(name, len(list), int64(len(payload))))
	copy(rec[len(rec)-len(payload):], payload)
	walSealRecord(rec, seq, epoch, name, list)
	if compressed {
		rec[2] = math.Float64frombits(math.Float64bits(rec[2]) | 1<<63)
		rec[walCRCWord] = math.Float64frombits(uint64(walRecordCRC(rec)))
	}
	return rec
}
