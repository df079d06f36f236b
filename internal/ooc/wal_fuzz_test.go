package ooc

// FuzzWALRecord drives the WAL record decoder with arbitrary bytes —
// the exact situation replay faces after a power cut tore the log at
// a random byte — and with valid logs it frames itself from the fuzz
// input. Properties: decoding never panics and never reads out of
// bounds; a log the encoder framed round-trips exactly; any torn
// prefix of a valid log decodes to a strict prefix of its records.
//
// Run with: go test ./internal/ooc/ -fuzz FuzzWALRecord

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// walWordsOf reinterprets raw bytes as log words (little-endian,
// zero-padded tail) — the shape replay reads off a torn log file.
func walWordsOf(raw []byte) []float64 {
	words := make([]float64, (len(raw)+7)/8)
	for i := range words {
		var b [8]byte
		copy(b[:], raw[i*8:])
		words[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	return words
}

func FuzzWALRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a log at all, just text that is long enough to scan"))
	// A well-formed single-record log (epoch 1).
	good := []float64{math.Float64frombits(1)}
	good = append(good, walTestRecord(1, 1, "A", oneRun(64, 3), []float64{1, 2, 3})...)
	var goodB []byte
	for _, w := range good {
		goodB = binary.LittleEndian.AppendUint64(goodB, math.Float64bits(w))
	}
	f.Add(goodB)
	f.Add(goodB[:len(goodB)-5]) // torn mid-word
	f.Add(append(append([]byte{}, goodB...), goodB...))

	f.Fuzz(func(t *testing.T, raw []byte) {
		// 1. Arbitrary bytes: scanning must be total — no panics, no
		// out-of-bounds end, records well-formed and strictly ordered.
		words := walWordsOf(raw)
		var epoch uint64
		if len(words) > 0 {
			epoch = math.Float64bits(words[0])
		}
		for _, ep := range []uint64{epoch, 1} {
			recs, end := walScan(words, ep)
			if end < walHeaderWords || (len(words) >= walHeaderWords && end > int64(len(words))) {
				t.Fatalf("scan end %d out of bounds for %d words", end, len(words))
			}
			last := uint64(0)
			for _, r := range recs {
				if r.seq <= last {
					t.Fatalf("scan returned non-increasing seq %d after %d", r.seq, last)
				}
				last = r.seq
				if r.epoch != ep {
					t.Fatalf("scan returned epoch %d, scanned for %d", r.epoch, ep)
				}
				if len(r.name) == 0 || len(r.name) > MaxNameLen {
					t.Fatalf("scan returned name of %d bytes", len(r.name))
				}
				// The run list tiles the payload exactly, so applying the
				// record can never index outside it.
				var covered int64
				for _, e := range r.runs {
					if e.off < 0 || e.len <= 0 || e.stride < 0 || e.count <= 0 {
						t.Fatalf("scan returned run %+v", e)
					}
					covered += e.len * e.count
				}
				if covered != int64(len(r.data)) {
					t.Fatalf("scan returned runs covering %d of %d payload words", covered, len(r.data))
				}
			}
		}

		// 2. Frame a valid log from the fuzz input and round-trip it.
		const maxRecs = 8
		log := []float64{math.Float64frombits(7)}
		var want []walRecord
		for i, rest := 0, raw; i < maxRecs && len(rest) > 0; i++ {
			nameLen := int(rest[0])%16 + 1
			if nameLen > len(rest) {
				nameLen = len(rest)
			}
			nameB := make([]byte, nameLen)
			for j := range nameB {
				nameB[j] = 'a' + rest[j]%26
			}
			rest = rest[nameLen:]
			dataLen := (len(rest) % 5) + 1
			data := make([]float64, dataLen)
			for j := range data {
				var b [8]byte
				copy(b[:], rest)
				if len(rest) > 8 {
					rest = rest[8:]
				} else {
					rest = nil
				}
				data[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
			}
			// An even payload is logged as a two-run progression, an odd one
			// as a single run, so both list shapes round-trip.
			runs := oneRun(int64(i)*17, dataLen)
			if dataLen%2 == 0 {
				half := int64(dataLen / 2)
				runs = []walRun{{off: int64(i) * 17, len: half, stride: half + int64(nameLen), count: 2}}
			}
			r := walRecord{seq: uint64(i + 1), epoch: 7, name: string(nameB), runs: runs, data: data}
			log = append(log, walTestRecord(r.seq, r.epoch, r.name, r.runs, r.data)...)
			want = append(want, r)
		}
		got, end := walScan(log, 7)
		if end != int64(len(log)) {
			t.Fatalf("round-trip scan stopped at %d of %d words", end, len(log))
		}
		if len(got) != len(want) {
			t.Fatalf("round-trip decoded %d of %d records", len(got), len(want))
		}
		for i := range want {
			if got[i].seq != want[i].seq || got[i].name != want[i].name || !reflect.DeepEqual(got[i].runs, want[i].runs) {
				t.Fatalf("record %d mismatch: got %+v want %+v", i, got[i], want[i])
			}
			for j := range want[i].data {
				if math.Float64bits(got[i].data[j]) != math.Float64bits(want[i].data[j]) {
					t.Fatalf("record %d data word %d not bit-exact", i, j)
				}
			}
		}

		// 3. Torn prefix of the valid log: a strict prefix of records.
		if len(log) > walHeaderWords {
			cut := walHeaderWords + len(raw)%(len(log)-walHeaderWords+1)
			torn, _ := walScan(log[:cut], 7)
			if len(torn) > len(want) {
				t.Fatalf("torn scan invented records: %d > %d", len(torn), len(want))
			}
			for i, r := range torn {
				if r.seq != want[i].seq {
					t.Fatalf("torn scan record %d has seq %d, not a strict prefix", i, r.seq)
				}
			}
		}
	})
}
