package ooc

// Record-framing tests for the write-ahead log: encode/decode
// round-trips (including data words whose bit patterns are NaNs and
// infinities — the framing must be bit-exact, never value-based), the
// torn-tail contract (any prefix of a valid log decodes to a strict
// prefix of its records), and the scan's rejection rules (CRC, epoch,
// sequence monotonicity).

import (
	"math"
	"testing"
)

// walTestLog frames records into a log image: header word carrying
// epoch, then the records back to back.
func walTestLog(epoch uint64, recs ...[]float64) []float64 {
	words := []float64{math.Float64frombits(epoch)}
	for _, r := range recs {
		words = append(words, r...)
	}
	return words
}

func TestWALRecordRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		off  int64
		data []float64
	}{
		{"A", 0, []float64{1, 2, 3}},
		{"some-longer-array-name", 12345, []float64{0}},
		{"x", 1 << 40, make([]float64, 100)},
		{"nan", 7, []float64{
			math.NaN(),
			math.Float64frombits(0x7ff8000000000001), // payload NaN
			math.Inf(1), math.Inf(-1),
			math.Copysign(0, -1),
		}},
		{"eight8ch", 9, []float64{4.25}}, // name exactly one word
	}
	for i, tc := range cases {
		seq, epoch := uint64(i+1), uint64(i*3+1)
		rec := walEncodeRecord(seq, epoch, tc.name, tc.off, tc.data)
		if got, want := int64(len(rec)), walRecordWords(tc.name, int64(len(tc.data))); got != want {
			t.Fatalf("%s: encoded %d words, walRecordWords says %d", tc.name, got, want)
		}
		words := walTestLog(epoch, rec)
		dec, sz, ok := walDecodeRecord(words, walHeaderWords)
		if !ok {
			t.Fatalf("%s: decode failed", tc.name)
		}
		if sz != int64(len(rec)) {
			t.Fatalf("%s: decode consumed %d words, encoded %d", tc.name, sz, len(rec))
		}
		if dec.seq != seq || dec.epoch != epoch || dec.name != tc.name || dec.off != tc.off {
			t.Fatalf("%s: decoded header %+v", tc.name, dec)
		}
		if len(dec.data) != len(tc.data) {
			t.Fatalf("%s: decoded %d data words, wrote %d", tc.name, len(dec.data), len(tc.data))
		}
		for j := range tc.data {
			// Bit-exact: NaN payloads and signed zeros must survive.
			if math.Float64bits(dec.data[j]) != math.Float64bits(tc.data[j]) {
				t.Fatalf("%s: data[%d] bits %x != %x", tc.name,
					j, math.Float64bits(dec.data[j]), math.Float64bits(tc.data[j]))
			}
		}
	}
}

func TestWALScanTornPrefix(t *testing.T) {
	const epoch = uint64(5)
	var recs [][]float64
	for i := 0; i < 6; i++ {
		data := make([]float64, i+1)
		for j := range data {
			data[j] = float64(i*10 + j)
		}
		recs = append(recs, walEncodeRecord(uint64(i+1), epoch, "arr", int64(i*8), data))
	}
	words := walTestLog(epoch, recs...)

	// Every possible torn length (a real log always keeps its header
	// word) must decode to a strict prefix of the record sequence,
	// never a corrupt or reordered record.
	for cut := walHeaderWords; cut <= len(words); cut++ {
		got, end := walScan(words[:cut], epoch)
		if end > int64(cut) {
			t.Fatalf("cut=%d: scan end %d past the torn tail", cut, end)
		}
		if len(got) > len(recs) {
			t.Fatalf("cut=%d: scan invented %d records", cut, len(got))
		}
		for i, r := range got {
			if r.seq != uint64(i+1) {
				t.Fatalf("cut=%d: record %d has seq %d, not a strict prefix", cut, i, r.seq)
			}
		}
		// A cut that keeps k whole records must recover exactly k.
		whole := 0
		pos := walHeaderWords
		for _, r := range recs {
			if pos+len(r) <= cut {
				whole++
				pos += len(r)
			}
		}
		if cut >= walHeaderWords && len(got) != whole {
			t.Fatalf("cut=%d: recovered %d records, %d survive whole", cut, len(got), whole)
		}
	}
}

func TestWALScanRejections(t *testing.T) {
	const epoch = uint64(2)
	r1 := walEncodeRecord(1, epoch, "A", 0, []float64{1, 2})
	r2 := walEncodeRecord(2, epoch, "A", 16, []float64{3})
	r3 := walEncodeRecord(3, epoch, "A", 32, []float64{4})

	t.Run("crc", func(t *testing.T) {
		words := walTestLog(epoch, r1, r2, r3)
		// Flip one bit in r2's data word: r1 survives, the scan stops.
		pos := walHeaderWords + len(r1) + len(r2) - 1
		words[pos] = math.Float64frombits(math.Float64bits(words[pos]) ^ 1)
		got, _ := walScan(words, epoch)
		if len(got) != 1 || got[0].seq != 1 {
			t.Fatalf("scan past a corrupt record: got %d records", len(got))
		}
	})

	t.Run("epoch", func(t *testing.T) {
		stale := walEncodeRecord(2, epoch-1, "A", 16, []float64{3})
		words := walTestLog(epoch, r1, stale, r3)
		got, _ := walScan(words, epoch)
		if len(got) != 1 {
			t.Fatalf("scan accepted a stale-epoch record: got %d records", len(got))
		}
	})

	t.Run("seq", func(t *testing.T) {
		replayed := walEncodeRecord(1, epoch, "A", 16, []float64{3})
		words := walTestLog(epoch, r1, replayed, r3)
		got, _ := walScan(words, epoch)
		if len(got) != 1 {
			t.Fatalf("scan accepted a non-monotone sequence: got %d records", len(got))
		}
	})

	t.Run("zeroed-tail", func(t *testing.T) {
		words := walTestLog(epoch, r1)
		words = append(words, make([]float64, 32)...) // unwritten log tail
		got, end := walScan(words, epoch)
		if len(got) != 1 {
			t.Fatalf("zero tail produced %d records", len(got))
		}
		if want := int64(walHeaderWords + len(r1)); end != want {
			t.Fatalf("scan end %d, want %d", end, want)
		}
	})
}
