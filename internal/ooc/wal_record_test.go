package ooc

// Record-framing tests for the write-ahead log: encode/decode
// round-trips of the tile record (including data words whose bit
// patterns are NaNs and infinities — the framing must be bit-exact,
// never value-based — and multi-entry run lists), the run-list folding,
// the torn-tail contract (any prefix of a valid log decodes to a strict
// prefix of its records), and the scan's rejection rules (CRC, epoch,
// sequence monotonicity, run lists that do not tile the payload).

import (
	"math"
	"reflect"
	"testing"

	"outcore/internal/layout"
)

// walTestRecord frames one raw-payload record the way writeTile does:
// payload in the buffer's tail, then sealed in place.
func walTestRecord(seq, epoch uint64, name string, list []walRun, data []float64) []float64 {
	rec := make([]float64, walRecordWords(name, len(list), int64(len(data))))
	copy(rec[len(rec)-len(data):], data)
	walSealRecord(rec, seq, epoch, name, list)
	return rec
}

// oneRun is the run list of a single contiguous write.
func oneRun(off int64, n int) []walRun {
	return []walRun{{off: off, len: int64(n), count: 1}}
}

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
		runs []walRun
		data []float64
	}{
		{"A", oneRun(0, 3), []float64{1, 2, 3}},
		{"some-longer-array-name", oneRun(12345, 1), []float64{0}},
		{"x", oneRun(1<<40, 100), make([]float64, 100)},
		{"nan", oneRun(7, 5), []float64{
			math.NaN(),
			math.Float64frombits(0x7ff8000000000001), // payload NaN
			math.Inf(1), math.Inf(-1),
			math.Copysign(0, -1),
		}},
		{"eight8ch", oneRun(9, 1), []float64{4.25}}, // name exactly one word
		// A col-major tile: one progression entry for all its runs.
		{"col", []walRun{{off: 64, len: 4, stride: 1024, count: 3}}, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}},
		// An irregular layout: entries of differing shapes.
		{"diag", []walRun{{off: 3, len: 2, count: 1}, {off: 10, len: 1, stride: 5, count: 2}, {off: 40, len: 3, count: 1}},
			[]float64{1, 2, 3, 4, 5, 6, 7}},
	}
	for i, tc := range cases {
		seq, epoch := uint64(i+1), uint64(i*3+1)
		rec := walTestRecord(seq, epoch, tc.name, tc.runs, tc.data)
		words := walTestLog(epoch, rec)
		dec, sz, ok := walDecodeRecord(words, walHeaderWords)
		if !ok {
			t.Fatalf("%s: decode failed", tc.name)
		}
		if sz != int64(len(rec)) {
			t.Fatalf("%s: decode consumed %d words, encoded %d", tc.name, sz, len(rec))
		}
		if dec.seq != seq || dec.epoch != epoch || dec.name != tc.name || !reflect.DeepEqual(dec.runs, tc.runs) {
			t.Fatalf("%s: decoded header %+v", tc.name, dec)
		}
		if math.Float64bits(rec[5]) != 0 {
			t.Fatalf("%s: reserved generation word is %x, want 0", tc.name, math.Float64bits(rec[5]))
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
		// Replaying the record lands every run where the list says.
		if tc.runs[0].off > 4096 {
			continue // beyond a backend worth materializing; the list is checked above
		}
		mem := newMemBackend(4096)
		if err := walApply(mem, dec.runs, dec.data); err != nil {
			t.Fatalf("%s: apply: %v", tc.name, err)
		}
		k := 0
		for _, e := range tc.runs {
			for c := int64(0); c < e.count; c++ {
				for x := int64(0); x < e.len; x++ {
					if got := mem.data[e.off+c*e.stride+x]; math.Float64bits(got) != math.Float64bits(tc.data[k]) {
						t.Fatalf("%s: applied element %d landed as %v", tc.name, k, got)
					}
					k++
				}
			}
		}
	}
}

// TestWALRunListFolds pins the run-list encoding on real layouts: a box
// under a permutation layout is ONE entry however many runs it has, the
// list always expands back to exactly the layout's runs, and irregular
// layouts degrade to more entries, never to a wrong one.
func TestWALRunListFolds(t *testing.T) {
	box := layout.NewBox([]int64{32, 64}, []int64{64, 96})
	for _, c := range []struct {
		name    string
		lay     *layout.Layout
		entries int // 0: just round-trip
	}{
		{"row-major", layout.RowMajor(256, 256), 1},
		{"col-major", layout.ColMajor(256, 256), 1},
		{"blocked", layout.Blocked(256, 256, 16, 16), 0},
		{"diagonal", layout.Diagonal(256, 256), 0},
		{"general", layout.General(256, 256, []int64{1, 2}), 0},
	} {
		runs := c.lay.Runs(box)
		list := walRunList(nil, runs)
		if c.entries != 0 && len(list) != c.entries {
			t.Errorf("%s: %d runs folded into %d entries, want %d", c.name, len(runs), len(list), c.entries)
		}
		var back []layout.Run
		for _, e := range list {
			for i := int64(0); i < e.count; i++ {
				back = append(back, layout.Run{Off: e.off + i*e.stride, Len: e.len})
			}
		}
		if !reflect.DeepEqual(back, runs) {
			t.Errorf("%s: run list expands to %v, layout says %v", c.name, back, runs)
		}
	}
}

// TestWALRecordCRCMatchesWordwise pins the block-hashed checksum to the
// word-at-a-time one it replaced: same little-endian byte stream, same
// value, at every length around the block boundary.
func TestWALRecordCRCMatchesWordwise(t *testing.T) {
	rec := make([]float64, 200)
	for i := range rec {
		rec[i] = math.Float64frombits(uint64(i)*0x9e3779b97f4a7c15 + 1)
	}
	for n := 5; n <= len(rec); n++ {
		if got, want := walRecordCRC(rec[:n]), wordwiseCRC(rec[:n]); got != want {
			t.Fatalf("%d words: block CRC %08x, word-wise %08x", n, got, want)
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
		recs = append(recs, walTestRecord(uint64(i+1), epoch, "arr", oneRun(int64(i*8), len(data)), data))
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
	r1 := walTestRecord(1, epoch, "A", oneRun(0, 2), []float64{1, 2})
	r2 := walTestRecord(2, epoch, "A", oneRun(16, 1), []float64{3})
	r3 := walTestRecord(3, epoch, "A", oneRun(32, 1), []float64{4})

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
		stale := walTestRecord(2, epoch-1, "A", oneRun(16, 1), []float64{3})
		words := walTestLog(epoch, r1, stale, r3)
		got, _ := walScan(words, epoch)
		if len(got) != 1 {
			t.Fatalf("scan accepted a stale-epoch record: got %d records", len(got))
		}
	})

	t.Run("seq", func(t *testing.T) {
		replayed := walTestRecord(1, epoch, "A", oneRun(16, 1), []float64{3})
		words := walTestLog(epoch, r1, replayed, r3)
		got, _ := walScan(words, epoch)
		if len(got) != 1 {
			t.Fatalf("scan accepted a non-monotone sequence: got %d records", len(got))
		}
	})

	t.Run("run-list", func(t *testing.T) {
		// Correctly sealed records whose run list does not tile the
		// payload exactly (short, long, zero-length, zero-count, offsets
		// that would overflow) are structurally invalid: the scan stops.
		for _, list := range [][]walRun{
			{{off: 0, len: 1, count: 1}},
			{{off: 0, len: 3, count: 1}},
			{{off: 0, len: 2, count: 2}},
			{{off: 0, len: 0, count: 1}, {off: 8, len: 2, count: 1}},
			{{off: 0, len: 2, count: 0}, {off: 8, len: 2, count: 1}},
			{{off: -1, len: 2, count: 1}},
			{{off: 0, len: 1, stride: 1 << 61, count: 2}},
		} {
			bad := walTestRecord(2, epoch, "A", list, []float64{3, 4})
			got, _ := walScan(walTestLog(epoch, r1, bad, r3), epoch)
			if len(got) != 1 {
				t.Fatalf("scan accepted run list %+v over a 2-word payload: got %d records", list, len(got))
			}
		}
	})

	t.Run("format", func(t *testing.T) {
		// Another build's record — a different format tag, or the untagged
		// per-run format — fails closed even when its checksum is right.
		foreign := walTestRecord(2, epoch, "A", oneRun(16, 1), []float64{3})
		meta := math.Float64bits(foreign[2])
		foreign[2] = math.Float64frombits(meta&^(0x7F<<56) | 2<<56)
		foreign[walCRCWord] = math.Float64frombits(uint64(walRecordCRC(foreign)))
		legacy := EncodeLegacyWALRecord(2, epoch, "A", 16, []float64{3})
		for _, rec := range [][]float64{foreign, legacy} {
			got, _ := walScan(walTestLog(epoch, r1, rec, r3), epoch)
			if len(got) != 1 {
				t.Fatalf("scan accepted a foreign-format record: got %d records", len(got))
			}
		}
		if !walLegacyHead(walTestLog(epoch, legacy), epoch) {
			t.Fatal("a valid per-run record was not recognized as legacy")
		}
		if walLegacyHead(walTestLog(epoch, r1), epoch) {
			t.Fatal("a tile record was taken for a legacy one")
		}
		if walLegacyHead(walTestLog(epoch+1, legacy), epoch+1) {
			t.Fatal("a stale-epoch (checkpointed-away) legacy record was taken for a live one")
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
