package server

import (
	"net/http"
	"testing"
)

// TestUngatedPutReadsNothing pins the write-only PUT: a PUT supplies
// every cell of its box, so even on a cold tile it must not read the
// backend — whole tiles, sub-boxes, and a rewrite of a resident tile
// alike — and the bytes it wrote must still read back.
func TestUngatedPutReadsNothing(t *testing.T) {
	ts := newTestServer(t, Config{}, nil)
	ts.createArray(t, "A", 16, 16)

	for _, c := range []struct {
		query string
		elems int
		val   float64
	}{
		{"lo=0,0&hi=8,8", 64, 1},   // cold whole tile
		{"lo=8,3&hi=11,16", 39, 2}, // cold unaligned sub-box
		{"lo=0,0&hi=8,8", 64, 3},   // resident rewrite
		{"lo=4,4&hi=12,12", 64, 4}, // overlaps both dirty tiles above
	} {
		payload := make([]float64, c.elems)
		for i := range payload {
			payload[i] = c.val
		}
		status, out, _ := ts.do(t, http.MethodPut, ts.url("/v1/arrays/A/tile?%s", c.query), encodePayload(payload))
		if status != http.StatusNoContent {
			t.Fatalf("PUT %s: %d %s", c.query, status, out)
		}
		if n := ts.back["A"].reads.Load(); n != 0 {
			t.Fatalf("PUT %s issued %d backend reads, want 0", c.query, n)
		}
	}

	// Last writer wins per cell, across the differently shaped boxes.
	data, _ := getGen(t, ts, "lo=0,0&hi=16,16", 256)
	for r := 0; r < 16; r++ {
		for col := 0; col < 16; col++ {
			want := 0.0
			switch {
			case r >= 4 && r < 12 && col >= 4 && col < 12:
				want = 4
			case r < 8 && col < 8:
				want = 3
			case r >= 8 && r < 11 && col >= 3:
				want = 2
			}
			if got := data[r*16+col]; got != want {
				t.Fatalf("A[%d,%d] = %v, want %v", r, col, got, want)
			}
		}
	}
}

// TestGatedMergePutStillReads is the converse pin: a generation-gated
// PUT that a newer overlapping write partly supersedes applies only to
// the remainder, so it genuinely needs the old cells — it must read the
// tile and merge, not store blindly over the newer bytes.
func TestGatedMergePutStillReads(t *testing.T) {
	ts := newTestServer(t, Config{}, nil)
	ts.createArray(t, "A", 16, 16)

	putGen(t, ts, "lo=0,0&hi=4,8", 7, 4*8, 7) // newer, top half
	if n := ts.back["A"].reads.Load(); n != 0 {
		t.Fatalf("whole-box gated PUT issued %d backend reads, want 0", n)
	}
	if _, stale := putGen(t, ts, "lo=0,0&hi=8,8", 6, 8*8, 6); stale {
		t.Fatal("partly superseded write reported wholly stale")
	}
	if ts.back["A"].reads.Load() == 0 {
		t.Fatal("merging PUT read nothing: it cannot have kept the newer cells by merging")
	}
	data, gen := getGen(t, ts, "lo=0,0&hi=8,8", 8*8)
	if gen != 7 {
		t.Fatalf("read generation %d, want 7", gen)
	}
	for i, v := range data {
		if want := map[bool]float64{true: 7, false: 6}[i < 4*8]; v != want {
			t.Fatalf("element %d = %v, want %v", i, v, want)
		}
	}
}
