package server

import (
	"net/http"
	"strconv"
	"testing"
)

// headGen issues the generation probe and returns its status, body
// length and X-Tile-Gen header.
func headGen(t *testing.T, ts *testServer, path string) (int, int, string) {
	t.Helper()
	status, body, hdr := ts.do(t, http.MethodHead, ts.url("%s", path), nil)
	return status, len(body), hdr.Get(TileGenHeader)
}

// TestTileHeadProbesGenerationOnly pins the node's generation probe: a
// HEAD of the tile endpoint answers the generation a GET reports, with
// no body, and neither pins a tile in the engine nor reads the disk;
// it validates the array and the box exactly as GET does.
func TestTileHeadProbesGenerationOnly(t *testing.T) {
	ts := newTestServer(t, Config{}, nil)
	ts.createArray(t, "A", 16, 16)
	putGen(t, ts, "lo=0,0&hi=8,8", 5, 8*8, 5)
	putGen(t, ts, "lo=0,8&hi=4,16", 9, 4*8, 9)

	cases := []struct {
		query string
		elems int
		want  uint64
	}{
		{"lo=0,0&hi=8,8", 64, 5},   // whole tile
		{"lo=2,2&hi=5,6", 12, 5},   // partial box
		{"lo=0,4&hi=8,12", 64, 9},  // partial box over two recorded gens
		{"lo=8,8&hi=16,16", 64, 0}, // nobody wrote it
	}
	before := ts.srv.plane.eng.Stats()
	reads := ts.disk.Stats.Snapshot().ReadCalls
	for _, c := range cases {
		status, n, gen := headGen(t, ts, "/v1/arrays/A/tile?"+c.query)
		if status != http.StatusOK || n != 0 {
			t.Fatalf("HEAD %s: status %d, %d body bytes; want 200 and none", c.query, status, n)
		}
		if gen != strconv.FormatUint(c.want, 10) {
			t.Fatalf("HEAD %s: %s = %q, want %d", c.query, TileGenHeader, gen, c.want)
		}
	}
	after := ts.srv.plane.eng.Stats()
	if after.Hits+after.Misses != before.Hits+before.Misses {
		t.Fatalf("HEADs acquired tiles: hits+misses %d -> %d", before.Hits+before.Misses, after.Hits+after.Misses)
	}
	if got := ts.disk.Stats.Snapshot().ReadCalls; got != reads {
		t.Fatalf("HEADs read the disk: read calls %d -> %d", reads, got)
	}
	for _, c := range cases {
		if _, gen := getGen(t, ts, c.query, c.elems); gen != c.want {
			t.Fatalf("GET %s reports gen %d, HEAD %d", c.query, gen, c.want)
		}
	}

	for _, c := range []struct {
		path string
		want int
	}{
		{"/v1/arrays/nope/tile?lo=0,0&hi=8,8", http.StatusNotFound},
		{"/v1/arrays/A/tile?lo=0&hi=8,8", http.StatusBadRequest},       // rank mismatch
		{"/v1/arrays/A/tile?lo=x,0&hi=8,8", http.StatusBadRequest},     // unparsable
		{"/v1/arrays/A/tile?lo=16,16&hi=20,20", http.StatusBadRequest}, // empty after clipping
	} {
		getStatus, _, _ := ts.do(t, http.MethodGet, ts.url("%s", c.path), nil)
		headStatus, n, _ := headGen(t, ts, c.path)
		if getStatus != c.want || headStatus != c.want || n != 0 {
			t.Fatalf("%s: HEAD %d (%d body bytes), GET %d; want %d and no body", c.path, headStatus, n, getStatus, c.want)
		}
	}
}
