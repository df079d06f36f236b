package server

import (
	"testing"
	"time"

	"outcore/internal/ooc"
)

func TestLoadSpecTiles(t *testing.T) {
	spec := LoadSpec{Dims: []int64{10, 10}, TileEdge: 4}
	tiles := spec.tiles()
	if len(tiles) != 9 {
		t.Fatalf("10x10 grid at edge 4: %d tiles, want 9", len(tiles))
	}
	// Edge tiles clip to the array bound.
	last := tiles[len(tiles)-1]
	if last.Hi[0] != 10 || last.Hi[1] != 10 || last.Lo[0] != 8 || last.Lo[1] != 8 {
		t.Errorf("last tile = %v", last)
	}
	var total int64
	for _, b := range tiles {
		total += b.Size()
	}
	if total != 100 {
		t.Errorf("tiles cover %d elements, want 100", total)
	}
}

func TestPercentile(t *testing.T) {
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("empty percentile = %v", p)
	}
	lat := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second}
	if p := percentile(lat, 0.5); p != 2 {
		t.Errorf("p50 = %v, want 2", p)
	}
	if p := percentile(lat, 0.99); p != 4 {
		t.Errorf("p99 = %v, want 4", p)
	}
}

// TestRunLoadAgainstServer drives the full harness loop against an
// in-process server: every request lands, the zipf skew produces cache
// hits, and the scorecard fields are coherent.
func TestRunLoadAgainstServer(t *testing.T) {
	ts := newTestServer(t, Config{}, nil)
	ts.createArray(t, "A", 32, 32)
	res, err := RunLoad(LoadSpec{
		BaseURL:  ts.http.URL,
		Array:    "A",
		Dims:     []int64{32, 32},
		TileEdge: 8,
		Clients:  4,
		Requests: 200,
		ZipfS:    1.2,
		ReadFrac: 0.8,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 200 || res.Errors != 0 || res.Rejected != 0 {
		t.Fatalf("ok=%d rejected=%d errors=%d, want 200/0/0", res.OK, res.Rejected, res.Errors)
	}
	if res.Throughput <= 0 {
		t.Error("throughput not positive")
	}
	if res.P50 <= 0 || res.P99 < res.P50 {
		t.Errorf("latency percentiles incoherent: p50=%v p99=%v", res.P50, res.P99)
	}
	// 200 zipf-skewed requests over a 16-tile grid must reuse tiles.
	if res.Hits == 0 || res.HitRate <= 0 {
		t.Errorf("no cache hits under zipf reuse: %+v", res)
	}
	if res.Hits+res.Misses == 0 {
		t.Error("engine saw no traffic")
	}
}

// TestRunLoadScanScenario drives the scan-heavy operator scenario in
// open-loop mode: scans must move the stripe's tiles in single
// requests, so the point-GET round-trip equivalent has to come out
// well above the requests actually issued — the ratio the serve-scan
// bench rows gate on.
func TestRunLoadScanScenario(t *testing.T) {
	ts := newTestServer(t, Config{}, nil)
	ts.createArray(t, "A", 64, 64)
	res, err := RunLoad(LoadSpec{
		BaseURL:      ts.http.URL,
		Array:        "A",
		Dims:         []int64{64, 64},
		TileEdge:     8,
		Clients:      4,
		Requests:     120,
		ReadFrac:     1,
		Seed:         7,
		Scenario:     "scan-heavy",
		OpenLoopRate: 100000, // effectively unthrottled; exercises the schedule path
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 120 || res.Errors != 0 {
		t.Fatalf("ok=%d errors=%d, want 120/0", res.OK, res.Errors)
	}
	if res.ScanRequests == 0 || res.ScanChunks == 0 {
		t.Fatalf("scan scenario issued no scans: %+v", res)
	}
	if res.RoundTrips != 120 {
		t.Errorf("round trips %d, want 120", res.RoundTrips)
	}
	// 80% scans, each spanning 8 tiles of the 64-wide stripe: the
	// point-GET equivalent must clear the 5x gate with margin.
	if res.PointRoundTrips < 5*res.RoundTrips {
		t.Errorf("point equivalent %d < 5x round trips %d — scans are not batching the stripe",
			res.PointRoundTrips, res.RoundTrips)
	}
}

// TestRunLoadBatchScenario drives the write-heavy batch scenario.
func TestRunLoadBatchScenario(t *testing.T) {
	ts := newTestServer(t, Config{}, nil)
	ts.createArray(t, "A", 64, 64)
	res, err := RunLoad(LoadSpec{
		BaseURL:  ts.http.URL,
		Array:    "A",
		Dims:     []int64{64, 64},
		TileEdge: 8,
		Clients:  4,
		Requests: 120,
		ReadFrac: 0.5,
		Seed:     7,
		Scenario: "write-heavy",
		BatchOps: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 120 || res.Errors != 0 {
		t.Fatalf("ok=%d errors=%d, want 120/0", res.OK, res.Errors)
	}
	if res.BatchRequests == 0 || res.BatchOpsMoved < 8*res.BatchRequests {
		t.Fatalf("batch scenario incoherent: %+v", res)
	}
	if res.PointRoundTrips < 5*res.RoundTrips {
		t.Errorf("point equivalent %d < 5x round trips %d", res.PointRoundTrips, res.RoundTrips)
	}
}

// TestRunLoadMixedScenario drives the three-way mix: scans, batches
// and point ops must all appear, and the tally must cover every
// request.
func TestRunLoadMixedScenario(t *testing.T) {
	ts := newTestServer(t, Config{}, nil)
	ts.createArray(t, "A", 64, 64)
	res, err := RunLoad(LoadSpec{
		BaseURL:  ts.http.URL,
		Array:    "A",
		Dims:     []int64{64, 64},
		TileEdge: 8,
		Clients:  4,
		Requests: 150,
		ReadFrac: 0.7,
		Seed:     11,
		Scenario: "mixed",
		BatchOps: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 150 || res.Errors != 0 {
		t.Fatalf("ok=%d errors=%d, want 150/0", res.OK, res.Errors)
	}
	if res.ScanRequests == 0 || res.BatchRequests == 0 {
		t.Fatalf("mixed scenario missing an op kind: %+v", res)
	}
	points := res.RoundTrips - res.ScanRequests - res.BatchRequests
	if points <= 0 {
		t.Errorf("mixed scenario issued no point ops: %+v", res)
	}
}

// TestRunLoadCompressed runs the harness with wire compression against
// a compression-enabled server: every request still lands, and the
// scorecard's wire delta shows fewer bytes crossed than moved.
func TestRunLoadCompressed(t *testing.T) {
	ts := newTestServer(t, Config{}, func(d *ooc.Disk) { d.EnableCompression() })
	ts.createArray(t, "A", 32, 32)
	res, err := RunLoad(LoadSpec{
		BaseURL:  ts.http.URL,
		Array:    "A",
		Dims:     []int64{32, 32},
		TileEdge: 8,
		Clients:  2,
		Requests: 100,
		ReadFrac: 0.5,
		Seed:     7,
		Compress: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 100 {
		t.Fatalf("ok = %d of 100 (rejected %d, errors %d)", res.OK, res.Rejected, res.Errors)
	}
	if res.WireRawBytes <= 0 || res.WireBytes <= 0 {
		t.Fatalf("wire deltas raw=%d enc=%d, want positive", res.WireRawBytes, res.WireBytes)
	}
	if res.WireBytes*2 > res.WireRawBytes {
		t.Errorf("wire bytes %d vs raw %d: smooth tiles should beat 2x", res.WireBytes, res.WireRawBytes)
	}
}
