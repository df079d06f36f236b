package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"
)

// TestConcurrentTileReadWriteRace hammers one array with concurrent
// GETs and PUTs of the same tile AND of overlapping-but-unaligned
// tiles. Under -race this proves the per-array tile lock serializes
// access to the shared pinned tile buffer (a PUT decodes into the very
// slice a concurrent GET encodes from); value-wise, every element a GET
// returns must be exactly one of the constants some PUT wrote (or the
// initial zero) — a torn float64 mixing two writes would fall outside
// the set.
func TestConcurrentTileReadWriteRace(t *testing.T) {
	const (
		writers = 4
		readers = 4
		rounds  = 40
	)
	ts := newTestServer(t, Config{MaxInflight: writers + readers, QueueDepth: writers + readers}, nil)
	ts.createArray(t, "A", 16, 16)

	// Same-key PUTs plus overlapping unaligned boxes: the unaligned
	// pair exercises the overlap-invalidation path the engine contract
	// is about, not just the shared-slice race.
	boxes := []string{
		"lo=0,0&hi=8,8",
		"lo=2,2&hi=10,10",
		"lo=4,0&hi=12,8",
	}
	valid := map[float64]bool{0: true}
	for v := 1; v <= writers; v++ {
		valid[float64(v)] = true
	}

	var wg sync.WaitGroup
	for wtr := 1; wtr <= writers; wtr++ {
		wg.Add(1)
		go func(wtr int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(wtr)))
			for i := 0; i < rounds; i++ {
				q := boxes[rng.Intn(len(boxes))]
				payload := make([]float64, 8*8)
				for j := range payload {
					payload[j] = float64(wtr)
				}
				status, body, _ := ts.do(t, http.MethodPut, ts.url("/v1/arrays/A/tile?%s", q), encodePayload(payload))
				if status != http.StatusNoContent {
					t.Errorf("writer %d: status %d, body %s", wtr, status, body)
					return
				}
			}
		}(wtr)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + rd)))
			for i := 0; i < rounds; i++ {
				q := boxes[rng.Intn(len(boxes))]
				status, body, _ := ts.do(t, http.MethodGet, ts.url("/v1/arrays/A/tile?%s", q), nil)
				if status != http.StatusOK {
					t.Errorf("reader %d: status %d, body %s", rd, status, body)
					return
				}
				got := make([]float64, 8*8)
				decodePayload(body, got)
				for j, v := range got {
					if !valid[v] {
						t.Errorf("reader %d: element %d is %v, not any written constant (torn value)", rd, j, v)
						return
					}
				}
			}
		}(rd)
	}
	wg.Wait()
}

// TestSizeLimits covers the data-plane abuse caps: array creation is
// bounded by an overflow-checked element count and tile requests by a
// per-request element limit.
func TestSizeLimits(t *testing.T) {
	ts := newTestServer(t, Config{MaxArrayElems: 64, MaxTileElems: 16}, nil)

	create := func(dims string) int {
		body := []byte(fmt.Sprintf(`{"name":"X","dims":[%s]}`, dims))
		status, _, _ := ts.do(t, http.MethodPost, ts.url("/v1/arrays"), body)
		return status
	}
	// A dims product that overflows int64 must be a 400, not a panic or
	// a giant allocation (1<<62 squared wraps).
	if status := create("4611686018427387904,4611686018427387904"); status != http.StatusBadRequest {
		t.Errorf("overflowing dims: status %d, want 400", status)
	}
	// Over the configured element cap: 400.
	if status := create("9,9"); status != http.StatusBadRequest {
		t.Errorf("oversized array: status %d, want 400", status)
	}
	// Within the cap: created.
	if status := create("8,8"); status != http.StatusCreated {
		t.Fatalf("in-bounds array: status %d, want 201", status)
	}

	// A tile request over MaxTileElems is 413 for both verbs; an
	// in-bounds tile still works.
	if status, _, _ := ts.do(t, http.MethodGet, ts.url("/v1/arrays/X/tile?lo=0,0&hi=8,8"), nil); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized tile GET: status %d, want 413", status)
	}
	big := encodePayload(make([]float64, 8*8))
	if status, _, _ := ts.do(t, http.MethodPut, ts.url("/v1/arrays/X/tile?lo=0,0&hi=8,8"), big); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized tile PUT: status %d, want 413", status)
	}
	if status, _, _ := ts.do(t, http.MethodGet, ts.url("/v1/arrays/X/tile?lo=0,0&hi=4,4"), nil); status != http.StatusOK {
		t.Errorf("in-bounds tile GET: status %d, want 200", status)
	}

	// Default config gets the documented default caps.
	ts2 := newTestServer(t, Config{}, nil)
	body := []byte(`{"name":"Y","dims":[1000000000,1000000000]}`)
	if status, _, _ := ts2.do(t, http.MethodPost, ts2.url("/v1/arrays"), body); status != http.StatusBadRequest {
		t.Errorf("1e18-element array under default cap: status %d, want 400", status)
	}
}
