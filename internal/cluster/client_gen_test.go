package cluster

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"outcore/internal/layout"
	"outcore/internal/server"
)

// TestNodeClientRejectsBadTileGen: GetTile and TileGen both ask for the
// box's generation, so a node that answers 200 without a parsable
// X-Tile-Gen is broken. Reading the gap as generation 0 would make a
// healthy replica look stale to the router and draw a refetch and a
// whole-tile repair; it must be a hard error naming the node instead.
func TestNodeClientRejectsBadTileGen(t *testing.T) {
	box := layout.NewBox([]int64{0, 0}, []int64{2, 2})
	body := server.EncodeTile(make([]float64, box.Size()), false)
	for _, c := range []struct {
		name   string
		header []string // nil: no X-Tile-Gen at all
	}{
		{"missing", nil},
		{"empty", []string{""}},
		{"malformed", []string{"seven"}},
		{"negative", []string{"-1"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if c.header != nil {
					w.Header()[server.TileGenHeader] = c.header
				}
				w.Write(body)
			}))
			defer hs.Close()
			nc := NewNodeClient("fake", hs.URL)

			_, _, getErr := nc.GetTile("A", box, false)
			_, headErr := nc.TileGen("A", box)
			for op, err := range map[string]error{"GetTile": getErr, "TileGen": headErr} {
				if err == nil {
					t.Fatalf("%s accepted a tile response with %s %q", op, server.TileGenHeader, c.header)
				}
				if errors.Is(err, ErrUnavailable) || !strings.Contains(err.Error(), "node fake") {
					t.Fatalf("%s: %v; want a hard error naming node fake", op, err)
				}
			}
		})
	}

	// The well-formed answer still parses, on both paths.
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(server.TileGenHeader, "42")
		w.Write(body)
	}))
	defer hs.Close()
	nc := NewNodeClient("fake", hs.URL)
	if _, gen, err := nc.GetTile("A", box, false); err != nil || gen != 42 {
		t.Fatalf("GetTile = gen %d, %v; want 42", gen, err)
	}
	if gen, err := nc.TileGen("A", box); err != nil || gen != 42 {
		t.Fatalf("TileGen = gen %d, %v; want 42", gen, err)
	}
	t.Run("put", rejectsBadPutGen)
}

// rejectsBadPutGen is TestNodeClientRejectsBadTileGen's PUT half: a
// 204's X-Tile-Gen is the generation the node already holds, which the
// router raises its counter to. A present but unparsable one, or an
// X-Tile-Stale without one, is a broken node and a hard error naming
// it; read as 0 a stale reply would let the router retry under a
// generation that loses again. An absent header on a plain 204 is
// generation 0.
func rejectsBadPutGen(t *testing.T) {
	box := layout.NewBox([]int64{0, 0}, []int64{2, 2})
	for _, c := range []struct {
		name   string
		header []string // nil: no X-Tile-Gen at all
		stale  bool
		ok     bool
		gen    uint64
	}{
		{"absent", nil, false, true, 0},
		{"well-formed", []string{"42"}, false, true, 42},
		{"well-formed-stale", []string{"42"}, true, true, 42},
		{"empty", []string{""}, false, false, 0},
		{"malformed", []string{"seven"}, false, false, 0},
		{"negative", []string{"-1"}, false, false, 0},
		{"stale-without-gen", nil, true, false, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if c.header != nil {
					w.Header()[server.TileGenHeader] = c.header
				}
				if c.stale {
					w.Header().Set(server.TileStaleHeader, "true")
				}
				w.WriteHeader(http.StatusNoContent)
			}))
			defer hs.Close()
			gen, stale, err := NewNodeClient("fake", hs.URL).PutTile("A", box, make([]float64, box.Size()), 1, false)
			if c.ok {
				if err != nil || gen != c.gen || stale != c.stale {
					t.Fatalf("PutTile = gen %d stale %v, %v; want gen %d stale %v", gen, stale, err, c.gen, c.stale)
				}
				return
			}
			if err == nil {
				t.Fatalf("PutTile accepted a 204 with %s %q (stale %v)", server.TileGenHeader, c.header, c.stale)
			}
			if errors.Is(err, ErrUnavailable) || !strings.Contains(err.Error(), "node fake") {
				t.Fatalf("PutTile: %v; want a hard error naming node fake", err)
			}
		})
	}
}
