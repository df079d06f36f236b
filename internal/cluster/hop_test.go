package cluster

// The router↔node hop: tiles travel raw between router and node (the
// codec pays only at the disk, the WAL and the client edge), the node
// client reads a raw reply of exactly the box's size, and array names
// reach the node escaped.

import (
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"outcore/internal/layout"
	"outcore/internal/server"
)

// hopRecord is one router→node tile request as the node saw it.
type hopRecord struct {
	method, acceptEnc, contentEnc, replyEnc string
}

// recordHops wraps every node's handler with a recorder of its tile
// requests' codings and its replies' (until the node restarts).
func recordHops(lc *LocalCluster) func() []hopRecord {
	var mu sync.Mutex
	var recs []hopRecord
	for _, n := range lc.nodes {
		inner := *n.handler.Load()
		var h http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			inner.ServeHTTP(w, r)
			if strings.HasSuffix(r.URL.Path, "/tile") {
				mu.Lock()
				recs = append(recs, hopRecord{r.Method, r.Header.Get("Accept-Encoding"),
					r.Header.Get("Content-Encoding"), w.Header().Get("Content-Encoding")})
				mu.Unlock()
			}
		})
		n.handler.Store(&h)
	}
	return func() []hopRecord {
		mu.Lock()
		defer mu.Unlock()
		return append([]hopRecord(nil), recs...)
	}
}

// randomBits fills a tile with arbitrary float64 bit patterns (NaN
// payloads and signed zeros included), so a read-back is bit-exact or
// visibly not.
func randomBits(rng *rand.Rand, box layout.Box) []float64 {
	data := make([]float64, box.Size())
	for i := range data {
		data[i] = math.Float64frombits(rng.Uint64())
	}
	return data
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRouterHopIsRaw: every router→node tile request — live reads and
// PUTs, a read-repair and a hint drain — is raw both ways, while a raw
// and a gorilla client of the router both read back bit-exact bytes and
// only the gorilla client gets a frame. The node client reads a raw
// reply of exactly the box's size (see tileBodySize).
func TestRouterHopIsRaw(t *testing.T) {
	t.Run("cluster", routerHopIsRaw)
	t.Run("body-size", tileBodySize)
}

func routerHopIsRaw(t *testing.T) {
	lc := newTestCluster(t, 3, 2)
	hops := recordHops(lc)
	cli := lc.Client()
	rng := rand.New(rand.NewSource(39))
	rawTile := layout.NewBox([]int64{0, 0}, []int64{testTile, testTile})
	wireTile := layout.NewBox([]int64{8, 16}, []int64{16, 24})
	want := map[string][]float64{"raw": randomBits(rng, rawTile), "wire": randomBits(rng, wireTile)}
	if _, _, err := cli.PutTile("A", rawTile, want["raw"], 0, false); err != nil {
		t.Fatalf("raw put: %v", err)
	}
	if _, _, err := cli.PutTile("A", wireTile, want["wire"], 0, true); err != nil {
		t.Fatalf("gorilla put: %v", err)
	}

	// A stale first rank: the next GET fetches twice and read-repairs,
	// and the probe then drains the obsolete hint.
	reps := lc.ReplicaNodes("A", rawTile)
	lc.SetNodeDown(reps[0], true)
	want["raw"] = randomBits(rng, rawTile)
	if _, _, err := cli.PutTile("A", rawTile, want["raw"], 0, false); err != nil {
		t.Fatalf("put with the first rank down: %v", err)
	}
	lc.SetNodeDown(reps[0], false)
	repairs := lc.Router.met.readRepairs.Value()

	for _, c := range []struct {
		key  string
		box  layout.Box
		wire bool
	}{{"raw", rawTile, false}, {"raw", rawTile, true}, {"wire", wireTile, false}, {"wire", wireTile, true}} {
		got, _, err := cli.GetTile("A", c.box, c.wire)
		if err != nil || !sameBits(got, want[c.key]) {
			t.Fatalf("GET %s tile (gorilla client %v): %v; bytes differ from the PUT", c.key, c.wire, err)
		}
		req, _ := http.NewRequest(http.MethodGet, cli.tileURL("A", c.box), nil)
		if c.wire {
			req.Header.Set("Accept-Encoding", server.WireEncoding)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		enc := resp.Header.Get("Content-Encoding")
		if (enc == server.WireEncoding) != c.wire {
			t.Fatalf("router reply to a gorilla=%v client has Content-Encoding %q", c.wire, enc)
		}
		got = make([]float64, c.box.Size())
		if err := server.DecodeTile(body, c.wire, got); err != nil || !sameBits(got, want[c.key]) {
			t.Fatalf("router reply to a gorilla=%v client: %v; bytes differ from the PUT", c.wire, err)
		}
	}
	if lc.Router.met.readRepairs.Value() == repairs {
		t.Fatal("the stale first rank was not read-repaired")
	}
	lc.Router.Probe()
	if n := lc.HintsPending(reps[0]); n != 0 {
		t.Fatalf("%d hints still owed after the probe", n)
	}

	var gets, puts int
	for _, h := range hops() {
		switch h.method {
		case http.MethodGet:
			gets++
		case http.MethodPut:
			puts++
		}
		if strings.Contains(h.acceptEnc, server.WireEncoding) || h.contentEnc != "" || h.replyEnc != "" {
			t.Errorf("router→node %s tile hop is coded: Accept-Encoding %q, Content-Encoding %q, reply %q",
				h.method, h.acceptEnc, h.contentEnc, h.replyEnc)
		}
	}
	// 2 + 2 + 1 live PUTs (one replica down), a repair and a drain; one
	// GET per client read (8) plus the stale rank's refetch.
	if puts != 7 || gets != 9 {
		t.Fatalf("nodes saw %d tile PUTs and %d GETs; want 7 and 9", puts, gets)
	}
}

// tileBodySize: a raw tile reply must hold exactly the box's elements.
// A short or long body — with a Content-Length or chunked — is a broken
// node and a hard error naming it, not a replica outage to fail over
// from; an exact chunked body reads fine.
func tileBodySize(t *testing.T) {
	box := layout.NewBox([]int64{0, 0}, []int64{4, 4})
	full := server.EncodeTile(fillTile(5, box), false)
	for _, c := range []struct {
		name    string
		body    []byte
		chunked bool
		ok      bool
	}{
		{"exact", full, false, true},
		{"exact-chunked", full, true, true},
		{"one-short", full[:len(full)-8], false, false},
		{"one-long", append(full[:len(full):len(full)], full[:8]...), false, false},
		{"chunked-oversize", append(full[:len(full):len(full)], full...), true, false},
		{"empty", nil, false, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set(server.TileGenHeader, "3")
				if !c.chunked {
					w.Write(c.body)
					return
				}
				half := len(c.body) / 2
				w.Write(c.body[:half])
				w.(http.Flusher).Flush()
				w.Write(c.body[half:])
			}))
			defer hs.Close()
			data, gen, err := NewNodeClient("fake", hs.URL).GetTile("A", box, false)
			if c.ok {
				if err != nil || gen != 3 || !sameBits(data, fillTile(5, box)) {
					t.Fatalf("GetTile = gen %d, %v; want gen 3 and the tile", gen, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("GetTile accepted a %d-byte body for a %d-byte tile", len(c.body), len(full))
			}
			if errors.Is(err, ErrUnavailable) || !strings.Contains(err.Error(), "node fake") {
				t.Fatalf("GetTile: %v; want a hard error naming node fake", err)
			}
		})
	}
}

// TestNodeClientEscapesArrayNames: create accepts names holding URL
// syntax ('?', '#', '%'), so every request the node client builds must
// path-escape the name, or the array is created and then unreachable.
// PUT, GET, HEAD and reduce run through the router and straight at the
// replicas.
func TestNodeClientEscapesArrayNames(t *testing.T) {
	lc := newTestCluster(t, 3, 2)
	cli := lc.Client()
	tile := layout.NewBox([]int64{8, 8}, []int64{16, 16})
	for k, name := range []string{"a?b", "a#b", "a%41b"} {
		if err := lc.CreateArray(name, testEdge, testEdge); err != nil {
			t.Fatalf("create %q: %v", name, err)
		}
		v := float64(k + 2)
		gen, _, err := cli.PutTile(name, tile, fillTile(v, tile), 0, false)
		if err != nil {
			t.Fatalf("router PUT %q: %v", name, err)
		}
		check := func(via string, c *NodeClient, box layout.Box, v float64, wantGen uint64) {
			t.Helper()
			got, g, err := c.GetTile(name, box, false)
			if err != nil || g != wantGen || !sameBits(got, fillTile(v, box)) {
				t.Fatalf("%s GET %q = gen %d, %v; want gen %d of %vs", via, name, g, err, wantGen, v)
			}
			if g, err := c.TileGen(name, box); err != nil || g != wantGen {
				t.Fatalf("%s HEAD %q = gen %d, %v; want %d", via, name, g, err, wantGen)
			}
			sum, n, err := c.Reduce(name, box, "sum")
			if err != nil || n != box.Size() || sum != v*float64(box.Size()) {
				t.Fatalf("%s reduce %q = %v over %d, %v; want %v over %d", via, name, sum, n, err, v*float64(box.Size()), box.Size())
			}
		}
		check("router", cli, tile, v, gen)
		for _, i := range lc.ReplicaNodes(name, tile) {
			check("node "+lc.NodeID(i), lc.NodeClientDirect(i), tile, v, gen)
		}
		own := layout.NewBox([]int64{0, 0}, []int64{testTile, testTile})
		direct := lc.NodeClientDirect(0)
		if _, _, err := direct.PutTile(name, own, fillTile(v+10, own), 0, false); err != nil {
			t.Fatalf("node-direct PUT %q: %v", name, err)
		}
		check("node "+lc.NodeID(0), direct, own, v+10, 0)
	}
}
