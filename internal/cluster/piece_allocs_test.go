package cluster

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"outcore/internal/layout"
	"outcore/internal/server"
)

// stubNode answers the node API in memory: a tile GET gets a zero raw
// payload of the box's size and generation 0, a HEAD generation 0, a
// PUT 204, and an array listing an empty catalog. Its answers cost the
// same allocations every time, so they cancel out of a difference.
type stubNode struct{ payload []byte }

func (s stubNode) RoundTrip(req *http.Request) (*http.Response, error) {
	resp := &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Request: req}
	body := []byte(nil)
	switch req.Method {
	case http.MethodGet:
		if req.URL.Path == "/v1/arrays" {
			body = []byte("[]")
			break
		}
		body = s.payload
		resp.Header[server.TileGenHeader] = []string{"0"}
	case http.MethodHead:
		resp.Header[server.TileGenHeader] = []string{"0"}
	case http.MethodPut:
		resp.StatusCode = http.StatusNoContent
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// TestRouterPieceAllocs holds the router's own bookkeeping for one
// single-tile piece — routing key and hash, replica ranking, the
// fan-out, freshness resolution, generation minting — at its
// allocation count. The node round trips go through an in-memory
// transport and are measured alone, through the same clients, and
// subtracted, so the count excludes the HTTP client.
func TestRouterPieceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations move the counts")
	}
	const tile = 8
	piece := layout.NewBox([]int64{8, 0}, []int64{16, 8})
	stub := stubNode{payload: make([]byte, piece.Size()*8)}
	var nodes []*NodeClient
	for _, id := range []string{"n0", "n1", "n2"} {
		c := NewNodeClient(id, "http://"+id)
		c.HTTP = &http.Client{Transport: stub}
		nodes = append(nodes, c)
	}
	r, err := NewRouter(Options{Nodes: nodes, Replicas: 2, TileDim: tile})
	if err != nil {
		t.Fatal(err)
	}
	a := server.Array{Name: "A", Dims: []int64{64, 64}, Layout: layout.RowMajor(64, 64)}
	key, sum := routeKey(nil, a.Name, piece, tile)
	reps := r.replicasFor(nil, sum)
	// Minted generations then render as many digits as the baseline's.
	r.gens.raise(key, 1000)
	data := make([]float64, piece.Size())
	body := server.EncodeTile(data, false)

	for _, tc := range []struct {
		name         string
		piece, nodes func()
		want         float64
	}{
		{"pieceGet", func() {
			if _, _, err := r.pieceGet(a, piece); err != nil {
				t.Fatal(err)
			}
		}, func() {
			reps[0].client.GetTile(a.Name, piece, false)
			reps[1].client.TileGen(a.Name, piece)
		}, 3},
		{"piecePut", func() {
			if _, err := r.piecePut(a.Name, piece, data); err != nil {
				t.Fatal(err)
			}
		}, func() {
			// A multi-digit generation, as piecePut's minted ones soon
			// are, so the header rendering costs the same.
			for _, m := range reps {
				m.client.putBody(a.Name, piece, body, 1000, false)
			}
		}, 5},
	} {
		tc.piece()
		total := testing.AllocsPerRun(1000, tc.piece)
		client := testing.AllocsPerRun(1000, tc.nodes)
		if own := total - client; own != tc.want {
			t.Errorf("%s makes %.0f allocations of its own (%.0f in all, %.0f in the node client), want %.0f",
				tc.name, own, total, client, tc.want)
		}
	}
}
