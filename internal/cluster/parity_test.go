package cluster

// Front-end parity: occd and occrouter are the same HTTP front end over
// two planes, so a malformed or edge request must be answered with the
// same status and the same body whichever daemon it reaches. One table
// is sent to a 1-node occd and to a router + 3 nodes and the answers
// compared byte for byte; `want` also pins the intended status where
// the two used to differ (413 vs 502, 400 vs 201, ...).

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/ooc"
	"outcore/internal/server"
)

const (
	parityEdge    = 24   // array A/C: parityEdge x parityEdge
	parityBigEdge = 2100 // array B: over DefaultMaxTileElems as one box
)

// parityPlanes builds the two daemons over the same catalog: A (row),
// C (col) and the oversized B.
func parityPlanes(t *testing.T) (occdURL, routerURL string) {
	t.Helper()

	d := ooc.NewDisk(0)
	for _, a := range []struct {
		name string
		l    *layout.Layout
	}{
		{"A", layout.RowMajor(parityEdge, parityEdge)},
		{"B", layout.RowMajor(parityBigEdge, parityBigEdge)},
		{"C", layout.ColMajor(parityEdge, parityEdge)},
	} {
		dims := []int64{parityEdge, parityEdge}
		if a.name == "B" {
			dims = []int64{parityBigEdge, parityBigEdge}
		}
		if _, err := d.CreateArray(ir.NewArray(a.name, dims...), a.l); err != nil {
			t.Fatal(err)
		}
	}
	srv := server.New(d, ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: 8}), server.Config{})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Drain() })

	lc, err := NewLocal(LocalOptions{Nodes: 3, Replicas: 2, TileDim: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	if err := lc.CreateArray("A", parityEdge, parityEdge); err != nil {
		t.Fatal(err)
	}
	if err := lc.CreateArray("B", parityBigEdge, parityBigEdge); err != nil {
		t.Fatal(err)
	}
	if err := lc.Client().CreateArray("C", []int64{parityEdge, parityEdge}, "col"); err != nil {
		t.Fatal(err)
	}
	return hs.URL, lc.RouterURL
}

type parityCase struct {
	why, method, path string
	header            [2]string // one optional header
	body              string
	want              int
}

func TestFrontEndParity(t *testing.T) {
	occdURL, routerURL := parityPlanes(t)

	tile := func(q string) string { return "/v1/arrays/A/tile?" + q }
	raw16 := string(leBytes(make([]float64, 16)))
	frame16 := string(ooc.AppendFrame(nil, make([]float64, 16)))
	box4 := layout.NewBox([]int64{0, 0}, []int64{parityEdge, parityEdge})
	pastPlan := server.EncodeScanCursor("A", box4, 64, "row-major", 999)
	wrongLayout := server.EncodeScanCursor("C", box4, 64, "row-major", 1)
	noArray := server.EncodeScanCursor("nope", box4, 64, "row-major", 1)
	retired := "batch" // the multi-tile JSON route, deleted as slower per tile than plain GET/PUT

	cases := []parityCase{
		// Box validation, every entry point.
		{why: "tile: bad lo", method: "GET", path: tile("lo=x,0&hi=4,4"), want: 400},
		{why: "tile: missing lo", method: "GET", path: tile("hi=4,4"), want: 400},
		{why: "tile: negative lo", method: "GET", path: tile("lo=-1,0&hi=4,4"), want: 400},
		{why: "tile: rank mismatch", method: "GET", path: tile("lo=0&hi=4"), want: 400},
		{why: "tile: reversed box", method: "GET", path: tile("lo=4,4&hi=2,2"), want: 400},
		{why: "tile: empty after clip", method: "GET", path: tile("lo=30,30&hi=40,40"), want: 400},
		{why: "tile: unknown array", method: "GET", path: "/v1/arrays/nope/tile?lo=0,0&hi=4,4", want: 404},
		{why: "tile: over-limit GET", method: "GET",
			path: fmt.Sprintf("/v1/arrays/B/tile?lo=0,0&hi=%d,%d", parityBigEdge, parityBigEdge), want: 413},
		{why: "tile: over-limit PUT", method: "PUT",
			path: fmt.Sprintf("/v1/arrays/B/tile?lo=0,0&hi=%d,%d", parityBigEdge, parityBigEdge), body: raw16, want: 413},
		{why: "tile: clipped read", method: "GET", path: tile("lo=20,20&hi=40,40"), want: 200},

		// Payload and codec negotiation.
		{why: "put: unknown Content-Encoding", method: "PUT", path: tile("lo=0,0&hi=4,4"),
			header: [2]string{"Content-Encoding", "br"}, body: raw16, want: 415},
		{why: "put: short body", method: "PUT", path: tile("lo=0,0&hi=4,4"), body: raw16[:100], want: 400},
		{why: "put: long body", method: "PUT", path: tile("lo=0,0&hi=4,4"), body: raw16 + "x", want: 400},
		{why: "put: empty body", method: "PUT", path: tile("lo=0,0&hi=4,4"), want: 400},
		{why: "put: trailing bytes after a frame", method: "PUT", path: tile("lo=0,0&hi=4,4"),
			header: [2]string{"Content-Encoding", server.WireEncoding}, body: frame16 + "\x00\x00", want: 400},
		{why: "put: torn frame", method: "PUT", path: tile("lo=0,0&hi=4,4"),
			header: [2]string{"Content-Encoding", server.WireEncoding}, body: frame16[:len(frame16)-3], want: 400},
		{why: "put: frame of the wrong size", method: "PUT", path: tile("lo=0,0&hi=2,2"),
			header: [2]string{"Content-Encoding", server.WireEncoding}, body: frame16, want: 400},
		{why: "put: bad generation header", method: "PUT", path: tile("lo=0,0&hi=4,4"),
			header: [2]string{server.TileGenHeader, "seven"}, body: raw16, want: 400},

		// Scan.
		{why: "scan: bad cursor", method: "GET", path: "/v1/arrays/A/scan?cursor=!!!", want: 400},
		{why: "scan: cursor past plan", method: "GET", path: "/v1/arrays/A/scan?cursor=" + pastPlan, want: 400},
		{why: "scan: cursor layout mismatch", method: "GET", path: "/v1/arrays/C/scan?cursor=" + wrongLayout, want: 400},
		{why: "scan: cursor names no array", method: "GET", path: "/v1/arrays/A/scan?cursor=" + noArray, want: 404},
		{why: "scan: bad chunk", method: "GET", path: "/v1/arrays/A/scan?lo=0,0&hi=8,8&chunk=-3", want: 400},
		{why: "scan: reversed box", method: "GET", path: "/v1/arrays/A/scan?lo=8,8&hi=0,0", want: 400},
		{why: "scan: unknown array", method: "GET", path: "/v1/arrays/nope/scan?lo=0,0&hi=8,8", want: 404},

		// The retired multi-op route is gone on both planes.
		{why: "retired multi-op route", method: "POST", path: "/v1/arrays/A/" + retired, body: `{"ops":[]}`, want: 404},

		// Reduce.
		{why: "reduce: unknown array", method: "POST", path: "/v1/arrays/nope/reduce", body: `{"op":"sum","lo":[0,0],"hi":[8,8]}`, want: 404},
		{why: "reduce: truncated body", method: "POST", path: "/v1/arrays/A/reduce", body: `{"op":"sum","lo":[`, want: 400},
		{why: "reduce: unknown op", method: "POST", path: "/v1/arrays/A/reduce", body: `{"op":"median","lo":[0,0],"hi":[8,8]}`, want: 400},
		{why: "reduce: rank mismatch", method: "POST", path: "/v1/arrays/A/reduce", body: `{"op":"sum","lo":[0],"hi":[8]}`, want: 400},
		{why: "reduce: reversed box", method: "POST", path: "/v1/arrays/A/reduce", body: `{"op":"sum","lo":[8,8],"hi":[0,0]}`, want: 400},
		{why: "reduce: negative lo", method: "POST", path: "/v1/arrays/A/reduce", body: `{"op":"sum","lo":[-2,0],"hi":[8,8]}`, want: 400},
		{why: "reduce: empty after clip", method: "POST", path: "/v1/arrays/A/reduce", body: `{"op":"sum","lo":[64,64],"hi":[70,70]}`, want: 400},
		{why: "reduce: count over the whole array", method: "POST", path: "/v1/arrays/A/reduce", body: `{"op":"count","lo":[0,0],"hi":[99,99]}`, want: 200},

		// Create validation.
		{why: "create: malformed JSON", method: "POST", path: "/v1/arrays", body: `{"name":`, want: 400},
		{why: "create: empty name", method: "POST", path: "/v1/arrays", body: `{"name":"","dims":[4,4]}`, want: 400},
		{why: "create: slash in name", method: "POST", path: "/v1/arrays", body: `{"name":"a/b","dims":[4,4]}`, want: 400},
		{why: "create: whitespace in name", method: "POST", path: "/v1/arrays", body: `{"name":"a b","dims":[4,4]}`, want: 400},
		{why: "create: no dims", method: "POST", path: "/v1/arrays", body: `{"name":"X","dims":[]}`, want: 400},
		{why: "create: non-positive extent", method: "POST", path: "/v1/arrays", body: `{"name":"X","dims":[4,0]}`, want: 400},
		{why: "create: dims overflow int64", method: "POST", path: "/v1/arrays",
			body: `{"name":"X","dims":[4611686018427387904,4611686018427387904]}`, want: 400},
		{why: "create: over the element cap", method: "POST", path: "/v1/arrays", body: `{"name":"X","dims":[1000000000,1000000000]}`, want: 400},
		{why: "create: unknown layout", method: "POST", path: "/v1/arrays", body: `{"name":"X","dims":[4,4],"layout":"zigzag"}`, want: 400},
		{why: "array: unknown", method: "GET", path: "/v1/arrays/nope", want: 404},
		{why: "array: col-major row", method: "GET", path: "/v1/arrays/C", want: 200},
		{why: "array: listing", method: "GET", path: "/v1/arrays", want: 200},
	}
	for _, c := range cases {
		send := func(base string) (int, string) {
			req, err := http.NewRequest(c.method, base+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			if c.header[0] != "" {
				req.Header.Set(c.header[0], c.header[1])
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s: %v", c.why, err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, string(body)
		}
		nodeCode, nodeBody := send(occdURL)
		routerCode, routerBody := send(routerURL)
		if nodeCode != c.want || routerCode != c.want {
			t.Errorf("%s: occd %d, occrouter %d, want %d", c.why, nodeCode, routerCode, c.want)
		}
		if nodeBody != routerBody {
			t.Errorf("%s: bodies differ\n      occd: %.200q\n occrouter: %.200q", c.why, nodeBody, routerBody)
		}
	}
}
