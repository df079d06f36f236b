package cluster

// Error-path coverage for the router's operator endpoints: every
// rejection must be a clean 4xx/5xx, and
// losing the whole node set must surface as 503 (quorum/replica
// unavailable), never a hang or a fabricated answer.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"outcore/internal/layout"
	"outcore/internal/server"
)

func postRaw(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("post %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(out)
}

func TestRouterOperatorsUnavailable(t *testing.T) {
	lc := opsConfCluster(t, 901)
	for i := 0; i < 3; i++ {
		lc.Kill(i)
	}

	tile := lc.RouterURL + "/v1/arrays/A/tile?lo=0,0&hi=4,4"
	for _, method := range []string{http.MethodGet, http.MethodPut} {
		req, _ := http.NewRequest(method, tile, bytes.NewReader(leBytes(make([]float64, 16))))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s tile: %v", method, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s tile with no nodes: %d, want 503", method, resp.StatusCode)
		}
	}

	hr, err := http.Get(lc.RouterURL + "/v1/arrays/A/scan?lo=0,0&hi=8,8")
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("scan with no nodes: %d, want 503", hr.StatusCode)
	}

	if code, _ := postRaw(t, lc.RouterURL+"/v1/arrays/A/reduce", `{"op":"sum","lo":[0,0],"hi":[8,8]}`); code != http.StatusServiceUnavailable {
		t.Errorf("reduce with no nodes: %d, want 503", code)
	}
}

func TestRouterScanRejections(t *testing.T) {
	lc := opsConfCluster(t, 902)
	get := func(path string) int {
		resp, err := http.Get(lc.RouterURL + path)
		if err != nil {
			t.Fatalf("get %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := []struct {
		path, why string
		want      int
	}{
		{"/v1/arrays/nope/scan?lo=0,0&hi=8,8", "unknown array", http.StatusNotFound},
		{"/v1/arrays/A/scan?lo=zero,0&hi=8,8", "bad lo", http.StatusBadRequest},
		{"/v1/arrays/A/scan?lo=0,0&hi=8,8&chunk=-3", "bad chunk", http.StatusBadRequest},
		{"/v1/arrays/A/scan?cursor=garbage", "garbage cursor", http.StatusBadRequest},
	}
	for _, c := range cases {
		if code := get(c.path); code != c.want {
			t.Errorf("%s: %d, want %d", c.why, code, c.want)
		}
	}

	// A cursor minted for one array must not resume against a
	// different layout, a shrunken geometry, or past the plan's end.
	box := layout.NewBox([]int64{0, 0}, []int64{16, 16})
	wrongLayout := server.EncodeScanCursor("A", box, 64, "col-major", 1)
	if code := get("/v1/arrays/A/scan?cursor=" + wrongLayout); code != http.StatusBadRequest {
		t.Errorf("wrong-layout cursor: %d, want 400", code)
	}
	unknown := server.EncodeScanCursor("nope", box, 64, "row-major", 1)
	if code := get("/v1/arrays/A/scan?cursor=" + unknown); code != http.StatusNotFound {
		t.Errorf("unknown-array cursor: %d, want 404", code)
	}
	oob := server.EncodeScanCursor("A", layout.NewBox([]int64{0, 0}, []int64{999, 999}), 64, "row-major", 1)
	if code := get("/v1/arrays/A/scan?cursor=" + oob); code != http.StatusBadRequest {
		t.Errorf("out-of-bounds cursor: %d, want 400", code)
	}
	past := server.EncodeScanCursor("A", box, 64, "row-major", 9999)
	if code := get("/v1/arrays/A/scan?cursor=" + past); code != http.StatusBadRequest {
		t.Errorf("past-the-plan cursor: %d, want 400", code)
	}
}

func TestRouterReduceRejections(t *testing.T) {
	lc := opsConfCluster(t, 903)
	url := lc.RouterURL + "/v1/arrays/A/reduce"
	cases := []struct {
		url, body, why string
		want           int
	}{
		{lc.RouterURL + "/v1/arrays/nope/reduce", `{"op":"sum","lo":[0,0],"hi":[8,8]}`, "unknown array", http.StatusNotFound},
		{url, `{"op":"sum","lo":[`, "truncated body", http.StatusBadRequest},
		{url, `{"op":"median","lo":[0,0],"hi":[8,8]}`, "unknown op", http.StatusBadRequest},
		{url, `{"op":"sum","lo":[0],"hi":[8]}`, "rank mismatch", http.StatusBadRequest},
		{url, `{"op":"sum","lo":[8,8],"hi":[0,0]}`, "inverted box", http.StatusBadRequest},
		{url, `{"op":"sum","lo":[64,64],"hi":[70,70]}`, "empty after clip", http.StatusBadRequest},
	}
	for _, c := range cases {
		if code, body := postRaw(t, c.url, c.body); code != c.want {
			t.Errorf("%s: %d, want %d (%s)", c.why, code, c.want, body)
		}
	}
}

// TestRouterColMajorScan covers the catalog's column-major layout
// reconstruction: the router's scan over a col array must plan column
// runs, exactly as the single-node plane does.
func TestRouterColMajorScan(t *testing.T) {
	lc := opsConfCluster(t, 904)
	if err := lc.Client().CreateArray("C", []int64{confEdge, confEdge}, "col"); err != nil {
		t.Fatalf("create col array: %v", err)
	}
	dims := []int64{confEdge, confEdge}
	box := layout.NewBox([]int64{0, 0}, []int64{24, 24})
	chunks := routerScan(t, fmt.Sprintf("%s/v1/arrays/C/scan?lo=0,0&hi=24,24&chunk=%d", lc.RouterURL, confTile*confTile))
	plan := layout.PlanScan(layout.ColMajor(dims...), box, confTile*confTile)
	if len(chunks) != len(plan) {
		t.Fatalf("col scan: %d chunks, plan %d", len(chunks), len(plan))
	}
	for i, ch := range chunks {
		if ch.Box.String() != plan[i].String() {
			t.Fatalf("col scan chunk %d: %v, plan %v — not column order", i, ch.Box, plan[i])
		}
	}
}
