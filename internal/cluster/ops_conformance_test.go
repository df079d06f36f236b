package cluster

// The operator half of the cluster conformance suite: the streaming
// and pushed-down operators replayed against the router+N-node plane.
// A subject cluster and a reference cluster — same topology, different
// placement seeds — receive the same boxes as sequential single-tile
// PUTs; every readback path (single-tile GET, scan chunk, reduce) must
// then agree byte-for-byte across both planes and with the sequential
// model.
//
// Reduce note: min/max/count are order-free and compared bit-exactly.
// The conformance data is integer-valued so that sum is exact under
// any association and the cluster's per-piece partial combination is
// also bit-identical to the client-side fold; associativity of
// general float sums across pieces is a documented non-goal.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"testing"

	"outcore/internal/layout"
	"outcore/internal/ooc"
	"outcore/internal/server"
)

func opsConfCluster(t *testing.T, seed int64) *LocalCluster {
	t.Helper()
	lc, err := NewLocal(LocalOptions{
		Nodes:       3,
		Replicas:    2,
		TileDim:     confTile,
		CacheTiles:  confCache,
		DurablePuts: true,
		Seed:        seed,
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(func() { lc.Close() })
	if err := lc.CreateArray("A", confEdge, confEdge); err != nil {
		t.Fatalf("cluster: create: %v", err)
	}
	return lc
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("post %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

func leBytes(data []float64) []byte {
	out := make([]byte, len(data)*ooc.ElemSize)
	for i, v := range data {
		binary.LittleEndian.PutUint64(out[i*ooc.ElemSize:], math.Float64bits(v))
	}
	return out
}

// TestClusterOperatorConformance is the router+3-node plane of the
// PR-9 differential suite; CI runs it under -race next to
// TestClusterConformance.
func TestClusterOperatorConformance(t *testing.T) {
	for seed := int64(1); seed <= confSeeds(t); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runClusterOperatorSeed(t, seed)
		})
	}
}

func runClusterOperatorSeed(t *testing.T, seed int64) {
	subject := opsConfCluster(t, seed)
	ref := opsConfCluster(t, seed+1000)
	refCli := ref.Client()
	subjCli := subject.Client()

	model := &confModel{a: make([]float64, confEdge*confEdge)}
	rng := rand.New(rand.NewSource(seed * 31))
	dims := []int64{confEdge, confEdge}

	// Write phase: the same random boxes land on both planes as
	// single-tile PUTs; the subject's carry an X-Tile-Gen. Integer
	// values keep every reduction order-free.
	for gen := uint64(1); gen <= 24; gen++ {
		lo := []int64{rng.Int63n(confEdge), rng.Int63n(confEdge)}
		hi := []int64{lo[0] + 1 + rng.Int63n(confTile*2), lo[1] + 1 + rng.Int63n(confTile*2)}
		box := layout.NewBox(lo, hi).Clip(dims)
		data := make([]float64, box.Size())
		for j := range data {
			data[j] = float64(rng.Int63n(2000) - 1000)
		}
		if _, _, err := subjCli.PutTile("A", box, data, gen, false); err != nil {
			t.Fatalf("subject put %v: %v", box, err)
		}
		if _, _, err := refCli.PutTile("A", box, data, 0, true); err != nil {
			t.Fatalf("ref put %v: %v", box, err)
		}
		// The model applies writes in order — last write wins on
		// overlap, matching both planes' sequential apply.
		for i, r := 0, box.Lo[0]; r < box.Hi[0]; r++ {
			for c := box.Lo[1]; c < box.Hi[1]; c++ {
				model.a[r*confEdge+c] = data[i]
				i++
			}
		}
	}

	// Every grid tile agrees across subject, reference, and model.
	for tr := int64(0); tr < confEdge/confTile; tr++ {
		for tc := int64(0); tc < confEdge/confTile; tc++ {
			box := alignedTile(tr, tc)
			want := model.want(box)
			got, _, err := subjCli.GetTile("A", box, true)
			if err != nil {
				t.Fatalf("subject get %v: %v", box, err)
			}
			if !equalSlices(got, want) {
				t.Fatalf("subject tile %v diverged from the model", box)
			}
			refGot, _, err := refCli.GetTile("A", box, true)
			if err != nil {
				t.Fatalf("ref get %v: %v", box, err)
			}
			if !equalSlices(refGot, want) {
				t.Fatalf("reference tile %v diverged from the model", box)
			}
		}
	}

	// Scan through the router ≡ concatenated router tile GETs in the
	// plan order layout.PlanScan derives, and resuming from any chunk's
	// cursor neither skips nor re-delivers.
	lo := []int64{rng.Int63n(confEdge / 2), rng.Int63n(confEdge / 2)}
	hi := []int64{lo[0] + confEdge/2, lo[1] + confEdge/2}
	scanBox := layout.NewBox(lo, hi)
	chunkElems := int64(64 + rng.Intn(400))
	scanURL := fmt.Sprintf("%s/v1/arrays/A/scan?lo=%d,%d&hi=%d,%d&chunk=%d",
		subject.RouterURL, lo[0], lo[1], hi[0], hi[1], chunkElems)
	chunks := routerScan(t, scanURL)
	plan := layout.PlanScan(layout.RowMajor(dims...), scanBox, chunkElems)
	if len(chunks) != len(plan) {
		t.Fatalf("router scan delivered %d chunks, plan has %d", len(chunks), len(plan))
	}
	for i, ch := range chunks {
		if ch.Box.String() != plan[i].String() {
			t.Fatalf("chunk %d box %v, plan %v", i, ch.Box, plan[i])
		}
		single, _, err := subjCli.GetTile("A", ch.Box, true)
		if err != nil {
			t.Fatal(err)
		}
		if !equalSlices(ch.Data, single) {
			t.Fatalf("scan chunk %d over %v differs from a router tile GET", i, ch.Box)
		}
		if !equalSlices(ch.Data, model.want(ch.Box)) {
			t.Fatalf("scan chunk %d over %v diverged from the model", i, ch.Box)
		}
	}
	if len(chunks) > 1 {
		k := rng.Intn(len(chunks) - 1)
		resumed := routerScan(t, subject.RouterURL+"/v1/arrays/A/scan?cursor="+chunks[k].Cursor)
		if len(resumed) != len(chunks)-k-1 {
			t.Fatalf("resume at %d delivered %d chunks, want %d", k, len(resumed), len(chunks)-k-1)
		}
		for i, ch := range resumed {
			want := chunks[k+1+i]
			if ch.Seq != want.Seq || !equalSlices(ch.Data, want.Data) {
				t.Fatalf("resume at %d: chunk %d diverged (seq %d vs %d)", k, i, ch.Seq, want.Seq)
			}
		}
	}

	// Pushed-down reduce through the router ≡ the client-side fold over
	// the model (== a plain GET, already proven equal above).
	redLo := []int64{rng.Int63n(confEdge / 2), rng.Int63n(confEdge / 2)}
	redHi := []int64{redLo[0] + 1 + rng.Int63n(confEdge/2), redLo[1] + 1 + rng.Int63n(confEdge/2)}
	redBox := layout.NewBox(redLo, redHi)
	refData := model.want(redBox)
	var sum float64
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, v := range refData {
		sum += v
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	want := map[string]float64{"sum": sum, "min": minV, "max": maxV, "count": float64(redBox.Size())}
	for op, wv := range want {
		got, count, err := subjCli.Reduce("A", redBox, op)
		if err != nil {
			t.Fatalf("router reduce %s: %v", op, err)
		}
		if count != redBox.Size() {
			t.Fatalf("router reduce %s: count %d, want %d", op, count, redBox.Size())
		}
		if math.Float64bits(got) != math.Float64bits(wv) {
			t.Fatalf("router reduce %s over %v: %v, client fold %v", op, redBox, got, wv)
		}
	}
}

// routerScan decodes one scan response from the router.
func routerScan(t *testing.T, url string) []*server.ScanChunk {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("router scan: status %d %s", resp.StatusCode, body)
	}
	sr := server.NewScanReader(resp.Body)
	var chunks []*server.ScanChunk
	for {
		ch, err := sr.Next()
		if err == io.EOF {
			return chunks
		}
		if err != nil {
			t.Fatalf("router scan frame %d: %v", len(chunks), err)
		}
		// Next lends its buffers until the next call: keep a copy.
		chunks = append(chunks, &server.ScanChunk{Seq: ch.Seq, Box: layout.NewBox(ch.Box.Lo, ch.Box.Hi), Cursor: ch.Cursor, Data: slices.Clone(ch.Data)})
	}
}
