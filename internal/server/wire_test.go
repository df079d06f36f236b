package server

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"outcore/internal/ooc"
)

// doHdr is ts.do with request headers, for the content-negotiation
// tests that need Accept-Encoding / Content-Encoding set.
func (ts *testServer) doHdr(t *testing.T, method, url string, body []byte, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, resp.Header
}

// smoothPayload is a compressible tile: a dyadic-step ramp, the shape
// the codec is built for.
func smoothPayload(n int) []float64 {
	data := make([]float64, n)
	for i := range data {
		data[i] = 20.0 + float64(i)*0.25
	}
	return data
}

// TestTileWireNegotiation exercises the x-ooc-gorilla content coding on
// the tile endpoints end to end: a client that offers it gets framed
// bodies smaller than raw, a client that doesn't keeps the raw format
// bit for bit, and each GET gets the body its encoding asked for.
func TestTileWireNegotiation(t *testing.T) {
	ts := newTestServer(t, Config{}, nil)
	ts.createArray(t, "A", 32, 32)

	data := smoothPayload(16 * 16)
	raw := encodePayload(data)
	url := ts.url("/v1/arrays/A/tile?lo=0,0&hi=16,16")

	// Seed with a plain PUT — the path every existing client uses.
	if status, out, _ := ts.do(t, http.MethodPut, url, raw); status != http.StatusNoContent {
		t.Fatalf("raw put: %d %s", status, out)
	}

	// A legacy GET (no Accept-Encoding) stays raw.
	status, body, hdr := ts.do(t, http.MethodGet, url, nil)
	if status != 200 {
		t.Fatalf("raw get: %d", status)
	}
	if ce := hdr.Get("Content-Encoding"); ce != "" {
		t.Fatalf("raw get got Content-Encoding %q, want none", ce)
	}
	if !bytes.Equal(body, raw) {
		t.Fatal("raw get body differs from the stored payload")
	}

	// A negotiating GET gets a framed body, smaller, that decodes back.
	status, frame, hdr := ts.doHdr(t, http.MethodGet, url, nil,
		map[string]string{"Accept-Encoding": "gzip, " + WireEncoding + ";q=0.9"})
	if status != 200 {
		t.Fatalf("compressed get: %d %s", status, frame)
	}
	if ce := hdr.Get("Content-Encoding"); ce != WireEncoding {
		t.Fatalf("compressed get Content-Encoding = %q, want %q", ce, WireEncoding)
	}
	if len(frame) >= len(raw) {
		t.Fatalf("smooth tile frame is %d bytes, raw is %d — no wire win", len(frame), len(raw))
	}
	got := make([]float64, len(data))
	if _, err := ooc.DecodeFrame(frame, got); err != nil {
		t.Fatalf("decode wire frame: %v", err)
	}
	for i := range got {
		if got[i] != data[i] {
			t.Fatalf("wire round trip differs at %d: %v != %v", i, got[i], data[i])
		}
	}

	// A compressed PUT lands the same as a raw one.
	data2 := smoothPayload(16 * 16)
	for i := range data2 {
		data2[i] += 100
	}
	frame2 := ooc.AppendFrame(nil, data2)
	if status, out, _ := ts.doHdr(t, http.MethodPut, url, frame2,
		map[string]string{"Content-Encoding": WireEncoding}); status != http.StatusNoContent {
		t.Fatalf("compressed put: %d %s", status, out)
	}
	status, body, _ = ts.do(t, http.MethodGet, url, nil)
	if status != 200 {
		t.Fatalf("get after compressed put: %d", status)
	}
	if !bytes.Equal(body, encodePayload(data2)) {
		t.Fatal("compressed PUT did not land the decoded payload")
	}

	// An unknown coding is refused up front.
	if status, _, _ := ts.doHdr(t, http.MethodPut, url, frame2,
		map[string]string{"Content-Encoding": "zstd"}); status != http.StatusUnsupportedMediaType {
		t.Fatalf("unknown Content-Encoding: %d, want 415", status)
	}

	// A corrupt frame is rejected AND leaves the cached tile untouched.
	// The flipped byte sits in the CRC-covered payload, not the tail
	// padding.
	bad := append([]byte(nil), frame2...)
	bad[20] ^= 0xFF
	if status, _, _ := ts.doHdr(t, http.MethodPut, url, bad,
		map[string]string{"Content-Encoding": WireEncoding}); status != http.StatusBadRequest {
		t.Fatalf("corrupt frame put: %d, want 400", status)
	}
	status, body, _ = ts.do(t, http.MethodGet, url, nil)
	if status != 200 || !bytes.Equal(body, encodePayload(data2)) {
		t.Fatal("corrupt frame PUT disturbed the cached tile")
	}

	// A frame whose element count doesn't match the tile is rejected too.
	short := ooc.AppendFrame(nil, data2[:8])
	if status, _, _ := ts.doHdr(t, http.MethodPut, url, short,
		map[string]string{"Content-Encoding": WireEncoding}); status != http.StatusBadRequest {
		t.Fatalf("wrong-size frame put: %d, want 400", status)
	}
}

func TestAcceptsWireEncoding(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{"", false},
		{"gzip", false},
		{WireEncoding, true},
		{"gzip, " + WireEncoding, true},
		{" " + WireEncoding + " ;q=0.5, gzip", true},
		{WireEncoding + "x", false},
		{"x-ooc", false},
		// q=0 means "not acceptable" (RFC 9110 §12.5.3), in any of its
		// spellings; any other weight is an offer.
		{WireEncoding + ";q=0", false},
		{WireEncoding + "; q=0.000, gzip", false},
		{WireEncoding + ";Q=0.", false},
		{"gzip;q=0, " + WireEncoding + ";q=0.0", false},
		{WireEncoding + ";q=0.001", true},
		{WireEncoding + ";q=1", true},
		{WireEncoding + ";level=1;q=0.5", true},
		{WireEncoding + ";q=0, " + WireEncoding, true},
		// Coding names are case-insensitive.
		{"X-OOC-Gorilla", true},
		{"gzip, X-Ooc-GORILLA;q=0.3", true},
		{"X-OOC-Gorilla;q=0", false},
	} {
		if got := acceptsWireEncoding(tc.header); got != tc.want {
			t.Errorf("acceptsWireEncoding(%q) = %v, want %v", tc.header, got, tc.want)
		}
		if n := testing.AllocsPerRun(100, func() { acceptsWireEncoding(tc.header) }); n != 0 {
			t.Errorf("acceptsWireEncoding(%q) makes %.0f allocations, want 0", tc.header, n)
		}
	}
}

// TestPutContentEncodingCaseInsensitive: a PUT declaring the wire
// coding in another letter case is decoded as a frame, not refused.
func TestPutContentEncodingCaseInsensitive(t *testing.T) {
	ts := newTestServer(t, Config{}, nil)
	ts.createArray(t, "A", 16, 16)
	url := ts.url("/v1/arrays/A/tile?lo=0,0&hi=8,8")
	data := smoothPayload(8 * 8)
	if status, out, _ := ts.doHdr(t, http.MethodPut, url, ooc.AppendFrame(nil, data),
		map[string]string{"Content-Encoding": "X-OOC-Gorilla"}); status != http.StatusNoContent {
		t.Fatalf("PUT with Content-Encoding X-OOC-Gorilla: %d %s, want 204", status, out)
	}
	if status, body, _ := ts.do(t, http.MethodGet, url, nil); status != 200 || !bytes.Equal(body, encodePayload(data)) {
		t.Fatalf("GET after the PUT: %d, body matches %v", status, bytes.Equal(body, encodePayload(data)))
	}
}
