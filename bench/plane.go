package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"outcore/internal/layout"
	"outcore/internal/ooc"
	"outcore/internal/server"
)

// plane is the op interface every data-carrying depth implements, so
// one runner and one oracle serve all of them. Slices handed out or in
// are box-local row-major and valid until the next call.
type plane interface {
	get(o op) ([]float64, error)
	put(o op, src []float64) error
	// scan delivers the op's box chunk by chunk, in plan order.
	scan(o op, visit func(b layout.Box, data []float64)) error
}

// ---------------------------------------------------------------------------
// D1: the array, no cache.

type arrayPlane struct{ ar *ooc.Array }

func (p *arrayPlane) get(o op) ([]float64, error) {
	t, err := p.ar.ReadTile(o.box())
	if err != nil {
		return nil, err
	}
	return t.Data(), nil
}

func (p *arrayPlane) put(o op, src []float64) error {
	t := p.ar.NewTileZero(o.box())
	copy(t.Data(), src)
	return t.WriteTile()
}

func (p *arrayPlane) scan(o op, visit func(layout.Box, []float64)) error {
	for _, ch := range layout.PlanScan(p.ar.Layout, o.box(), scanChunk) {
		t, err := p.ar.ReadTile(ch)
		if err != nil {
			return err
		}
		visit(ch, t.Data())
	}
	return nil
}

// ---------------------------------------------------------------------------
// D2: the engine, called the way the handlers call it.

type enginePlane struct {
	eng     *ooc.Engine
	ar      *ooc.Array
	durable bool
	syncNS  int64 // time spent in FlushOverlapping + Array.Sync
}

func (p *enginePlane) get(o op) ([]float64, error) {
	h, err := p.eng.Acquire(p.ar, o.box())
	if err != nil {
		return nil, err
	}
	// One client, so nothing can evict the tile between this release
	// and the caller's check of the data.
	data := h.Tile().Data()
	p.eng.Release(h, false)
	return data, nil
}

func (p *enginePlane) put(o op, src []float64) error {
	box := o.box()
	h, err := p.eng.Acquire(p.ar, box)
	if err != nil {
		return err
	}
	copy(h.Tile().Data(), src)
	p.eng.Release(h, true)
	if !p.durable {
		return nil
	}
	t0 := time.Now()
	defer func() { p.syncNS += int64(time.Since(t0)) }()
	if err := p.eng.FlushOverlapping(p.ar, box); err != nil {
		return err
	}
	return p.ar.Sync()
}

func (p *enginePlane) scan(o op, visit func(layout.Box, []float64)) error {
	for _, ch := range layout.PlanScan(p.ar.Layout, o.box(), scanChunk) {
		h, err := p.eng.Acquire(p.ar, ch)
		if err != nil {
			return err
		}
		visit(ch, h.Tile().Data())
		p.eng.Release(h, false)
	}
	return nil
}

// ---------------------------------------------------------------------------
// D3..D5: HTTP requests, into a handler directly or over loopback.

// wire builds requests and decodes responses for both HTTP planes.
type wire struct {
	base string
	url  []byte
	body []byte
	vals []float64
}

func (w *wire) target(o op, what string) string {
	b := append(w.url[:0], w.base...)
	b = append(b, "/v1/arrays/"+arrayName+"/"...)
	b = append(b, what...)
	b = append(b, "?lo="...)
	b = strconv.AppendInt(b, o.r0, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, o.c0, 10)
	b = append(b, "&hi="...)
	b = strconv.AppendInt(b, o.r1, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, o.c1, 10)
	if what == "scan" {
		b = append(b, "&chunk="...)
		b = strconv.AppendInt(b, scanChunk, 10)
	}
	w.url = b
	return string(b)
}

func (w *wire) encode(src []float64) []byte {
	if cap(w.body) < len(src)*8 {
		w.body = make([]byte, len(src)*8)
	}
	w.body = w.body[:len(src)*8]
	for i, v := range src {
		binary.LittleEndian.PutUint64(w.body[i*8:], math.Float64bits(v))
	}
	return w.body
}

// decode turns a tile GET body into elements, checking its length.
func (w *wire) decode(o op, body []byte) ([]float64, error) {
	want := int(o.elems())
	if len(body) != want*8 {
		return nil, fmt.Errorf("op %d: %d body bytes, want %d", o.id, len(body), want*8)
	}
	if cap(w.vals) < want {
		w.vals = make([]float64, want)
	}
	w.vals = w.vals[:want]
	for i := range w.vals {
		w.vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[i*8:]))
	}
	return w.vals, nil
}

func readScan(r io.Reader, visit func(layout.Box, []float64)) error {
	sr := server.NewScanReader(r)
	for {
		ch, err := sr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		visit(ch.Box, ch.Data)
	}
}

type httpPlane struct {
	wire
	client *http.Client
	resp   []byte
}

func newHTTPPlane(base string, c *http.Client) *httpPlane {
	return &httpPlane{wire: wire{base: base}, client: c}
}

func (p *httpPlane) do(method, url string, body io.Reader, want int) (*http.Response, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: %s", method, url, resp.Status)
	}
	return resp, nil
}

func (p *httpPlane) get(o op) ([]float64, error) {
	resp, err := p.do(http.MethodGet, p.target(o, "tile"), nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf := bytes.NewBuffer(p.resp[:0])
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	p.resp = buf.Bytes()
	return p.decode(o, p.resp)
}

func (p *httpPlane) put(o op, src []float64) error {
	resp, err := p.do(http.MethodPut, p.target(o, "tile"), bytes.NewReader(p.encode(src)), http.StatusNoContent)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	return resp.Body.Close()
}

func (p *httpPlane) scan(o op, visit func(layout.Box, []float64)) error {
	resp, err := p.do(http.MethodGet, p.target(o, "scan"), nil, http.StatusOK)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return readScan(resp.Body, visit)
}

// recorder is the in-memory http.ResponseWriter of the handler depth:
// one reused header map and body buffer, so the allocations counted at
// that depth are the handler's own.
type recorder struct {
	hdr  http.Header
	buf  bytes.Buffer
	code int
}

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) Write(b []byte) (int, error) { return r.buf.Write(b) }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Flush()                      {}
func (r *recorder) reset() {
	for k := range r.hdr {
		delete(r.hdr, k)
	}
	r.buf.Reset()
	r.code = http.StatusOK
}

type handlerPlane struct {
	wire
	h   http.Handler
	rec recorder
}

func newHandlerPlane(h http.Handler) *handlerPlane {
	return &handlerPlane{wire: wire{base: "http://bench"}, h: h, rec: recorder{hdr: http.Header{}}}
}

func (p *handlerPlane) serve(method, url string, body io.Reader, want int) error {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return err
	}
	req.RemoteAddr = "bench"
	p.rec.reset()
	p.h.ServeHTTP(&p.rec, req)
	if p.rec.code != want {
		return fmt.Errorf("%s %s: status %d", method, url, p.rec.code)
	}
	return nil
}

func (p *handlerPlane) get(o op) ([]float64, error) {
	if err := p.serve(http.MethodGet, p.target(o, "tile"), nil, http.StatusOK); err != nil {
		return nil, err
	}
	return p.decode(o, p.rec.buf.Bytes())
}

func (p *handlerPlane) put(o op, src []float64) error {
	return p.serve(http.MethodPut, p.target(o, "tile"), bytes.NewReader(p.encode(src)), http.StatusNoContent)
}

func (p *handlerPlane) scan(o op, visit func(layout.Box, []float64)) error {
	if err := p.serve(http.MethodGet, p.target(o, "scan"), nil, http.StatusOK); err != nil {
		return err
	}
	return readScan(&p.rec.buf, visit)
}
