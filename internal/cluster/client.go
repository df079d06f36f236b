package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"outcore/internal/layout"
	"outcore/internal/ooc"
	"outcore/internal/server"
)

// ErrUnavailable classifies a node failure the replication protocol
// handles — connection refused, timeout, or a 5xx/429 answer. The
// router reacts by failing over to another replica (GET) or queueing a
// durable hint (PUT); any other error is a hard protocol error and
// propagates to the client.
var ErrUnavailable = errors.New("node unavailable")

// NodeClient speaks the occd tile API to one storage node: the same
// binary endpoints single-node clients use, plus the replication
// headers (X-Tile-Gen et al) and x-ooc-gorilla wire negotiation. The
// router asks for raw tiles (see GetTile); the wire coding is for
// clients at the edge.
type NodeClient struct {
	ID      string
	BaseURL string
	// HTTP is the client requests go through (default: a 10s timeout
	// over the shared nodeTransport). The local harness injects one
	// whose transport can simulate a network partition.
	HTTP *http.Client
}

// nodeIdleConnsPerHost bounds the idle connections kept per storage
// node. A router fans R replicas x its concurrent requests at each
// node; http.DefaultTransport keeps 2 idle per host, so under load
// every burst beyond two re-dials.
const nodeIdleConnsPerHost = 64

// nodeTransport is the one connection pool every NodeClient shares.
var nodeTransport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 0 // the per-host bound is the limit
	t.MaxIdleConnsPerHost = nodeIdleConnsPerHost
	return t
}()

// NewNodeClient builds a client for one node.
func NewNodeClient(id, baseURL string) *NodeClient {
	return &NodeClient{
		ID:      id,
		BaseURL: strings.TrimRight(baseURL, "/"),
		HTTP:    &http.Client{Timeout: 10 * time.Second, Transport: nodeTransport},
	}
}

// unavailable wraps err as a replica failure.
func unavailable(err error) error {
	return fmt.Errorf("%w: %v", ErrUnavailable, err)
}

// statusError classifies a non-2xx response: statuses a healthy node
// never emits for a well-formed request mean the node (or the path to
// it) is unavailable; the rest are hard errors.
func (c *NodeClient) statusError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	msg := strings.TrimSpace(string(body))
	switch resp.StatusCode {
	case http.StatusServiceUnavailable, http.StatusBadGateway,
		http.StatusGatewayTimeout, http.StatusTooManyRequests:
		return unavailable(fmt.Errorf("%s: %s", resp.Status, msg))
	}
	return fmt.Errorf("node %s: %s: %s", c.ID, resp.Status, msg)
}

// arrayURL renders the endpoint prefix of one array. Create accepts
// names holding URL syntax ('?', '#', '%'), so the name is escaped.
func (c *NodeClient) arrayURL(name string) string {
	return c.BaseURL + "/v1/arrays/" + url.PathEscape(name)
}

// tileURL renders the tile endpoint for (name, box), built in one
// stack buffer so the returned string is the only allocation.
func (c *NodeClient) tileURL(name string, box layout.Box) string {
	var sb [256]byte
	b := append(sb[:0], c.BaseURL...)
	b = append(b, "/v1/arrays/"...)
	b = append(b, url.PathEscape(name)...)
	b = append(b, "/tile?lo="...)
	b = server.AppendCoordList(b, box.Lo)
	b = append(b, "&hi="...)
	b = server.AppendCoordList(b, box.Hi)
	return string(b)
}

// Request header values the client sets as constants, shared so a
// request allocates nothing for them (net/http only reads them).
var (
	wantGenValue    = []string{"1"}
	wireCodingValue = []string{server.WireEncoding}
)

// Healthz reports whether the node answers its liveness probe.
func (c *NodeClient) Healthz() bool {
	resp, err := c.HTTP.Get(c.BaseURL + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// CreateArray creates (or confirms) an array on the node. An array
// that already exists is success — catalog sync replays creates.
func (c *NodeClient) CreateArray(name string, dims []int64, layoutName string) error {
	body, _ := json.Marshal(map[string]any{"name": name, "dims": dims, "layout": layoutName})
	resp, err := c.HTTP.Post(c.BaseURL+"/v1/arrays", "application/json", bytes.NewReader(body))
	if err != nil {
		return unavailable(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	switch resp.StatusCode {
	case http.StatusCreated, http.StatusConflict:
		return nil
	case http.StatusServiceUnavailable, http.StatusBadGateway,
		http.StatusGatewayTimeout, http.StatusTooManyRequests:
		return unavailable(fmt.Errorf("create %s: %s", name, resp.Status))
	}
	return fmt.Errorf("create %s on node %s: %s", name, c.ID, resp.Status)
}

// GetTile reads a tile, returning its elements and the node's recorded
// write generation for the box. wire asks for the compressed tile
// coding; a reply that declares it is decoded either way. A raw reply
// must hold exactly the box's elements: it is read into a pooled buffer
// of that size, and a short or longer body is a broken node.
func (c *NodeClient) GetTile(name string, box layout.Box, wire bool) ([]float64, uint64, error) {
	req, err := http.NewRequest(http.MethodGet, c.tileURL(name, box), nil)
	if err != nil {
		return nil, 0, err
	}
	req.Header[server.TileWantGenHeader] = wantGenValue
	if wire {
		req.Header["Accept-Encoding"] = wireCodingValue
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, 0, unavailable(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, c.statusError(resp)
	}
	gen, err := c.tileGen(resp)
	if err != nil {
		return nil, 0, err
	}
	framed := resp.Header.Get("Content-Encoding") == server.WireEncoding
	limit := int(box.Size()) * ooc.ElemSize
	if framed {
		limit += server.FrameMaxOverhead
	}
	// One byte past the limit tells a longer body from an exact one.
	buf := ooc.GetBuf(limit + 1)
	defer ooc.PutBuf(buf)
	n, err := readUpTo(resp.Body, buf)
	if err != nil {
		return nil, 0, unavailable(err)
	}
	if n > limit {
		return nil, 0, fmt.Errorf("node %s tile body: longer than the %d-element tile", c.ID, box.Size())
	}
	data := make([]float64, box.Size())
	if err := server.DecodeTile(buf[:n], framed, data); err != nil {
		return nil, 0, fmt.Errorf("node %s tile body: %w", c.ID, err)
	}
	return data, gen, nil
}

// readUpTo fills buf from r until buf is full or r ends, returning the
// bytes read. Only a clean end is a short body; any other read error is
// the transport's (a node dying mid-reply).
func readUpTo(r io.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := r.Read(buf[n:])
		n += m
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// TileGen asks the node for the box's write generation alone — a HEAD
// of the tile endpoint, which reads no tile.
func (c *NodeClient) TileGen(name string, box layout.Box) (uint64, error) {
	req, err := http.NewRequest(http.MethodHead, c.tileURL(name, box), nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return 0, unavailable(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, c.statusError(resp)
	}
	return c.tileGen(resp)
}

// tileGen parses a tile response's generation. Both GetTile and TileGen
// ask for it, so a missing or malformed header is a broken node, not
// generation 0: read as 0 it would lose every freshness comparison and
// draw a needless refetch and repair. PutTile parses a present one (or
// a stale reply's) the same way.
func (c *NodeClient) tileGen(resp *http.Response) (uint64, error) {
	v := resp.Header.Get(server.TileGenHeader)
	gen, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("node %s: bad %s %q on a tile response", c.ID, server.TileGenHeader, v)
	}
	return gen, nil
}

// PutTile writes a tile under write generation gen. stale reports that
// the node skipped the write because it already holds storedGen > gen
// (the router raises its counter and retries with a fresh generation).
// wire sends the compressed tile coding.
func (c *NodeClient) PutTile(name string, box layout.Box, data []float64, gen uint64, wire bool) (storedGen uint64, stale bool, err error) {
	return c.putBody(name, box, server.EncodeTile(data, wire), gen, wire)
}

// putBody is PutTile over an encoded body (framed: a WireEncoding
// frame), which the router's replica fan-out shares. The transport may
// still read body after the reply, so it must not be reused.
func (c *NodeClient) putBody(name string, box layout.Box, body []byte, gen uint64, framed bool) (storedGen uint64, stale bool, err error) {
	req, err := http.NewRequest(http.MethodPut, c.tileURL(name, box), bytes.NewReader(body))
	if err != nil {
		return 0, false, err
	}
	req.Header.Set(server.TileGenHeader, strconv.FormatUint(gen, 10))
	if framed {
		req.Header["Content-Encoding"] = wireCodingValue
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return 0, false, unavailable(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return 0, false, c.statusError(resp)
	}
	io.Copy(io.Discard, resp.Body)
	// A stale reply must say what the node holds; otherwise a missing
	// generation is 0 (the node records none for the box).
	stale = resp.Header.Get(server.TileStaleHeader) != ""
	if len(resp.Header.Values(server.TileGenHeader)) == 0 && !stale {
		return 0, false, nil
	}
	storedGen, err = c.tileGen(resp)
	return storedGen, stale, err
}

// Reduce pushes one fold down to the node (POST /v1/arrays/{name}/reduce)
// and returns the scalar — decoded from the bit-exact value_bits field,
// so NaN/Inf results survive the JSON hop — plus the element count.
func (c *NodeClient) Reduce(name string, box layout.Box, op string) (float64, int64, error) {
	reqBody, _ := json.Marshal(map[string]any{"op": op, "lo": box.Lo, "hi": box.Hi})
	req, err := http.NewRequest(http.MethodPost, c.arrayURL(name)+"/reduce", bytes.NewReader(reqBody))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return 0, 0, unavailable(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, c.statusError(resp)
	}
	var out struct {
		Count int64  `json:"count"`
		Bits  uint64 `json:"value_bits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, 0, fmt.Errorf("node %s reduce: %w", c.ID, err)
	}
	return math.Float64frombits(out.Bits), out.Count, nil
}

// ListArrays fetches the node's array catalog (GET /v1/arrays).
func (c *NodeClient) ListArrays() ([]server.ArrayInfo, error) {
	resp, err := c.HTTP.Get(c.BaseURL + "/v1/arrays")
	if err != nil {
		return nil, unavailable(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, c.statusError(resp)
	}
	var out []server.ArrayInfo
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("node %s array list: %w", c.ID, err)
	}
	return out, nil
}

// Stats decodes the node's /v1/stats payload into v.
func (c *NodeClient) Stats(v any) error {
	resp, err := c.HTTP.Get(c.BaseURL + "/v1/stats")
	if err != nil {
		return unavailable(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c.statusError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
