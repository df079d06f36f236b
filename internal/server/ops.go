// Multi-tile operators: the layout-aware streaming range scan and
// pushed-down reductions. Aggregate traffic should move bytes-out, not
// tiles-out, and a range read should cost one round-trip planned from
// the array's layout hyperplane instead of one HTTP request per tile.
//
//	GET  /v1/arrays/{name}/scan     streaming range scan: CRC-framed
//	                                chunks over chunked transfer
//	                                encoding, visit order planned via
//	                                layout.PlanScan, resumable by the
//	                                opaque cursor each frame carries
//	POST /v1/arrays/{name}/reduce   sum/min/max/count over a box,
//	                                folded tile-side, scalar out
//
// Consistency: every scan chunk takes the array's tile lock exactly as
// the single-tile handlers do (chunks are individually atomic against
// concurrent PUTs; the stream as a whole is not a snapshot). A scan
// chunk's payload is byte-identical to a tile GET of the chunk's box,
// and a reduce equals the client-side row-major fold over a plain GET
// — the differential contract the conformance suite replays.
package server

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"outcore/internal/layout"
	"outcore/internal/obs"
	"outcore/internal/ooc"
)

// Scan wire format: a sequence of little-endian frames, one per chunk,
// closed by a trailer frame.
//
//	[0:4)   magic "OCS1"
//	[4:8)   flags (bit 0: payload is a codec frame; bit 1: trailer)
//	[8:16)  seq — chunk index in the plan; on the trailer, the plan length
//	[16:20) rank
//	[20:24) cursor length in bytes
//	[24:28) payload length in bytes
//	then    lo[rank] int64, hi[rank] int64
//	then    cursor bytes — resumes the scan AFTER this chunk
//	then    payload bytes — box-local row-major float64, raw or codec frame
//	then    CRC-32C over everything above
//
// A client that stops mid-stream resumes by presenting the cursor of
// the last frame whose CRC checked out; the plan is a pure function of
// (layout, box, chunk size), so the resumed scan continues at exactly
// the next chunk — never skipping, never double-delivering.
const (
	// ScanContentType marks a scan response body.
	ScanContentType = "application/x-ooc-scan"
	// DefaultScanChunkElems is the chunk size when ?chunk is absent.
	DefaultScanChunkElems = int64(1) << 16

	scanMagic          = 0x3153434f // "OCS1" little-endian
	scanFlagCompressed = 1 << 0
	scanFlagTrailer    = 1 << 1
	scanHeaderLen      = 28
	maxScanRank        = 64
	maxScanCursorLen   = 4096
	// scanReadStep is how far ScanReader grows a frame buffer ahead of
	// the bytes that arrived; a 4096-element chunk fits in one step.
	scanReadStep = 64 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// opsMetrics are the scan/reduce registry series.
type opsMetrics struct {
	scanRequests   *obs.Counter
	scanChunks     *obs.Counter
	scanResumes    *obs.Counter
	reduceRequests *obs.Counter
	reduceElems    *obs.Counter
}

// ---------------------------------------------------------------------------
// Scan

// ScanCursor is the decoded resume token: enough to re-derive the plan
// (which is a pure function of layout, box and chunk size) plus the
// next chunk index to serve. Exported because the router parses and
// mints the same tokens against its catalog.
type ScanCursor struct {
	Name       string
	Box        layout.Box
	ChunkElems int64
	Layout     string
	Seq        uint64
}

// EncodeScanCursor renders an opaque resume token. Exported for the
// router and tests; clients normally just echo the cursor a frame
// carried.
func EncodeScanCursor(name string, box layout.Box, chunkElems int64, layoutName string, seq uint64) string {
	return string(appendScanCursor(nil, name, box, chunkElems, layoutName, seq))
}

// appendScanCursor appends EncodeScanCursor's token to dst: base64url
// (unpadded) of "ooc-scan/1|name|lo|hi|chunk|layout|seq|crc", with the
// coordinates comma-separated and crc the CRC-32C of everything before
// its separator as 8 lower-case hex digits. The plain text is staged in
// dst's spare capacity, so a stream minting one cursor per chunk into a
// reused buffer allocates nothing for it.
func appendScanCursor(dst []byte, name string, box layout.Box, chunkElems int64, layoutName string, seq uint64) []byte {
	start := len(dst)
	dst = append(dst, "ooc-scan/1|"...)
	dst = append(dst, name...)
	dst = AppendCoordList(append(dst, '|'), box.Lo)
	dst = AppendCoordList(append(dst, '|'), box.Hi)
	dst = strconv.AppendInt(append(dst, '|'), chunkElems, 10)
	dst = append(append(dst, '|'), layoutName...)
	dst = strconv.AppendUint(append(dst, '|'), seq, 10)
	sum := crc32.Checksum(dst[start:], castagnoli)
	dst = append(dst, '|')
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, "0123456789abcdef"[sum>>shift&0xf])
	}
	// Encode the plain text after itself, then move the token down over
	// it: the encoder never writes into the bytes it reads.
	plain := len(dst)
	dst = base64.RawURLEncoding.AppendEncode(dst, dst[start:plain])
	return dst[:start+copy(dst[start:], dst[plain:])]
}

// AppendCoordList appends coordinates in the query form "1,2,3".
func AppendCoordList(dst []byte, c []int64) []byte {
	for i, v := range c {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, v, 10)
	}
	return dst
}

// ParseScanCursor validates and decodes a token. Every malformation is
// an error (the handlers answer 400): wrong base64, wrong field count,
// bad checksum, unknown version, non-numeric fields, negative or
// reversed coordinates.
func ParseScanCursor(token string) (ScanCursor, error) {
	var c ScanCursor
	raw, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil {
		return c, fmt.Errorf("bad cursor encoding: %v", err)
	}
	plain := string(raw)
	cut := strings.LastIndexByte(plain, '|')
	if cut < 0 {
		return c, fmt.Errorf("bad cursor: no checksum")
	}
	sum, err := strconv.ParseUint(plain[cut+1:], 16, 32)
	if err != nil {
		return c, fmt.Errorf("bad cursor checksum: %v", err)
	}
	if uint32(sum) != crc32.Checksum([]byte(plain[:cut]), castagnoli) {
		return c, fmt.Errorf("cursor checksum mismatch")
	}
	parts := strings.Split(plain[:cut], "|")
	if len(parts) != 7 || parts[0] != "ooc-scan/1" {
		return c, fmt.Errorf("bad cursor format")
	}
	lo, err := appendCoords(nil, parts[2])
	if err != nil {
		return c, fmt.Errorf("bad cursor lo: %v", err)
	}
	hi, err := appendCoords(nil, parts[3])
	if err != nil {
		return c, fmt.Errorf("bad cursor hi: %v", err)
	}
	if len(lo) != len(hi) || len(lo) > maxScanRank {
		return c, fmt.Errorf("bad cursor box rank")
	}
	for d := range lo {
		if hi[d] < lo[d] {
			return c, fmt.Errorf("bad cursor box: hi[%d] below lo[%d]", d, d)
		}
	}
	chunk, err := strconv.ParseInt(parts[4], 10, 64)
	if err != nil || chunk <= 0 {
		return c, fmt.Errorf("bad cursor chunk size %q", parts[4])
	}
	seq, err := strconv.ParseUint(parts[6], 10, 64)
	if err != nil {
		return c, fmt.Errorf("bad cursor seq %q", parts[6])
	}
	c.Name, c.Layout, c.ChunkElems, c.Seq = parts[1], parts[5], chunk, seq
	c.Box = layout.NewBox(lo, hi)
	return c, nil
}

func (fe *FrontEnd) handleScan(w http.ResponseWriter, r *http.Request) {
	var (
		ar         Array
		box        layout.Box
		chunkElems int64
		startSeq   uint64
	)
	lim := fe.cfg.MaxTileElems
	if tok := queryValue(r.URL.RawQuery, "cursor"); tok != "" {
		cur, err := ParseScanCursor(tok)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		var ok bool
		if ar, ok = fe.lookup(w, cur.Name); !ok {
			return
		}
		if got := ar.Layout.Name(); got != cur.Layout {
			httpError(w, http.StatusBadRequest, "cursor layout %q does not match array layout %q", cur.Layout, got)
			return
		}
		clipped := cur.Box.Clip(ar.Dims)
		if clipped.Empty() || clipped.String() != cur.Box.String() {
			httpError(w, http.StatusBadRequest, "cursor box %v does not fit array dims %v", cur.Box, ar.Dims)
			return
		}
		box, chunkElems, startSeq = cur.Box, cur.ChunkElems, cur.Seq
		if lim > 0 && chunkElems > lim {
			httpError(w, http.StatusBadRequest, "cursor chunk size %d over the per-request limit %d", chunkElems, lim)
			return
		}
		fe.ops.scanResumes.Inc()
	} else {
		// No per-request element cap: a scan's memory is bounded by its
		// chunk size, so the box may cover the whole array.
		var ok bool
		if ar, box, ok = fe.queryBox(w, r, 0); !ok {
			return
		}
		chunkElems = DefaultScanChunkElems
		if v := queryValue(r.URL.RawQuery, "chunk"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n <= 0 {
				httpError(w, http.StatusBadRequest, "bad chunk size %q", v)
				return
			}
			chunkElems = n
		}
		if lim > 0 && chunkElems > lim {
			chunkElems = lim
		}
	}
	plan := layout.PlanScan(ar.Layout, box, chunkElems)
	if startSeq > uint64(len(plan)) {
		httpError(w, http.StatusBadRequest, "cursor seq %d past the %d-chunk plan", startSeq, len(plan))
		return
	}
	fe.ops.scanRequests.Inc()
	compress := acceptsWireEncoding(r.Header.Get("Accept-Encoding"))

	w.Header()["Content-Type"] = scanContentTypeValue
	w.Header().Set("X-Scan-Chunks", strconv.Itoa(len(plan)))
	w.Header().Set("X-Scan-Chunk-Elems", strconv.FormatInt(chunkElems, 10))
	flusher, _ := w.(http.Flusher)

	// One frame buffer and one cursor buffer for the whole stream:
	// memory is bounded by the chunk size, not the scan size, and a
	// chunk allocates nothing of its own.
	frame := ooc.GetBuf(int(chunkElems)*ooc.ElemSize + 256)[:0]
	defer ooc.PutBuf(frame)
	cursor := ooc.GetBuf(256)[:0]
	defer ooc.PutBuf(cursor)
	layoutName := ar.Layout.Name()
	ctx := r.Context()
	var (
		seq uint64
		ch  layout.Box
	)
	// Each chunk is framed straight from the elements the plane lends,
	// exactly like a tile GET of the chunk box.
	render := func(data []float64, _ uint64) []byte {
		cursor = appendScanCursor(cursor[:0], ar.Name, box, chunkElems, layoutName, seq+1)
		frame = AppendScanFrame(frame[:0], seq, ch, cursor, data, compress)
		return frame
	}
	for seq = startSeq; seq < uint64(len(plan)); seq++ {
		if ctx.Err() != nil {
			// The client hung up: stop before the next chunk instead of
			// reading (and, on the router, read-repairing) into a dead
			// socket until a write happens to fail.
			return
		}
		ch = plan[seq]
		_, _, err := fe.plane.ReadBox(ctx, ar, ch, render)
		if err != nil {
			if seq == startSeq {
				fe.planeError(w, err)
			}
			// Mid-stream: the connection just ends short of the trailer;
			// the framing makes the truncation visible to the client.
			return
		}
		if _, err := w.Write(frame); err != nil {
			return // client went away; it resumes from its last good cursor
		}
		fe.ops.scanChunks.Inc()
		fe.meterWire(ch.Size()*ooc.ElemSize, int64(len(frame)))
		if flusher != nil {
			flusher.Flush()
		}
	}
	frame = AppendScanTrailer(frame[:0], uint64(len(plan)))
	w.Write(frame)
}

// AppendScanFrame renders one data frame (see the wire format above),
// encoding data — the chunk's box-local row-major elements — raw or as
// a codec frame. Exported so the router emits the same stream.
func AppendScanFrame(dst []byte, seq uint64, box layout.Box, cursor []byte, data []float64, compress bool) []byte {
	flags := uint32(0)
	if compress {
		flags |= scanFlagCompressed
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, scanMagic)
	dst = binary.LittleEndian.AppendUint32(dst, flags)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(box.Rank()))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(cursor)))
	dst = binary.LittleEndian.AppendUint32(dst, 0) // payload length, backfilled
	for _, v := range box.Lo {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	for _, v := range box.Hi {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	dst = append(dst, cursor...)
	pstart := len(dst)
	dst = appendTile(dst, data, compress)
	binary.LittleEndian.PutUint32(dst[start+24:], uint32(len(dst)-pstart))
	crc := crc32.Checksum(dst[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// AppendScanTrailer renders the stream-closing trailer frame carrying
// the plan length.
func AppendScanTrailer(dst []byte, total uint64) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, scanMagic)
	dst = binary.LittleEndian.AppendUint32(dst, scanFlagTrailer)
	dst = binary.LittleEndian.AppendUint64(dst, total)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // rank
	dst = binary.LittleEndian.AppendUint32(dst, 0) // cursor length
	dst = binary.LittleEndian.AppendUint32(dst, 0) // payload length
	crc := crc32.Checksum(dst[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// ScanChunk is one decoded frame of a scan stream. ScanReader.Next
// returns the same *ScanChunk on every call and overwrites all its
// fields, and its Box and Data lend the reader's buffers: the chunk is
// valid only until the next call, as bufio.Scanner.Bytes is. Copy what
// you keep — the Cursor string stays valid once copied out, the Box
// and Data need layout.NewBox and slices.Clone.
type ScanChunk struct {
	Seq    uint64
	Box    layout.Box
	Cursor string    // resumes the scan after this chunk
	Data   []float64 // box-local row-major, already decompressed
}

// ScanReader decodes a scan stream frame by frame. Next returns io.EOF
// after the trailer; any torn or corrupted frame is an error, so a
// consumer knows exactly which chunks arrived intact and which cursor
// to resume from. The reader keeps one frame buffer, one coordinate
// slice and one data buffer for the whole stream, grown only when a
// frame needs more: a steady-state chunk allocates only its Cursor.
type ScanReader struct {
	r      io.Reader
	total  uint64
	done   bool
	hdr    [scanHeaderLen]byte
	buf    []byte    // the current frame after its fixed header
	coords []int64   // the current chunk's lo then hi
	data   []float64 // the current chunk's elements
	chunk  ScanChunk
}

// NewScanReader wraps a scan response body.
func NewScanReader(r io.Reader) *ScanReader { return &ScanReader{r: r} }

// Total returns the plan length reported by the trailer (valid after
// Next returned io.EOF).
func (sr *ScanReader) Total() uint64 { return sr.total }

// Next decodes the next chunk into the reader's buffers (see
// ScanChunk for how long it stays valid). io.EOF means the stream
// completed with an intact trailer; io.ErrUnexpectedEOF means it was
// cut mid-frame. The box is read and checked before the rest of the
// frame, so a header claiming more payload than its box can hold is
// an error before anything is allocated for it.
func (sr *ScanReader) Next() (*ScanChunk, error) {
	if sr.done {
		return nil, io.EOF
	}
	hdr := sr.hdr[:]
	if _, err := io.ReadFull(sr.r, hdr); err != nil {
		if err == io.EOF {
			return nil, io.ErrUnexpectedEOF // no trailer seen
		}
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != scanMagic {
		return nil, fmt.Errorf("scan frame: bad magic")
	}
	flags := binary.LittleEndian.Uint32(hdr[4:])
	seq := binary.LittleEndian.Uint64(hdr[8:])
	rank := int(binary.LittleEndian.Uint32(hdr[16:]))
	cursorLen := int(binary.LittleEndian.Uint32(hdr[20:]))
	payloadLen := int64(binary.LittleEndian.Uint32(hdr[24:]))
	if rank > maxScanRank || cursorLen > maxScanCursorLen {
		return nil, fmt.Errorf("scan frame: implausible rank %d / cursor %d", rank, cursorLen)
	}
	trailer := flags&scanFlagTrailer != 0
	if trailer != (rank == 0) || trailer && (cursorLen != 0 || payloadLen != 0) {
		return nil, fmt.Errorf("scan frame %d: rank %d, cursor %d and payload %d bytes do not fit flags %#x",
			seq, rank, cursorLen, payloadLen, flags)
	}

	sr.buf = slices.Grow(sr.buf[:0], rank*16)[:rank*16]
	if _, err := io.ReadFull(sr.r, sr.buf); err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	sr.coords = slices.Grow(sr.coords[:0], 2*rank)[:2*rank]
	for d := range sr.coords {
		sr.coords[d] = int64(binary.LittleEndian.Uint64(sr.buf[d*8:]))
	}
	box := layout.Box{Lo: sr.coords[:rank:rank], Hi: sr.coords[rank:]}
	// The payload must fit the box before any memory is sized from
	// either: exactly 8 bytes per element raw, at most FrameMaxOverhead
	// more as a codec frame. So the 32-bit length field bounds the box
	// as well.
	size := int64(1)
	for d := 0; d < rank; d++ {
		ext := box.Hi[d] - box.Lo[d]
		if box.Lo[d] < 0 || box.Hi[d] < box.Lo[d] || ext > 0 && size > math.MaxUint32/ooc.ElemSize/ext {
			return nil, fmt.Errorf("scan frame %d: implausible box %v", seq, box)
		}
		size *= ext
	}
	// A codec spends at least one bit per element, so a compressed
	// payload also bounds the data buffer: at most 64 times its bytes.
	want := size * ooc.ElemSize
	compressed := flags&scanFlagCompressed != 0
	if !trailer && (payloadLen > want+FrameMaxOverhead || !compressed && payloadLen != want || size > 8*payloadLen) {
		return nil, fmt.Errorf("scan frame %d: %d payload bytes for the %d elements of %v", seq, payloadLen, size, box)
	}

	// Grow the frame buffer only as its bytes arrive, scanReadStep at a
	// time beyond what it already holds: memory follows what the peer
	// sent, not what its header claims.
	n := rank*16 + cursorLen + int(payloadLen) + 4
	for have := len(sr.buf); have < n; have = len(sr.buf) {
		step := min(n-have, max(scanReadStep, cap(sr.buf)-have))
		sr.buf = slices.Grow(sr.buf, step)[:have+step]
		if _, err := io.ReadFull(sr.r, sr.buf[have:]); err != nil {
			return nil, io.ErrUnexpectedEOF
		}
	}
	crc := crc32.Checksum(hdr, castagnoli)
	crc = crc32.Update(crc, castagnoli, sr.buf[:n-4])
	if crc != binary.LittleEndian.Uint32(sr.buf[n-4:]) {
		return nil, fmt.Errorf("scan frame %d: CRC mismatch", seq)
	}
	if trailer {
		sr.done, sr.total = true, seq
		return nil, io.EOF
	}
	sr.data = slices.Grow(sr.data[:0], int(size))[:size]
	if err := DecodeTile(sr.buf[rank*16+cursorLen:n-4], compressed, sr.data); err != nil {
		return nil, fmt.Errorf("scan frame %d: %v", seq, err)
	}
	sr.chunk = ScanChunk{
		Seq:    seq,
		Box:    box,
		Cursor: string(sr.buf[rank*16 : rank*16+cursorLen]),
		Data:   sr.data,
	}
	return &sr.chunk, nil
}

// ---------------------------------------------------------------------------
// Reduce

// reduceRequest asks for a scalar over a box. Ops: sum, min, max,
// count.
type reduceRequest struct {
	Op string  `json:"op"`
	Lo []int64 `json:"lo"`
	Hi []int64 `json:"hi"`
}

// reduceResponse carries the scalar. Value is omitted when the result
// is not finite (JSON has no NaN/Inf); Bits — Float64bits of the
// result — is always present and bit-exact, and is what the router and
// the conformance suite compare.
type reduceResponse struct {
	Op    string   `json:"op"`
	Lo    []int64  `json:"lo"`
	Hi    []int64  `json:"hi"`
	Count int64    `json:"count"`
	Value *float64 `json:"value,omitempty"`
	Bits  uint64   `json:"value_bits"`
}

// reduceOps are the supported folds. Sum accumulates in box-local
// row-major element order — exactly the order a client folding a plain
// GET's payload would use — so a single-node reduce is bit-identical
// to the client-side fold, not merely close.
var reduceOps = map[string]bool{"sum": true, "min": true, "max": true, "count": true}

func (fe *FrontEnd) handleReduce(w http.ResponseWriter, r *http.Request) {
	ar, ok := fe.lookup(w, r.PathValue("name"))
	if !ok {
		return
	}
	var req reduceRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad reduce body: %v", err)
		return
	}
	if !reduceOps[req.Op] {
		httpError(w, http.StatusBadRequest, "unknown reduce op %q (sum, min, max, count)", req.Op)
		return
	}
	// No element cap: the plane folds in bounded chunks.
	box, status, msg := resolveBox(ar, req.Lo, req.Hi, 0)
	if status != 0 {
		http.Error(w, msg, status)
		return
	}
	fe.ops.reduceRequests.Inc()
	value, count, err := fe.plane.ReduceBox(r.Context(), ar, box, req.Op)
	if err != nil {
		fe.planeError(w, err)
		return
	}
	fe.ops.reduceElems.Add(count)
	resp := reduceResponse{Op: req.Op, Lo: box.Lo, Hi: box.Hi, Count: count, Bits: math.Float64bits(value)}
	if !math.IsNaN(value) && !math.IsInf(value, 0) {
		resp.Value = &value
	}
	writeJSON(w, http.StatusOK, resp)
}

// Fold accumulates one reduce: Add folds a run of elements in order,
// Merge folds another Fold's result in as a partial. Sum accumulates in
// call order, so a plane that adds a box's elements in row-major order
// is bit-identical to a client folding a plain GET's payload.
type Fold struct {
	op       string
	sum      float64
	min, max float64
	Count    int64
}

// NewFold starts a fold for op (one of sum, min, max, count).
func NewFold(op string) *Fold {
	return &Fold{op: op, min: math.Inf(1), max: math.Inf(-1)}
}

// Add folds data's elements in.
func (f *Fold) Add(data []float64) {
	switch f.op {
	case "sum":
		for _, v := range data {
			f.sum += v
		}
	case "min":
		for _, v := range data {
			if v < f.min {
				f.min = v
			}
		}
	case "max":
		for _, v := range data {
			if v > f.max {
				f.max = v
			}
		}
	}
	f.Count += int64(len(data))
}

// Merge folds in a partial result: the value and count another fold of
// the same op produced over a disjoint piece.
func (f *Fold) Merge(value float64, count int64) {
	switch f.op {
	case "sum":
		f.sum += value
	case "min":
		if value < f.min {
			f.min = value
		}
	case "max":
		if value > f.max {
			f.max = value
		}
	}
	f.Count += count
}

// Value returns the fold's result.
func (f *Fold) Value() float64 {
	switch f.op {
	case "sum":
		return f.sum
	case "min":
		return f.min
	case "max":
		return f.max
	default: // count
		return float64(f.Count)
	}
}
