// Batched and streaming operators: multi-tile batch GET/PUT, the
// layout-aware streaming range scan, and pushed-down reductions. These
// are the serving-plane answer to ROADMAP item 4 — aggregate traffic
// should move bytes-out, not tiles-out, and a range read should cost
// one round-trip planned from the array's layout hyperplane instead of
// one HTTP request per tile.
//
//	POST /v1/arrays/{name}/batch    many GET/PUT boxes, one admission
//	                                slot, per-op status (partial
//	                                failure is explicit, not a 500)
//	GET  /v1/arrays/{name}/scan     streaming range scan: CRC-framed
//	                                chunks over chunked transfer
//	                                encoding, visit order planned via
//	                                layout.PlanScan, resumable by the
//	                                opaque cursor each frame carries
//	POST /v1/arrays/{name}/reduce   sum/min/max/count over a box,
//	                                folded tile-side, scalar out
//
// Consistency: every batch op and every scan chunk takes the array's
// tile lock exactly as the single-tile handlers do (ops and chunks are
// individually atomic against concurrent PUTs; the stream as a whole
// is not a snapshot). A scan chunk's payload is byte-identical to a
// tile GET of the chunk's box, batch ops are identical to the same
// boxes issued one request at a time, and a reduce equals the
// client-side row-major fold over a plain GET — the differential
// contract the conformance suite replays.
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

	// maxBatchOps caps one batch request's op list.
	maxBatchOps = 4096
	// maxBatchBody caps the batch request body read.
	maxBatchBody = int64(1) << 28
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// opsMetrics are the batch/scan/reduce registry series.
type opsMetrics struct {
	batchRequests  *obs.Counter
	batchOps       *obs.Counter
	batchOpErrors  *obs.Counter
	scanRequests   *obs.Counter
	scanChunks     *obs.Counter
	scanResumes    *obs.Counter
	reduceRequests *obs.Counter
	reduceElems    *obs.Counter
}

// ---------------------------------------------------------------------------
// Batch

// batchOp is one entry of a batch request: "get" returns the box's
// bytes, "put" writes them. Data is base64 of the raw little-endian
// float64 payload (JSON numbers would lose NaN/Inf and bit-exactness).
// Gen, when non-zero on a put, generation-gates the write exactly like
// the X-Tile-Gen header on a single-tile PUT.
type batchOp struct {
	Op   string  `json:"op"`
	Lo   []int64 `json:"lo"`
	Hi   []int64 `json:"hi"`
	Data string  `json:"data_b64,omitempty"`
	Gen  uint64  `json:"gen,omitempty"`
}

type batchRequest struct {
	Ops []batchOp `json:"ops"`
}

// batchResult reports one op's outcome with single-tile semantics:
// 200 a get served, 204 a put applied, 4xx the op was rejected. The
// batch as a whole answers 200 whenever it was well-formed enough to
// run — per-op status is the partial-failure contract.
type batchResult struct {
	Status int    `json:"status"`
	Error  string `json:"error,omitempty"`
	Elems  int64  `json:"elems,omitempty"`
	Data   string `json:"data_b64,omitempty"`
	Gen    uint64 `json:"gen,omitempty"`
	Stale  bool   `json:"stale,omitempty"`
}

type batchResponse struct {
	Results []batchResult `json:"results"`
	Failed  int           `json:"failed"`
}

func (fe *FrontEnd) handleBatch(w http.ResponseWriter, r *http.Request, a admitted) {
	ar, ok := fe.lookup(w, r.PathValue("name"))
	if !ok {
		return
	}
	var req batchRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBatchBody)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad batch body: %v", err)
		return
	}
	if len(req.Ops) == 0 {
		httpError(w, http.StatusBadRequest, "batch needs at least one op")
		return
	}
	if len(req.Ops) > maxBatchOps {
		httpError(w, http.StatusBadRequest, "batch of %d ops over the limit of %d", len(req.Ops), maxBatchOps)
		return
	}
	fe.ops.batchRequests.Inc()
	resp := batchResponse{Results: make([]batchResult, len(req.Ops))}
	for i, op := range req.Ops {
		// Each op counts against the tenant's in-flight chunk cap, so a
		// wide batch shares plane capacity like a scan's chunk train
		// instead of monopolizing it from inside one admission slot.
		chunkDone, ok := fe.tenants.AcquireChunk(r.Context(), a.tenant)
		if !ok {
			resp.Results[i] = batchResult{Status: http.StatusServiceUnavailable, Error: "request canceled"}
			resp.Failed++
			continue
		}
		resp.Results[i] = fe.batchOne(r, ar, op, a.tenant)
		chunkDone()
		fe.ops.batchOps.Inc()
		if resp.Results[i].Status >= 400 {
			fe.ops.batchOpErrors.Inc()
			resp.Failed++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// batchOne runs one op with exactly the single-tile handlers'
// semantics: the same box validation and limits, and the same plane
// read and write paths.
func (fe *FrontEnd) batchOne(r *http.Request, ar Array, op batchOp, tenant string) batchResult {
	box, status, msg := resolveBox(ar, op.Lo, op.Hi, fe.cfg.MaxTileElems)
	if status != 0 {
		return batchResult{Status: status, Error: msg}
	}
	raw := box.Size() * ooc.ElemSize
	switch op.Op {
	case "get":
		// Unshared: the batch itself is the amortization.
		payload, gen, _, err := fe.plane.ReadBox(r.Context(), ar, box, "", renderRaw)
		if err != nil {
			status, msg := fe.failure(err)
			return batchResult{Status: status, Error: msg}
		}
		fe.meterWire(tenant, raw, int64(len(payload)))
		return batchResult{
			Status: http.StatusOK,
			Elems:  box.Size(),
			Data:   base64.StdEncoding.EncodeToString(payload),
			Gen:    gen,
		}
	case "put":
		body, err := base64.StdEncoding.DecodeString(op.Data)
		if err != nil {
			return batchResult{Status: http.StatusBadRequest, Error: fmt.Sprintf("bad data_b64: %v", err)}
		}
		data := ooc.GetF64(int(box.Size()))
		defer ooc.PutF64(data)
		if err := DecodeTile(body, false, data); err != nil {
			return batchResult{Status: http.StatusBadRequest, Error: fmt.Sprintf("%v (%v)", err, box)}
		}
		fe.meterWire(tenant, raw, raw)
		stored, stale, err := fe.plane.WriteBox(r.Context(), ar, box, data, op.Gen)
		if err != nil {
			status, msg := fe.failure(err)
			return batchResult{Status: status, Error: msg}
		}
		return batchResult{Status: http.StatusNoContent, Elems: box.Size(), Gen: stored, Stale: stale}
	default:
		return batchResult{Status: http.StatusBadRequest, Error: fmt.Sprintf("unknown op %q (get, put)", op.Op)}
	}
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
	plain := fmt.Sprintf("ooc-scan/1|%s|%s|%s|%d|%s|%d",
		name, coordList(box.Lo), coordList(box.Hi), chunkElems, layoutName, seq)
	sum := crc32.Checksum([]byte(plain), castagnoli)
	return base64.RawURLEncoding.EncodeToString([]byte(fmt.Sprintf("%s|%08x", plain, sum)))
}

// coordList renders coordinates as the query form "1,2,3".
func coordList(c []int64) string {
	out := ""
	for i, v := range c {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%d", v)
	}
	return out
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
	lo, err := parseCoords(parts[2])
	if err != nil {
		return c, fmt.Errorf("bad cursor lo: %v", err)
	}
	hi, err := parseCoords(parts[3])
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

func (fe *FrontEnd) handleScan(w http.ResponseWriter, r *http.Request, a admitted) {
	q := r.URL.Query()
	var (
		ar         Array
		box        layout.Box
		chunkElems int64
		startSeq   uint64
	)
	lim := fe.cfg.MaxTileElems
	if tok := q.Get("cursor"); tok != "" {
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
		if v := q.Get("chunk"); v != "" {
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

	w.Header().Set("Content-Type", ScanContentType)
	w.Header().Set("X-Scan-Chunks", strconv.Itoa(len(plan)))
	w.Header().Set("X-Scan-Chunk-Elems", strconv.FormatInt(chunkElems, 10))
	flusher, _ := w.(http.Flusher)

	// One frame buffer for the whole stream: memory is bounded by the
	// chunk size, not the scan size.
	frame := ooc.GetBuf(int(chunkElems)*ooc.ElemSize + 256)[:0]
	defer ooc.PutBuf(frame)
	layoutName := ar.Layout.Name()
	// With a chunk cap the stream's cost is paid per chunk from here on,
	// so a plane that does not need the admission slot to outlive the
	// stream may hand it back (see ReleaseAdmissionEarly).
	ctx := fe.tenants.offerAdmissionRelease(r.Context(), a.release)
	var (
		seq uint64
		ch  layout.Box
	)
	// Each chunk is framed straight from the elements the plane lends,
	// exactly like a tile GET of the chunk box.
	render := func(data []float64, _ uint64) []byte {
		cursor := EncodeScanCursor(ar.Name, box, chunkElems, layoutName, seq+1)
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
		// Each chunk claims one of the tenant's in-flight chunk slots
		// before touching the plane, and releases it before the next
		// chunk — so a scan's chunk train shares capacity at the
		// configured per-tenant width instead of arriving as fast as the
		// stream drains.
		chunkDone, ok := fe.tenants.AcquireChunk(ctx, a.tenant)
		if !ok {
			return // client went away while the cap was saturated
		}
		_, _, _, err := fe.plane.ReadBox(ctx, ar, ch, "", render)
		chunkDone()
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
		fe.meterWire(a.tenant, ch.Size()*ooc.ElemSize, int64(len(frame)))
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
func AppendScanFrame(dst []byte, seq uint64, box layout.Box, cursor string, data []float64, compress bool) []byte {
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
	if compress {
		dst = ooc.AppendFrame(dst, data)
	} else {
		dst = appendPayload(dst, data)
	}
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

// appendPayload appends the raw wire form of data (little-endian
// float64) to dst.
func appendPayload(dst []byte, data []float64) []byte {
	for _, v := range data {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// ScanChunk is one decoded frame of a scan stream.
type ScanChunk struct {
	Seq    uint64
	Box    layout.Box
	Cursor string    // resumes the scan after this chunk
	Data   []float64 // box-local row-major, already decompressed
}

// ScanReader decodes a scan stream frame by frame. Next returns io.EOF
// after the trailer; any torn or corrupted frame is an error, so a
// consumer knows exactly which chunks arrived intact and which cursor
// to resume from.
type ScanReader struct {
	r     io.Reader
	total uint64
	done  bool
}

// NewScanReader wraps a scan response body.
func NewScanReader(r io.Reader) *ScanReader { return &ScanReader{r: r} }

// Total returns the plan length reported by the trailer (valid after
// Next returned io.EOF).
func (sr *ScanReader) Total() uint64 { return sr.total }

// Next decodes the next chunk. io.EOF means the stream completed with
// an intact trailer; io.ErrUnexpectedEOF means it was cut mid-frame.
func (sr *ScanReader) Next() (*ScanChunk, error) {
	if sr.done {
		return nil, io.EOF
	}
	var hdr [scanHeaderLen]byte
	if _, err := io.ReadFull(sr.r, hdr[:]); err != nil {
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
	rank := binary.LittleEndian.Uint32(hdr[16:])
	cursorLen := binary.LittleEndian.Uint32(hdr[20:])
	payloadLen := binary.LittleEndian.Uint32(hdr[24:])
	if rank > maxScanRank || cursorLen > maxScanCursorLen {
		return nil, fmt.Errorf("scan frame: implausible rank %d / cursor %d", rank, cursorLen)
	}
	rest := make([]byte, int(rank)*16+int(cursorLen)+int(payloadLen)+4)
	if _, err := io.ReadFull(sr.r, rest); err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	crc := crc32.Checksum(hdr[:], castagnoli)
	crc = crc32.Update(crc, castagnoli, rest[:len(rest)-4])
	if crc != binary.LittleEndian.Uint32(rest[len(rest)-4:]) {
		return nil, fmt.Errorf("scan frame %d: CRC mismatch", seq)
	}
	if flags&scanFlagTrailer != 0 {
		sr.done, sr.total = true, seq
		return nil, io.EOF
	}
	lo := make([]int64, rank)
	hi := make([]int64, rank)
	for d := range lo {
		lo[d] = int64(binary.LittleEndian.Uint64(rest[d*8:]))
	}
	for d := range hi {
		hi[d] = int64(binary.LittleEndian.Uint64(rest[int(rank)*8+d*8:]))
	}
	box := layout.NewBox(lo, hi)
	cursor := string(rest[int(rank)*16 : int(rank)*16+int(cursorLen)])
	payload := rest[int(rank)*16+int(cursorLen) : len(rest)-4]
	data := make([]float64, box.Size())
	if err := DecodeTile(payload, flags&scanFlagCompressed != 0, data); err != nil {
		return nil, fmt.Errorf("scan frame %d: %v", seq, err)
	}
	return &ScanChunk{Seq: seq, Box: box, Cursor: cursor, Data: data}, nil
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

func (fe *FrontEnd) handleReduce(w http.ResponseWriter, r *http.Request, a admitted) {
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
	// A fold occupies the plane like a chunk train does; it takes one of
	// the tenant's chunk slots for its duration.
	chunkDone, ok := fe.tenants.AcquireChunk(r.Context(), a.tenant)
	if !ok {
		return // client went away while the cap was saturated
	}
	value, count, err := fe.plane.ReduceBox(r.Context(), ar, box, req.Op)
	chunkDone()
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
