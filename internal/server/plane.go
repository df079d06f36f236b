package server

import (
	"context"
	"fmt"

	"outcore/internal/layout"
)

// Plane is the storage side of the serving stack: everything the HTTP
// front end (FrontEnd) needs from "where the tiles live", and nothing
// about HTTP. Two planes exist — the local engine behind occd
// (enginePlane) and the cluster fan-out behind occrouter
// (cluster.Router) — and the front end serves either without knowing
// which: what differs between the daemons (the tile lock on a node;
// minted generations, quorums, hints and per-piece reduce partials on
// the router) is behaviour behind these methods. Concurrent reads of
// one cold tile share one backend read in the engine underneath
// (ooc.Engine.Acquire), not here.
//
// Boxes arrive validated and clipped to the array; element buffers are
// box-local row-major. The context carries the request's cancellation.
type Plane interface {
	// Lookup returns the catalog row for name.
	Lookup(name string) (Array, bool)
	// List returns every catalog row, sorted by name.
	List() []Array
	// Create adds a validated array to the catalog.
	Create(ctx context.Context, a Array) error

	// ReadBox lends the box's elements and write generation to render —
	// valid only during the call, so a node renders straight from the
	// pinned tile — and returns what render returned. A nil render asks
	// for the generation alone: the plane reads no tile.
	ReadBox(ctx context.Context, a Array, box layout.Box,
		render func(data []float64, gen uint64) []byte) (out []byte, gen uint64, err error)
	// WriteBox writes data over the box. A non-zero gen gates the write
	// on the caller's generation (last writer wins per cell); a plane
	// that mints its own generations ignores it. stored is the
	// generation now recorded for the box (0: none); stale reports that
	// newer writes superseded every cell.
	WriteBox(ctx context.Context, a Array, box layout.Box, data []float64, gen uint64) (stored uint64, stale bool, err error)
	// ReduceBox folds the box with op (one of reduceOps) plane-side.
	ReduceBox(ctx context.Context, a Array, box layout.Box, op string) (value float64, count int64, err error)

	// Stats builds the /v1/stats document around the front end's block.
	Stats(front FrontStats) any
	// Status maps an error one of the methods above returned to the
	// HTTP status and message the client sees.
	Status(err error) (code int, msg string)
}

// Array is one catalog row: what the front end validates boxes against
// and plans scans from.
type Array struct {
	Name   string
	Dims   []int64
	Layout *layout.Layout
}

// ArrayInfo is the wire form of a catalog row (GET/POST /v1/arrays) —
// one type for node listings, router listings and the router's catalog
// recovery from its nodes, so the layout survives every hop.
type ArrayInfo struct {
	Name   string  `json:"name"`
	Dims   []int64 `json:"dims"`
	Elems  int64   `json:"elems"`
	Layout string  `json:"layout,omitempty"`
}

// Info renders the row's wire form. The layout travels as the tag the
// create API accepts: "col", or nothing for the row-major default;
// layouts the API cannot create (occd -kernel arrays) travel by name.
func (a Array) Info() ArrayInfo {
	elems := int64(1)
	for _, d := range a.Dims {
		elems *= d
	}
	info := ArrayInfo{Name: a.Name, Dims: a.Dims, Elems: elems}
	switch {
	case a.Layout.Equal(layout.RowMajor(a.Dims...)):
	case a.Layout.Equal(layout.ColMajor(a.Dims...)):
		info.Layout = "col"
	default:
		info.Layout = a.Layout.Name()
	}
	return info
}

// Array rebuilds the catalog row from its wire form.
func (i ArrayInfo) Array() (Array, error) {
	var l *layout.Layout
	switch i.Layout {
	case "", "row":
		l = layout.RowMajor(i.Dims...)
	case "col":
		l = layout.ColMajor(i.Dims...)
	default:
		return Array{}, fmt.Errorf("unknown layout %q (row, col)", i.Layout)
	}
	return Array{Name: i.Name, Dims: i.Dims, Layout: l}, nil
}

// FrontStats is the front end's block of /v1/stats — the keys occd and
// occrouter share. Planes embed it in their Stats document.
type FrontStats struct {
	Requests      int64    `json:"requests"`
	RejectedQueue int64    `json:"rejected_queue"`
	Inflight      int64    `json:"inflight"`
	Queued        int64    `json:"queued"`
	Draining      bool     `json:"draining"`
	Ops           OpsStats `json:"ops"`

	// Client-edge tile payload bytes: logical, and as sent or received
	// after x-ooc-gorilla negotiation.
	WireRawBytes int64 `json:"wire_raw_bytes"`
	WireBytes    int64 `json:"wire_bytes"`
}

// OpsStats is the scan/reduce scorecard block of /v1/stats.
type OpsStats struct {
	ScanRequests   int64 `json:"scan_requests"`
	ScanChunks     int64 `json:"scan_chunks"`
	ScanResumes    int64 `json:"scan_resumes"`
	ReduceRequests int64 `json:"reduce_requests"`
	ReduceElems    int64 `json:"reduce_elems"`
}
