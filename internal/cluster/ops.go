// The router's data plane behind server.Plane: every box is decomposed
// along the routing grid, the pieces fanned out to their replica sets
// (pieceGet/piecePut — the consistency machinery in router.go), and
// the results stitched or merged — reads into one box-local buffer,
// writes under per-piece generations, reductions as per-piece partials
// combined into one scalar so an aggregate over the whole cluster
// still costs the client a single round-trip. The HTTP surface over it
// (scan/reduce framing, cursors, validation) is server.FrontEnd.
package cluster

import (
	"context"
	"errors"

	"outcore/internal/keyhash"
	"outcore/internal/layout"
	"outcore/internal/server"
)

// ReadBox implements server.Plane: the box is read through the
// replicated plane and lent to render; a nil render probes the
// replicas' generations and reads no tile.
func (r *Router) ReadBox(_ context.Context, a server.Array, box layout.Box,
	render func([]float64, uint64) []byte) ([]byte, uint64, error) {
	if render == nil {
		gen, err := r.boxGen(a.Name, box)
		return nil, gen, r.failed(err)
	}
	r.met.gets.Inc()
	data, gen, err := r.boxGet(a, box)
	if err != nil {
		return nil, 0, r.failed(err)
	}
	return render(data, gen), gen, nil
}

// WriteBox implements server.Plane. The router mints the generations
// its replicas order writes by, so a caller's gen is ignored and the
// minted one always reported.
func (r *Router) WriteBox(_ context.Context, a server.Array, box layout.Box, data []float64, _ uint64) (uint64, bool, error) {
	r.met.puts.Inc()
	gen, err := r.boxPut(a.Name, box, data)
	return gen, false, r.failed(err)
}

// boxGet reads one request box through the replicated plane: grid
// decomposition, freshest-replica reads, stitching.
func (r *Router) boxGet(a server.Array, box layout.Box) ([]float64, uint64, error) {
	var one [1]layout.Box
	pieces := gridTiles(one[:0], box, r.opts.TileDim)
	if len(pieces) == 1 {
		return r.pieceGet(a, pieces[0])
	}
	out := make([]float64, box.Size())
	var maxGen uint64
	for _, piece := range pieces {
		data, gen, err := r.pieceGet(a, piece)
		if err != nil {
			return nil, 0, err
		}
		if gen > maxGen {
			maxGen = gen
		}
		server.CopyRegion(out, box, data, piece, piece)
	}
	return out, maxGen, nil
}

// boxGen reports the highest generation over a request box's pieces.
func (r *Router) boxGen(name string, box layout.Box) (uint64, error) {
	var one [1]layout.Box
	var maxGen uint64
	for _, piece := range gridTiles(one[:0], box, r.opts.TileDim) {
		gen, err := r.pieceGen(name, piece)
		if err != nil {
			return 0, err
		}
		maxGen = max(maxGen, gen)
	}
	return maxGen, nil
}

// boxPut writes one request box through the replicated plane,
// returning the highest generation assigned; it fails when some piece
// missed its write quorum.
func (r *Router) boxPut(name string, box layout.Box, data []float64) (uint64, error) {
	var one [1]layout.Box
	pieces := gridTiles(one[:0], box, r.opts.TileDim)
	var maxGen uint64
	for _, piece := range pieces {
		pdata := data
		if len(pieces) > 1 {
			pdata = make([]float64, piece.Size())
			server.CopyRegion(pdata, piece, data, box, piece)
		}
		gen, err := r.piecePut(name, piece, pdata)
		if err != nil {
			return 0, err
		}
		if gen > maxGen {
			maxGen = gen
		}
	}
	return maxGen, nil
}

// ReduceBox implements server.Plane by pushing the fold down twice:
// the client sends one request, the router sends one reduce per grid
// piece to a live replica, and only scalars travel back up. Partials
// combine in row-major piece order; a cluster sum's grouping therefore
// differs from a single node's element-order fold by float
// associativity (min/max/count are exact), which is the documented
// contract.
func (r *Router) ReduceBox(_ context.Context, a server.Array, box layout.Box, op string) (float64, int64, error) {
	fold := server.NewFold(op)
	for _, piece := range gridTiles(nil, box, r.opts.TileDim) {
		value, n, err := r.pieceReduce(a.Name, piece, op)
		if err != nil {
			return 0, 0, r.failed(err)
		}
		fold.Merge(value, n)
	}
	return fold.Value(), fold.Count, nil
}

// pieceReduce folds one grid piece on a replica: replicas are tried in
// rendezvous rank order and the first live answer wins (read-one — the
// same availability stance as pieceGet, without its freshness
// comparison; a reduce against a diverged replica set is eventually
// consistent, converging once hints drain and read-repair runs).
func (r *Router) pieceReduce(name string, piece layout.Box, op string) (float64, int64, error) {
	var kb [keyhash.StackBytes]byte
	var rb [MaxReplicas]*member
	_, sum := routeKey(kb[:0], name, piece, r.opts.TileDim)
	var hardErr error
	for _, m := range r.replicasFor(rb[:0], sum) {
		if m.down.Load() {
			continue
		}
		value, count, err := m.client.Reduce(name, piece, op)
		if err != nil {
			if errors.Is(err, ErrUnavailable) {
				r.markDown(m)
				continue
			}
			hardErr = err
			continue
		}
		return value, count, nil
	}
	if hardErr != nil {
		return 0, 0, hardErr
	}
	return 0, 0, ErrUnavailable
}
