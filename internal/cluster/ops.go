// The router's data plane behind server.Plane: every box is decomposed
// along the routing grid, the pieces fanned out to their replica sets
// (pieceGet/piecePut — the consistency machinery in router.go), and
// the results stitched or merged — reads into one box-local buffer,
// writes under per-piece generations, reductions as per-piece partials
// combined into one scalar so an aggregate over the whole cluster
// still costs the client a single round-trip. The HTTP surface over it
// (batch/scan/reduce framing, cursors, validation) is server.FrontEnd.
package cluster

import (
	"context"
	"errors"

	"outcore/internal/keyhash"
	"outcore/internal/layout"
	"outcore/internal/server"
)

// ReadBox implements server.Plane: the box is read through the
// replicated plane and lent to render. The router holds no engine, so
// a paced stream's admission slot protects nothing here and goes back
// at its first read (server.ReleaseAdmissionEarly).
func (r *Router) ReadBox(ctx context.Context, a server.Array, box layout.Box, _ string,
	render func([]float64, uint64) []byte) ([]byte, uint64, bool, error) {
	server.ReleaseAdmissionEarly(ctx)
	r.met.gets.Inc()
	data, gen, err := r.boxGet(server.TenantFrom(ctx), a, box)
	if err != nil {
		return nil, 0, false, r.failed(err)
	}
	return render(data, gen), gen, false, nil
}

// WriteBox implements server.Plane. The router mints the generations
// its replicas order writes by, so a caller's gen is ignored and the
// minted one always reported.
func (r *Router) WriteBox(ctx context.Context, a server.Array, box layout.Box, data []float64, _ uint64) (uint64, bool, error) {
	r.met.puts.Inc()
	gen, err := r.boxPut(server.TenantFrom(ctx), a.Name, box, data)
	return gen, false, r.failed(err)
}

// boxGet reads one request box through the replicated plane: grid
// decomposition, freshest-replica reads, stitching.
func (r *Router) boxGet(tenant string, a server.Array, box layout.Box) ([]float64, uint64, error) {
	pieces := gridTiles(box, r.opts.TileDim)
	if len(pieces) == 1 {
		return r.pieceGet(tenant, a, pieces[0])
	}
	out := make([]float64, box.Size())
	var maxGen uint64
	for _, piece := range pieces {
		data, gen, err := r.pieceGet(tenant, a, piece)
		if err != nil {
			return nil, 0, err
		}
		if gen > maxGen {
			maxGen = gen
		}
		copyRegion(out, box, data, piece, piece)
	}
	return out, maxGen, nil
}

// boxPut writes one request box through the replicated plane,
// returning the highest generation assigned; it fails when some piece
// missed its write quorum.
func (r *Router) boxPut(tenant, name string, box layout.Box, data []float64) (uint64, error) {
	pieces := gridTiles(box, r.opts.TileDim)
	var maxGen uint64
	for _, piece := range pieces {
		pdata := data
		if len(pieces) > 1 {
			pdata = make([]float64, piece.Size())
			copyRegion(pdata, piece, data, box, piece)
		}
		gen, err := r.piecePut(tenant, name, piece, pdata)
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
func (r *Router) ReduceBox(ctx context.Context, a server.Array, box layout.Box, op string) (float64, int64, error) {
	tenant := server.TenantFrom(ctx)
	fold := server.NewFold(op)
	for _, piece := range gridTiles(box, r.opts.TileDim) {
		value, n, err := r.pieceReduce(tenant, a.Name, piece, op)
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
func (r *Router) pieceReduce(tenant, name string, piece layout.Box, op string) (float64, int64, error) {
	key := tileKeyOf(name, routingTile(piece, r.opts.TileDim))
	var hardErr error
	for _, m := range r.replicasFor(keyhash.Bytes([]byte(key))) {
		if m.down.Load() {
			continue
		}
		value, count, err := m.client.ForTenant(tenant).Reduce(name, piece, op)
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
