package exp

import (
	"fmt"
	"strings"

	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/ooc"
)

// BlockedRow compares tile-read costs under a blocked file layout
// against row- and column-major for square tiles of the given size.
type BlockedRow struct {
	Tile     int64
	RowCalls int64
	ColCalls int64
	// BlockedCalls uses blocks matched to the tile size: an aligned tile
	// is exactly one contiguous run.
	BlockedCalls int64
}

// BlockedRows is the blocked-layout ablation's table.
type BlockedRows []BlockedRow

// Render formats the table for occbench.
func (rows BlockedRows) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Blocked layouts: I/O calls to sweep all aligned BxB tiles\n%-6s %12s %12s %12s\n",
		"B", "row-major", "col-major", "blocked(B)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %12d %12d %12d\n", r.Tile, r.RowCalls, r.ColCalls, r.BlockedCalls)
	}
	return b.String()
}

// BlockedAblation quantifies Figure 2's last layout family: blocked
// layouts make aligned square tiles file-contiguous, which neither
// canonical layout can. The paper's method "as it is can be used for
// determining optimal storage of blocks in file with respect to each
// other"; this experiment shows what the blocks themselves buy.
func BlockedAblation(n int64, tiles []int64) (BlockedRows, error) {
	if len(tiles) == 0 {
		tiles = []int64{8, 16, 32}
	}
	meta := ir.NewArray("A", n, n)
	var rows BlockedRows
	for _, b := range tiles {
		if n%b != 0 {
			return nil, fmt.Errorf("exp: tile %d does not divide array extent %d", b, n)
		}
		row := BlockedRow{Tile: b}
		for _, tc := range []struct {
			l     *layout.Layout
			calls *int64
		}{
			{layout.RowMajor(n, n), &row.RowCalls},
			{layout.ColMajor(n, n), &row.ColCalls},
			{layout.Blocked(n, n, b, b), &row.BlockedCalls},
		} {
			d := ooc.NewDisk(0).NoBacking()
			arr, err := d.CreateArray(meta, tc.l)
			if err != nil {
				return nil, err
			}
			// Sweep all aligned b x b tiles.
			for i := int64(0); i < n; i += b {
				for j := int64(0); j < n; j += b {
					arr.TouchRead(layout.NewBox([]int64{i, j}, []int64{i + b, j + b}))
				}
			}
			*tc.calls = d.Stats.ReadCalls
		}
		rows = append(rows, row)
	}
	return rows, nil
}
