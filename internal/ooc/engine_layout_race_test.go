package ooc

import (
	"sync"
	"testing"

	"outcore/internal/ir"
	"outcore/internal/layout"
)

// TestEngineServesExoticLayoutsConcurrently serves the non-permutation
// layouts from several goroutines through one engine, starting on a
// layout no call has touched yet: whatever tables Runs/Segments/Offset
// need must be safe to reach from concurrent ReadTiles that hold only
// the array's shared lock. Run under -race: concurrency on the exotic
// layouts is what the serving tests never touch.
func TestEngineServesExoticLayoutsConcurrently(t *testing.T) {
	const n, m, edge, workers, rounds = 16, 12, 4, 6, 8
	kinds := map[string]func() *layout.Layout{
		"diagonal":      func() *layout.Layout { return layout.Diagonal(n, m) },
		"anti-diagonal": func() *layout.Layout { return layout.AntiDiagonal(n, m) },
		"blocked":       func() *layout.Layout { return layout.Blocked(n, m, 5, 3) },
		"general":       func() *layout.Layout { return layout.General(n, m, []int64{1, 2}) },
	}
	for name, fresh := range kinds {
		t.Run(name, func(t *testing.T) {
			// The oracle is a second instance, used on this goroutine only:
			// element (i,j) holds its own file offset.
			oracle := fresh()
			var boxes []layout.Box
			var want [][]float64
			for i := int64(0); i < n; i += edge {
				for j := int64(0); j < m; j += edge {
					b := box2(i, j, i+edge, j+edge)
					w := make([]float64, 0, edge*edge)
					for x := b.Lo[0]; x < b.Hi[0]; x++ {
						for y := b.Lo[1]; y < b.Hi[1]; y++ {
							w = append(w, float64(oracle.Offset([]int64{x, y})))
						}
					}
					boxes, want = append(boxes, b), append(want, w)
				}
			}
			raw := make([]float64, n*m)
			for off := range raw {
				raw[off] = float64(off)
			}
			for round := 0; round < rounds; round++ {
				d := NewDisk(0)
				arr, err := d.CreateArray(ir.NewArray("A", n, m), fresh())
				if err != nil {
					t.Fatal(err)
				}
				if err := arr.backend.WriteAt(raw, 0); err != nil {
					t.Fatal(err)
				}
				e := NewEngine(d, EngineOptions{CacheTiles: 2})
				start := make(chan struct{})
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						<-start
						for k := range boxes {
							bi := (k + w*len(boxes)/workers) % len(boxes)
							h, err := e.Acquire(arr, boxes[bi])
							if err != nil {
								t.Error(err)
								return
							}
							got := h.Tile().Data()
							for x := range got {
								if got[x] != want[bi][x] {
									t.Errorf("box %v element %d = %v, want %v", boxes[bi], x, got[x], want[bi][x])
									break
								}
							}
							e.Release(h, false)
						}
					}(w)
				}
				close(start)
				wg.Wait()
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
