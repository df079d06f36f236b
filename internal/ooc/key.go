package ooc

import (
	"outcore/internal/keyhash"
	"outcore/internal/layout"
)

// TileKey canonically identifies a cached tile: the array name plus the
// clipped tile rectangle. Two (name, box) pairs map to the same key iff
// the name and every box bound are equal; the encoding (shared with the
// cluster router via internal/keyhash) length-prefixes the name so that
// names containing digits, commas or brackets cannot collide with the
// coordinate section.
type TileKey string

// tileKeyStackBytes sizes the stack buffers hot paths build key bytes
// in. See keyhash.StackBytes.
const tileKeyStackBytes = keyhash.StackBytes

// appendTileKey appends the canonical key bytes for (name, box) to
// dst. The encoding is shared by the cache map and the cluster
// router's rendezvous placement — both via internal/keyhash, so router
// and engine provably agree; tileKey wraps it when a materialized
// TileKey is needed, while the hot path (cache-hit Acquire) builds the
// bytes in a stack buffer and never allocates.
func appendTileKey(dst []byte, name string, box layout.Box) []byte {
	return keyhash.AppendKey(dst, name, box)
}

// tileKey encodes (name, box) into its canonical key.
func tileKey(name string, box layout.Box) TileKey {
	return TileKey(keyhash.AppendKey(make([]byte, 0, len(name)+16+8*len(box.Lo)), name, box))
}
