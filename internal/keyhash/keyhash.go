// Package keyhash is the pinned tile-key hash the whole plane agrees
// on: the canonical (array, box) key encoding, an FNV-1a pass over the
// key bytes, and a murmur3-fmix64 avalanche finalizer. The cluster
// router (internal/cluster) places tiles with it, and placement is an
// operational contract, so every layer that maps a tile to an owner
// must provably use this one function. The in-process tile engine
// (internal/ooc) names no owner and needs no encoding: it seeds its
// cache hash with String of the array name and mixes the box bounds in
// as integers, finishing with Fmix64.
//
// The hash is PINNED. Its outputs are part of the operational
// contract — a tile's owning storage node must never move
// across runs, processes, releases or machines while the member set
// is fixed — so any change to the key encoding, the FNV constants or
// the finalizer is a data-migration event, not a refactor. The pinned
// anchor tests in this package fail loudly on any drift.
package keyhash

import (
	"strconv"

	"outcore/internal/layout"
)

// StackBytes sizes the stack buffers hot paths build key bytes in:
// enough for the longest realistic name plus a rank-3 box of full
// int64 coordinates. Longer keys still work — append spills to the
// heap — they just cost the allocation the fast path avoids.
const StackBytes = 128

// AppendKey appends the canonical key bytes for (name, box) to dst.
// The encoding length-prefixes the name so that names containing
// digits, commas or brackets cannot collide with the coordinate
// section; two (name, box) pairs map to the same bytes iff the name
// and every box bound are equal. Hot paths pass a stack buffer
// (kb [StackBytes]byte; AppendKey(kb[:0], ...)) and never allocate.
func AppendKey(dst []byte, name string, box layout.Box) []byte {
	dst = strconv.AppendInt(dst, int64(len(name)), 10)
	dst = append(dst, ':')
	dst = append(dst, name...)
	dst = append(dst, '[')
	for d, lo := range box.Lo {
		if d > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, lo, 10)
	}
	dst = append(dst, ';')
	for d, hi := range box.Hi {
		if d > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, hi, 10)
	}
	return append(dst, ')')
}

// Bytes hashes arbitrary key bytes: FNV-1a, then Fmix64. FNV alone
// mixes its low bits poorly over the highly structured key family a
// tile grid produces (adjacent coordinates differ in one digit), and
// modulo reduction keeps only those bits; the avalanche finalizer
// spreads every input bit across the whole word first, which is what
// makes the placement balance the property tests pin actually hold.
func Bytes(key []byte) uint64 {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211 // FNV-64 prime
	}
	return Fmix64(h)
}

// String hashes a string key with the same construction as Bytes.
func String(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return Fmix64(h)
}

// Fmix64 is the murmur3 64-bit avalanche finalizer: a bijective mix
// whose output bits each depend on every input bit.
func Fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Sum returns the pinned 64-bit hash of (name, box), building the key
// bytes in a stack buffer so hashing a tile never allocates.
func Sum(name string, box layout.Box) uint64 {
	var kb [StackBytes]byte
	return Bytes(AppendKey(kb[:0], name, box))
}

// Rendezvous scores (keySum, memberSum) for highest-random-weight
// placement: each member's score for a key is a pure mix of the two
// hashes, so ranking members by score gives every key an ordered,
// stable preference list — and removing one member reshuffles only
// the keys it owned, unlike modulo placement. keySum is Sum(name,
// box); memberSum is String(memberID).
func Rendezvous(keySum, memberSum uint64) uint64 {
	// Multiply-xor before the finalizer: plain xor of two fmix64
	// outputs is bijective in either argument but correlates scores
	// across members sharing high bits; the odd-constant multiply
	// decorrelates them and Fmix64 avalanches the result.
	return Fmix64(keySum ^ (memberSum * 0x9e3779b97f4a7c15))
}
