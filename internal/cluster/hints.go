package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"outcore/internal/layout"
)

// hint is one write a down replica owes: replay PutTile(name, box,
// data, gen) when the node returns. The generation makes replay safe
// in any order against any interleaving of live writes — the node
// applies a hint only if nothing newer landed on the box since.
type hint struct {
	seq  uint64
	name string
	box  layout.Box
	gen  uint64
	data []float64
}

// hintStore keeps one FIFO hint queue per storage node, durably when a
// directory is configured. Durability uses the WAL record discipline:
// each enqueued hint is appended as a CRC-32C (Castagnoli) framed,
// sequence-numbered record and fsynced before it counts toward a write
// quorum; reload scans the log sequentially and cuts the tail at the
// first short, corrupt, or sequence-regressing record — a torn append
// loses only the hint that was never acknowledged. A drain replaces the
// log whole (see rewriteLocked), so a crash never shortens it.
type hintStore struct {
	dir string // "" = in-memory only

	mu sync.Mutex
	q  map[string]*hintQueue
}

// hintQueue is one node's pending hints plus its durable log.
type hintQueue struct {
	hints    []hint
	seq      uint64 // next record sequence
	f        *os.File
	draining bool // a Drain snapshot is being delivered off-lock
}

var hintCRC = crc32.MakeTable(crc32.Castagnoli)

func newHintStore(dir string) (*hintStore, error) {
	hs := &hintStore{dir: dir, q: map[string]*hintQueue{}}
	if dir == "" {
		return hs, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("hint dir: %w", err)
	}
	// Reload every surviving queue so hints owed from before a router
	// restart still drain.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("hint dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "hints-") && strings.HasSuffix(name, ".log.tmp") {
			// A rewrite that crashed before its rename: the log it was
			// to replace is intact beside it.
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("hint dir: %w", err)
			}
			continue
		}
		if !strings.HasPrefix(name, "hints-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		node := strings.TrimSuffix(strings.TrimPrefix(name, "hints-"), ".log")
		if node == "" {
			continue
		}
		q, err := hs.openQueue(node)
		if err != nil {
			return nil, err
		}
		hs.q[node] = q
	}
	return hs, nil
}

// path names node's hint log.
func (hs *hintStore) path(node string) string {
	return filepath.Join(hs.dir, "hints-"+node+".log")
}

// openQueue opens (creating if needed) node's durable queue and
// replays its surviving records.
func (hs *hintStore) openQueue(node string) (*hintQueue, error) {
	f, err := os.OpenFile(hs.path(node), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("hint log %s: %w", node, err)
	}
	raw, err := os.ReadFile(hs.path(node))
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("hint log %s: %w", node, err)
	}
	q := &hintQueue{f: f}
	off := 0
	for {
		h, n, ok := decodeHint(raw[off:])
		if !ok {
			break // torn or corrupt tail: everything after is discarded
		}
		if len(q.hints) > 0 && h.seq <= q.hints[len(q.hints)-1].seq {
			break // sequence regressed: stale bytes past a truncation point
		}
		q.hints = append(q.hints, h)
		q.seq = h.seq + 1
		off += n
	}
	// Drop the torn tail so later appends extend a clean log.
	if off < len(raw) {
		if err := f.Truncate(int64(off)); err != nil {
			f.Close()
			return nil, fmt.Errorf("hint log %s: truncating torn tail: %w", node, err)
		}
		if _, err := f.Seek(int64(off), 0); err != nil {
			f.Close()
			return nil, err
		}
	} else if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, err
	}
	return q, nil
}

// encodeHint frames one record:
//
//	u32 crc (castagnoli, over everything after this field)
//	u32 len (bytes after this field)
//	u64 seq, u64 gen
//	u16 nameLen, name
//	u16 rank, rank×u64 lo, rank×u64 hi
//	u32 elems, elems×u64 payload
func encodeHint(h hint) []byte {
	rank := len(h.box.Lo)
	n := 8 + 8 + 2 + len(h.name) + 2 + 16*rank + 4 + 8*len(h.data)
	buf := make([]byte, 8+n)
	le := binary.LittleEndian
	le.PutUint32(buf[4:], uint32(n))
	p := 8
	le.PutUint64(buf[p:], h.seq)
	p += 8
	le.PutUint64(buf[p:], h.gen)
	p += 8
	le.PutUint16(buf[p:], uint16(len(h.name)))
	p += 2
	p += copy(buf[p:], h.name)
	le.PutUint16(buf[p:], uint16(rank))
	p += 2
	for _, v := range h.box.Lo {
		le.PutUint64(buf[p:], uint64(v))
		p += 8
	}
	for _, v := range h.box.Hi {
		le.PutUint64(buf[p:], uint64(v))
		p += 8
	}
	le.PutUint32(buf[p:], uint32(len(h.data)))
	p += 4
	for _, v := range h.data {
		le.PutUint64(buf[p:], math.Float64bits(v))
		p += 8
	}
	le.PutUint32(buf, crc32.Checksum(buf[4:], hintCRC))
	return buf
}

// decodeHint reads one record from the head of raw, reporting the
// bytes consumed; ok=false means a short, corrupt, or malformed record
// (a torn tail, from the reload loop's point of view).
func decodeHint(raw []byte) (h hint, n int, ok bool) {
	le := binary.LittleEndian
	if len(raw) < 8 {
		return h, 0, false
	}
	crc := le.Uint32(raw)
	bodyLen := int(le.Uint32(raw[4:]))
	if bodyLen < 24 || len(raw) < 8+bodyLen {
		return h, 0, false
	}
	if crc32.Checksum(raw[4:8+bodyLen], hintCRC) != crc {
		return h, 0, false
	}
	p := 8
	h.seq = le.Uint64(raw[p:])
	p += 8
	h.gen = le.Uint64(raw[p:])
	p += 8
	nameLen := int(le.Uint16(raw[p:]))
	p += 2
	if p+nameLen+2 > 8+bodyLen {
		return h, 0, false
	}
	h.name = string(raw[p : p+nameLen])
	p += nameLen
	rank := int(le.Uint16(raw[p:]))
	p += 2
	if rank < 1 || p+16*rank+4 > 8+bodyLen {
		return h, 0, false
	}
	lo := make([]int64, rank)
	hi := make([]int64, rank)
	for d := 0; d < rank; d++ {
		lo[d] = int64(le.Uint64(raw[p:]))
		p += 8
	}
	for d := 0; d < rank; d++ {
		hi[d] = int64(le.Uint64(raw[p:]))
		p += 8
	}
	h.box = layout.NewBox(lo, hi)
	elems := int(le.Uint32(raw[p:]))
	p += 4
	if p+8*elems != 8+bodyLen {
		return h, 0, false
	}
	h.data = make([]float64, elems)
	for i := range h.data {
		h.data[i] = math.Float64frombits(le.Uint64(raw[p:]))
		p += 8
	}
	return h, 8 + bodyLen, true
}

// Enqueue durably queues one write for node. The hint counts toward a
// write quorum only after this returns nil — with a directory, that
// means framed, appended, and fsynced.
func (hs *hintStore) Enqueue(node, name string, box layout.Box, gen uint64, data []float64) error {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	q := hs.q[node]
	if q == nil {
		if hs.dir == "" {
			q = &hintQueue{}
		} else {
			var err error
			if q, err = hs.openQueue(node); err != nil {
				return err
			}
		}
		hs.q[node] = q
	}
	h := hint{seq: q.seq, name: name, box: box, gen: gen, data: append([]float64(nil), data...)}
	if q.f != nil {
		if _, err := q.f.Write(encodeHint(h)); err != nil {
			return fmt.Errorf("hint append %s: %w", node, err)
		}
		if err := q.f.Sync(); err != nil {
			return fmt.Errorf("hint fsync %s: %w", node, err)
		}
	}
	q.seq++
	q.hints = append(q.hints, h)
	return nil
}

// Pending reports how many hints node is owed.
func (hs *hintStore) Pending(node string) int {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	if q := hs.q[node]; q != nil {
		return len(q.hints)
	}
	return 0
}

// PendingTotal sums pending hints across nodes.
func (hs *hintStore) PendingTotal() int {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	n := 0
	for _, q := range hs.q {
		n += len(q.hints)
	}
	return n
}

// errDrainBusy reports a Drain that found another drain of the same
// node still delivering; the caller retries on its next probe tick.
var errDrainBusy = errors.New("cluster: hint drain already in flight")

// Drain replays node's hints in FIFO order through deliver, stopping
// at the first failure (the node went away again; the remainder stays
// queued). It returns how many hints were delivered.
//
// Delivery is synchronous network replay — seconds, possibly — so the
// store lock is NOT held across it: the queue is snapshotted under the
// lock, delivered unlocked (writers keep enqueueing hints for other
// nodes AND for this one; piecePut hints inline on the request path
// and must never stall behind a drain), then the delivered prefix is
// dropped under the lock again. FIFO order makes the reconciliation
// exact: hints enqueued mid-drain append after the snapshot, so the
// snapshot is always still the queue's prefix. The per-queue draining
// flag keeps a second concurrent Drain of the same node from
// re-delivering the same snapshot.
func (hs *hintStore) Drain(node string, deliver func(hint) error) (int, error) {
	hs.mu.Lock()
	q := hs.q[node]
	if q == nil || len(q.hints) == 0 {
		hs.mu.Unlock()
		return 0, nil
	}
	if q.draining {
		hs.mu.Unlock()
		return 0, errDrainBusy
	}
	q.draining = true
	snap := append([]hint(nil), q.hints...)
	hs.mu.Unlock()

	delivered := 0
	var derr error
	for _, h := range snap {
		if derr = deliver(h); derr != nil {
			break
		}
		delivered++
	}

	hs.mu.Lock()
	defer hs.mu.Unlock()
	q.draining = false
	q.hints = q.hints[delivered:]
	if q.f != nil && delivered > 0 {
		if err := hs.rewriteLocked(node, q); err != nil && derr == nil {
			derr = err
		}
	}
	return delivered, derr
}

// rewriteLocked replaces node's log with q's remaining hints. Called
// with the store lock held, after a drain delivered a prefix. The new
// log is written to a sibling temp file, fsynced, renamed over the old
// one and the directory fsynced, so a crash leaves the old log or the
// new one whole — never a shortened log missing hints that already
// counted toward a write quorum.
func (hs *hintStore) rewriteLocked(node string, q *hintQueue) error {
	path := hs.path(node)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("hint log %s: %w", node, err)
	}
	var buf []byte
	for _, h := range q.hints {
		buf = append(buf, encodeHint(h)...)
	}
	if _, err = f.Write(buf); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("hint log %s: %w", node, err)
	}
	// The renamed file is the log now; later appends extend it.
	q.f.Close()
	q.f = f
	dir, err := os.Open(hs.dir)
	if err != nil {
		return fmt.Errorf("hint dir: %w", err)
	}
	defer dir.Close()
	return dir.Sync()
}

// Close fsyncs and closes every durable queue.
func (hs *hintStore) Close() error {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	var first error
	for node, q := range hs.q {
		if q.f == nil {
			continue
		}
		if err := q.f.Sync(); err != nil && first == nil {
			first = fmt.Errorf("hint log %s: %w", node, err)
		}
		if err := q.f.Close(); err != nil && first == nil {
			first = fmt.Errorf("hint log %s: %w", node, err)
		}
		q.f = nil
	}
	return first
}
