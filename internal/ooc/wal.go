package ooc

// Per-disk write-ahead logging: the durability half of the paper's
// "restructure when bytes hit disk" argument, applied to acknowledged
// writes. Without a WAL, a durable PUT pays a synchronous write-back
// plus an fsync of the array file it happens to land in —
// a seek-heavy, per-writer cost. With the WAL enabled every tile
// write-back is first appended as ONE checksummed redo record to one
// sequential log and then written through to the array backend; an
// acknowledgement only needs the LOG to be durable, and concurrent
// writers landing within one commit round share a single log fsync
// (group commit).
//
// The array (stripe) backends are only forced durable by a
// checkpoint — the compaction step: it syncs every member backend
// (all applied records are write-through, so the stripes already
// hold their bytes — the OS page cache is the apply buffer, and the
// checkpoint loop is what forces it down and truncates), bumps the
// log's epoch and resets its head. A crash between checkpoints loses
// nothing acknowledged: ReplayWAL scans the log's surviving tail,
// discards torn or stale-epoch records (CRC + epoch + monotone
// sequence framing) and re-applies the survivors over the stripe
// bytes — recovering exactly the state the write-through path had
// built.
//
// # What is logged
//
// The logged unit is the tile write (Tile.WriteTile — every engine
// write-back): its runs are gathered once, in file order, and framed as
// one record, so a write moves each byte once per destination (log +
// stripe) and costs one record buffer and one checksum however many
// runs the layout cuts the tile into. Replay is therefore TILE-ATOMIC:
// a tear anywhere in the append discards the whole record, and recovery
// shows the old tile or the new one, never some of the new tile's runs.
//
// A plain Backend.WriteAt on a WAL'd array — the set-up helpers
// Array.Fill, FromStore and SetAt — is the UNLOGGED bulk path: it
// writes through and marks the set bypassed, so the next commit
// escalates to a checkpoint (member syncs) before acknowledging
// anything; until then the write promises nothing. The same escalation
// covers a tile record too large to ever fit the log.
//
// # Ordering
//
// One mutex (walSet.mu) makes {allocate seq, append record, write
// through} a single atomic step, so the log's record order IS the
// order writes reached the array backends, and replaying the log front
// to back reconstructs the same byte state. (Appenders serialise on
// that mutex for the whole step, which is why there is exactly one
// log: a second one could not be appended to concurrently.)
//
// # Record framing
//
// The log stores 8-byte words carried as float64 bit patterns (the
// Backend element type); all packing goes through math.Float64bits /
// Float64frombits, so no floating-point operation ever touches a
// word and every bit pattern round-trips through memory and file
// backends exactly. Word 0 of the log is its header: the current
// epoch. Each record is:
//
//	w0  seq    — record sequence number, > 0 (a zeroed log scans empty)
//	w1  epoch  — must match the log header; stale epochs are pre-truncation garbage
//	w2  comp<<63 | format<<56 | nameLen<<48 | dataLen
//	w3  nRuns  — run-list entries, > 0
//	w4  crc32c — over every other word's little-endian bytes
//	w5  gen    — reserved for the write's generation; written 0
//	...        — ceil(nameLen/8) words of array name
//	...        — nRuns run-list entries of four words: off, len, stride, count
//	...        — dataLen data words
//
// The run list is PHYSICAL — element offsets in the array's backend —
// so replay needs the log and the member backends only, never a
// layout. An entry is an arithmetic progression: count runs of len
// elements, the i-th at off + i*stride. A box under a permutation
// layout is one entry whatever its run count (a 32×32 column-major tile
// costs 6 + 1 + 4 words around its 1024); irregular layouts degrade to
// count-1 entries. The data words are the runs' elements back to back
// in list order, and the list must tile them exactly.
//
// A record is accepted only when it fits the log, its CRC matches,
// its epoch is current, and its seq exceeds the previous record's —
// so any torn tail (faultfs writes strict element prefixes) decodes
// to a strict prefix of the appended records and the tear is
// discarded, never misread.
//
// The comp bit — the top bit of w2 — is reserved; set means refused.
// Builds with WAL compression set it on a record whose data words carry
// a codec frame instead of raw values. This build writes it 0 and
// replays no frame: a kept log whose scan stops at a valid record
// carrying it is REFUSED (ensureLog), for the same reason as a per-run
// log below.
//
// # Format tag
//
// format (seven bits of w2) is 1. Builds before the tile record wrote
// one five-word-header record per RUN with those bits zero — they were
// the top of a 15-bit nameLen, so such a build reads a tagged record as
// a 256+ byte name and rejects it. This build rejects every tag but its
// own, and for tag 0 goes further: a kept log whose head holds a valid
// per-run record is REFUSED (ensureLog), because scanning on would take
// it for a torn tail and append over acknowledged writes. An all-zero
// log, or one whose records a checkpoint retired, is adopted as empty.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"outcore/internal/layout"
	"outcore/internal/obs"
)

const (
	// walHeaderWords is the log header (the epoch word).
	walHeaderWords = 1
	// walRecHeaderWords is the fixed per-record header size.
	walRecHeaderWords = 6
	// walCRCWord is the header word holding the record's checksum.
	walCRCWord = 4
	// walRunWords is the size of one run-list entry.
	walRunWords = 4
	// walFormat tags the record format in the spare meta bits. Tag 0 is
	// the per-run format of earlier builds (see walLegacyHead).
	walFormat = 1
	// walLenMask extracts dataLen from the packed length word.
	walLenMask = (uint64(1) << 48) - 1
	// walMaxOff bounds run offsets and strides (sanity check while
	// scanning arbitrary bytes; keeps replay's offset arithmetic from
	// overflowing).
	walMaxOff = uint64(1) << 61
	// DefaultWALCapWords is the log capacity (1 Mi words = 8 MiB)
	// when WALOptions.CapWords is zero. Replay cost bounds the useful
	// size; an inline (stop-the-world) checkpoint when the log fills
	// bounds the ack-latency cost of setting it too small.
	DefaultWALCapWords = 1 << 20
)

var walCRCTable = crc32.MakeTable(crc32.Castagnoli)

// WALOptions configures Disk.EnableWAL.
type WALOptions struct {
	// CapWords is the log capacity in 8-byte words, header included
	// (default DefaultWALCapWords). An append that no longer fits
	// triggers an inline checkpoint; a record that could never fit an
	// empty log bypasses logging (write-through only, like the set-up
	// helpers' bulk writes) and forces the next commit to checkpoint
	// instead of fsyncing the log.
	CapWords int64
	// CheckpointEvery, when positive, runs a background compaction
	// loop: every tick with appended-but-uncompacted records syncs the
	// member backends and truncates the log, bounding replay time.
	// Keep zero for deterministic harness runs (the inline
	// full-log checkpoint still bounds the log).
	CheckpointEvery time.Duration
	// Obs registers the ooc_wal_* metric families.
	Obs *obs.Sink
}

func (o WALOptions) withDefaults() WALOptions {
	if o.CapWords <= 0 {
		o.CapWords = DefaultWALCapWords
	}
	if min := int64(walHeaderWords + walRecHeaderWords + 8); o.CapWords < min {
		o.CapWords = min
	}
	return o
}

// WALStats is the WAL scorecard (the /v1/stats "wal" block).
type WALStats struct {
	CapWords         int64   `json:"cap_words"`
	PendingWords     int64   `json:"pending_words"` // appended since the last checkpoint (replay depth)
	LastSeq          uint64  `json:"last_seq"`
	DurableSeq       uint64  `json:"durable_seq"`
	Appends          int64   `json:"appends"`
	AppendedWords    int64   `json:"appended_words"`
	Commits          int64   `json:"commits"`
	Fsyncs           int64   `json:"fsyncs"`
	FsyncBatch       float64 `json:"fsync_batch"` // commits amortized per log fsync
	Checkpoints      int64   `json:"checkpoints"`
	BypassWrites     int64   `json:"bypass_writes"` // unlogged write-throughs: bulk fills, records too large to log
	ReplayedRecords  int64   `json:"replayed_records"`
	DiscardedRecords int64   `json:"discarded_records"`
}

// walMetrics are the registry series an observed WAL feeds.
type walMetrics struct {
	appends     *obs.Counter
	words       *obs.Counter
	commits     *obs.Counter
	fsyncs      *obs.Counter
	checkpoints *obs.Counter
	bypass      *obs.Counter
	replayed    *obs.Counter
	discarded   *obs.Counter
	pending     *obs.Gauge
	batch       *obs.Histogram
}

// walLogName names the log ("__wal0.log" under a Dir): the leading
// underscores keep it out of any array namespace a client could
// create, and the index is the on-disk name every earlier build wrote.
const walLogName = "__wal0"

// walLog is the sequential log.
type walLog struct {
	back     Backend
	epoch    uint64
	head     int64 // next append offset, in words
	syncedTo int64 // head covered by the last successful log fsync
}

// walMember is one array backend under WAL protection: the backend
// walBackend writes through to and replay/checkpoint operate on.
type walMember struct {
	name  string
	inner Backend
}

// walSet is the per-disk WAL state: the log, the protected members,
// the sequence counter and the group-commit machinery.
type walSet struct {
	opts WALOptions

	mu       sync.Mutex  // orders {seq alloc, append, write-through}; guards all fields below
	log      *walLog     // nil until ensureLog opens it
	meta     Backend     // one-word checkpoint watermark (see checkpointLocked)
	members  []walMember // sorted by name (checkpoint sync order is deterministic)
	seq      uint64      // last allocated record sequence number
	bypassed bool        // an unlogged write-through happened; only a checkpoint can cover it
	c        walCounters

	durable atomic.Uint64 // highest seq known durable (log fsync or checkpoint)

	// Group commit: one leader runs a sync round at a time; waiters
	// re-check durability when the round ends.
	gcMu    sync.Mutex
	gcCond  *sync.Cond
	syncing bool

	met *walMetrics

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

type walCounters struct {
	appends, appendedWords       int64
	commits, fsyncs, checkpoints int64
	bypass                       int64
	replayed, discarded          int64
}

func newWALSet(o WALOptions) *walSet {
	ws := &walSet{opts: o.withDefaults()}
	ws.gcCond = sync.NewCond(&ws.gcMu)
	if o.Obs != nil {
		if reg := o.Obs.MetricsOf(); reg != nil {
			ws.met = &walMetrics{
				appends:     reg.Counter("ooc_wal_appends_total", "records appended to the write-ahead logs"),
				words:       reg.Counter("ooc_wal_appended_words_total", "8-byte words appended to the write-ahead logs"),
				commits:     reg.Counter("ooc_wal_commits_total", "group-commit rounds acknowledged"),
				fsyncs:      reg.Counter("ooc_wal_fsyncs_total", "log fsyncs issued by group commit"),
				checkpoints: reg.Counter("ooc_wal_checkpoints_total", "checkpoints: member backends synced and logs truncated"),
				bypass:      reg.Counter("ooc_wal_bypass_writes_total", "unlogged writes (bulk fills, records too large to log), applied write-through only"),
				replayed:    reg.Counter("ooc_wal_replayed_records_total", "records re-applied from surviving log tails"),
				discarded:   reg.Counter("ooc_wal_discarded_records_total", "torn or stale log tails discarded during replay"),
				pending:     reg.Gauge("ooc_wal_pending_words", "words appended since the last checkpoint (replay depth)"),
				batch: reg.Histogram("ooc_wal_commit_records",
					"records made durable per group-commit fsync round", obs.ExpBuckets(1, 2, 10)),
			}
		}
	}
	return ws
}

// ensureLog opens the log and watermark backends once, before the
// first array's backend, honoring the disk's dir/keep/wrap
// configuration.
func (ws *walSet) ensureLog(d *Disk) error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.log != nil {
		return nil
	}
	if d.dir != "" && d.keepExisting {
		// Builds that routed records across N logs left "__wal<i>.log",
		// i >= 1, behind. Their records would never be replayed here, so
		// acknowledged writes would silently vanish: refuse instead.
		if extra, _ := filepath.Glob(filepath.Join(d.dir, "__wal[1-9]*.log")); len(extra) > 0 {
			return fmt.Errorf("ooc: %s holds a multi-log WAL (%s) this build does not replay: "+
				"drain it with the build that wrote it (a clean shutdown checkpoints every log), "+
				"then remove those files", d.dir, strings.Join(extra, ", "))
		}
	}
	open := func(name string, words int64) (Backend, error) {
		var b Backend = newMemBackend(words)
		if d.dir != "" {
			fb, err := newFileBackend(filepath.Join(d.dir, name+".log"), words, d.keepExisting)
			if err != nil {
				return nil, fmt.Errorf("ooc: opening WAL file %s: %w", name, err)
			}
			b = fb
		}
		if d.wrapBackend != nil {
			b = d.wrapBackend(name, b)
		}
		return b, nil
	}
	// A kept log is read at its own size: resizing it to a smaller cap
	// first would cut off records no checkpoint has covered yet.
	logPath := filepath.Join(d.dir, walLogName+".log")
	size := ws.opts.CapWords
	if d.dir != "" && d.keepExisting {
		if info, err := os.Stat(logPath); err == nil {
			size = max(size, info.Size()/ElemSize)
		}
	}
	b, err := open(walLogName, size)
	if err != nil {
		return err
	}
	// A kept log carries an earlier life's epoch header and possibly a
	// surviving record tail. Adopt both NOW, not at replay: any append
	// stamped with a stale epoch would be discarded as pre-truncation
	// garbage by the next replay — an acked write lost — and appends
	// must land after the tail replay will apply, not over it. A fresh
	// log reads as zeros: epoch 0, empty tail.
	words := make([]float64, size)
	if err := b.ReadAt(words, 0); err != nil {
		return fmt.Errorf("ooc: reading WAL log header: %w", err)
	}
	lg := &walLog{back: b, epoch: math.Float64bits(words[0])}
	_, lg.head = walScan(words, lg.epoch)
	lg.syncedTo = lg.head
	// Scanning on would stop at a foreign record, call it a torn tail and
	// append over acknowledged writes: refuse instead.
	var foreign string
	switch {
	case lg.head == walHeaderWords && walLegacyHead(words, lg.epoch):
		foreign = "records in the per-run format of an earlier build"
	case walCompressedAt(words, lg.head, lg.epoch):
		foreign = "a compressed record, written by a build with WAL compression (occd -wal -compress)"
	}
	if foreign != "" {
		b.Close()
		return fmt.Errorf("ooc: WAL log %s holds %s, which this build does not replay: "+
			"drain it with the build that wrote it (a clean shutdown checkpoints), then reopen",
			logPath, foreign)
	}
	if lg.head > ws.opts.CapWords {
		b.Close()
		return fmt.Errorf("ooc: kept WAL log %s is %d words and its unreplayed records end at word %d, "+
			"past the requested cap of %d words: reopen with -wal-cap-words %d so replay keeps every record",
			logPath, size, lg.head, ws.opts.CapWords, size)
	}
	if size > ws.opts.CapWords {
		// The tail fits: shrink the log to the requested cap.
		if err := b.Close(); err != nil {
			return fmt.Errorf("ooc: closing WAL log %s to resize it: %w", logPath, err)
		}
		if lg.back, err = open(walLogName, ws.opts.CapWords); err != nil {
			return err
		}
	}
	// The checkpoint watermark: a single word (element-atomic under the
	// torn-write model), so a checkpoint can durably record how far the
	// stripes are authoritative before it truncates the log.
	if ws.meta, err = open("__walmeta", 1); err != nil {
		b.Close()
		return err
	}
	ws.log = lg
	return nil
}

// attach puts an array backend under WAL protection and returns the
// logging wrapper the array should use.
func (ws *walSet) attach(name string, inner Backend) Backend {
	ws.mu.Lock()
	i := sort.Search(len(ws.members), func(i int) bool { return ws.members[i].name >= name })
	ws.members = append(ws.members, walMember{})
	copy(ws.members[i+1:], ws.members[i:])
	ws.members[i] = walMember{name: name, inner: inner}
	ws.mu.Unlock()
	return &walBackend{ws: ws, name: name, inner: inner}
}

// pendingWordsLocked is the replay depth: words appended and not yet
// compacted away.
func (ws *walSet) pendingWordsLocked() int64 {
	if ws.log == nil {
		return 0
	}
	return ws.log.head - walHeaderWords
}

// lastSeq returns the most recently allocated sequence number.
func (ws *walSet) lastSeq() uint64 {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.seq
}

// commit is the group-committed durability point: it returns once
// every record appended before the call is durable (log fsync or
// checkpoint). One leader runs a sync round at a time; every other
// caller waits for the round and re-checks — so N writers landing
// within one round share its fsync, and writers arriving while a
// round's fsync is in flight are covered by the next round.
func (ws *walSet) commit() error {
	target := ws.lastSeq()
	// The durable sequence alone cannot satisfy a commit while an
	// unlogged (bypass) write-through is outstanding: its bytes are in
	// no log, so only a checkpoint's member syncs cover it. A bypass
	// write therefore disables the fast path until a round escalates.
	satisfied := func() bool {
		ws.mu.Lock()
		defer ws.mu.Unlock()
		return !ws.bypassed && ws.durable.Load() >= target
	}
	for {
		if satisfied() {
			return nil
		}
		ws.gcMu.Lock()
		if satisfied() {
			ws.gcMu.Unlock()
			return nil
		}
		if ws.syncing {
			ws.gcCond.Wait()
			ws.gcMu.Unlock()
			continue
		}
		ws.syncing = true
		ws.gcMu.Unlock()

		err := ws.leadRound()

		ws.gcMu.Lock()
		ws.syncing = false
		ws.gcCond.Broadcast()
		ws.gcMu.Unlock()
		if err != nil {
			return err
		}
	}
}

// leadRound runs one group-commit round: snapshot the frontier, fsync
// the log if it has uncovered words, and advance the durable sequence.
// A round that contains an unlogged (bypass) write-through cannot be
// covered by a log fsync and escalates to a full checkpoint.
func (ws *walSet) leadRound() error {
	ws.mu.Lock()
	upTo := ws.seq
	before := ws.durable.Load()
	escalate := ws.bypassed
	lg := ws.log
	head, epoch := lg.head, lg.epoch
	dirty := head > lg.syncedTo
	ws.mu.Unlock()

	if escalate {
		return ws.checkpoint()
	}

	var fsyncs int64
	if dirty {
		if err := lg.back.Sync(); err != nil {
			return err
		}
		fsyncs = 1
	}

	ws.mu.Lock()
	// A checkpoint may have truncated the log while the fsync was in
	// flight; the snapshot head then describes the PREVIOUS epoch's
	// words and advancing syncedTo with it would let the next commit
	// skip the fsync the new epoch still needs.
	if lg.epoch == epoch && lg.syncedTo < head {
		lg.syncedTo = head
	}
	ws.c.fsyncs += fsyncs
	ws.c.commits++
	if upTo > ws.durable.Load() {
		ws.durable.Store(upTo)
	}
	m := ws.met
	ws.mu.Unlock()
	if m != nil {
		m.fsyncs.Add(fsyncs)
		m.commits.Inc()
		if fsyncs > 0 && upTo > before {
			m.batch.Observe(float64(upTo - before))
		}
	}
	return nil
}

// checkpoint is the compaction step (see checkpointLocked).
func (ws *walSet) checkpoint() error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.checkpointLocked()
}

// checkpointLocked makes every applied record durable in the member
// (stripe) backends, durably records the watermark, then truncates
// the log by bumping its epoch header and resetting its head.
// Holding mu quiesces appenders, so the member syncs cover every
// appended record's write-through. A member sync or watermark error
// aborts before the truncation (the log still covers everything).
//
// The watermark is the step that makes truncation crash-safe: the
// epoch-header write below is NOT fsynced here (the next group
// commit covers it), so a power cut can revert it and leave the
// old records durable in the log — records now OLDER than the
// stripe bytes the member syncs just persisted. Replaying those over
// the stripes would roll acknowledged writes back. The durable
// watermark (one element-atomic word) tells replay how far the
// stripes are authoritative, so it discards every surviving record at
// or below it.
func (ws *walSet) checkpointLocked() error {
	lg := ws.log
	if lg == nil {
		return nil // no array created yet: nothing logged, nothing to compact
	}
	// Member syncs run sequentially in registration order: the fixed
	// backend-call schedule is what keeps fault-injection runs
	// replayable, and checkpoints are rare enough (cap-words pressure
	// or explicit compaction) that the summed fsyncs don't sit on the
	// ack path.
	for _, m := range ws.members {
		if err := m.inner.Sync(); err != nil {
			return fmt.Errorf("ooc: WAL checkpoint syncing %s: %w", m.name, err)
		}
	}
	upTo := ws.seq
	wm := [1]float64{math.Float64frombits(upTo)}
	if err := ws.meta.WriteAt(wm[:], 0); err != nil {
		return fmt.Errorf("ooc: WAL checkpoint watermark: %w", err)
	}
	if err := ws.meta.Sync(); err != nil {
		return fmt.Errorf("ooc: WAL checkpoint watermark sync: %w", err)
	}
	var truncErr error
	next := lg.epoch + 1
	hdr := [walHeaderWords]float64{math.Float64frombits(next)}
	if err := lg.back.WriteAt(hdr[:], 0); err != nil {
		truncErr = fmt.Errorf("ooc: WAL truncating %s: %w", walLogName, err)
	} else {
		lg.epoch = next
		lg.head = walHeaderWords
		// Force the next commit round to fsync the log even without new
		// records, so the new epoch header becomes durable promptly.
		lg.syncedTo = 0
	}
	ws.bypassed = false
	if upTo > ws.durable.Load() {
		ws.durable.Store(upTo)
	}
	ws.c.checkpoints++
	if m := ws.met; m != nil {
		m.checkpoints.Inc()
		m.pending.Set(float64(ws.pendingWordsLocked()))
	}
	return truncErr
}

// replay scans the log's surviving tail and re-applies the valid
// records, in log order, to the member backends — reconstructing
// exactly the write-through order. A record above the watermark whose
// array is not a member could not be applied, and the next checkpoint
// would drop it: replay then refuses before applying anything, naming
// those arrays, and leaves the log as it found it.
func (ws *walSet) replay() (WALReplay, error) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	var rep WALReplay
	var wm [1]float64
	if err := ws.meta.ReadAt(wm[:], 0); err != nil {
		return rep, fmt.Errorf("ooc: WAL replay reading watermark: %w", err)
	}
	watermark := math.Float64bits(wm[0])
	words := make([]float64, ws.opts.CapWords)
	if err := ws.log.back.ReadAt(words, 0); err != nil {
		return rep, fmt.Errorf("ooc: WAL replay reading %s: %w", walLogName, err)
	}
	// ensureLog already adopted this epoch and tail as the append point.
	recs, end := walScan(words, ws.log.epoch)
	byName := map[string]Backend{}
	for _, m := range ws.members {
		byName[m.name] = m.inner
	}
	var unknown []string
	for _, r := range recs {
		if _, ok := byName[r.name]; !ok && r.seq > watermark && !slices.Contains(unknown, r.name) {
			unknown = append(unknown, r.name)
		}
	}
	if len(unknown) > 0 {
		return rep, fmt.Errorf("ooc: WAL replay: acked records name arrays this open did not create (%s); "+
			"refusing to serve, since a checkpoint would drop them: re-create those arrays before replay, "+
			"or move the log (%s.log) aside to discard their writes", strings.Join(unknown, ", "), walLogName)
	}
	if end < int64(len(words)) && math.Float64bits(words[end]) != 0 {
		rep.Discarded++
	}
	for _, r := range recs {
		if r.seq <= watermark {
			// At or below the checkpoint watermark: the stripes already
			// hold this record durably (and possibly newer bytes at the
			// same offsets) — a stale tail from a truncation that never
			// reached the media. Applying it would roll the stripes back.
			rep.Discarded++
			continue
		}
		if err := walApply(byName[r.name], r.runs, r.data); err != nil {
			return rep, fmt.Errorf("ooc: WAL replay applying seq %d to %s: %w", r.seq, r.name, err)
		}
		ws.seq = max(ws.seq, r.seq)
		rep.Applied++
	}
	// Never re-allocate a sequence number the watermark covers: replay
	// after a later crash would discard such a record as stale.
	ws.seq = max(ws.seq, watermark)
	if ws.seq > ws.durable.Load() {
		ws.durable.Store(ws.seq)
	}
	ws.c.replayed += rep.Applied
	ws.c.discarded += rep.Discarded
	if m := ws.met; m != nil {
		m.replayed.Add(rep.Applied)
		m.discarded.Add(rep.Discarded)
		m.pending.Set(float64(ws.pendingWordsLocked()))
	}
	return rep, nil
}

// stats snapshots the scorecard.
func (ws *walSet) stats() *WALStats {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	s := &WALStats{
		CapWords:         ws.opts.CapWords,
		PendingWords:     ws.pendingWordsLocked(),
		LastSeq:          ws.seq,
		DurableSeq:       ws.durable.Load(),
		Appends:          ws.c.appends,
		AppendedWords:    ws.c.appendedWords,
		Commits:          ws.c.commits,
		Fsyncs:           ws.c.fsyncs,
		Checkpoints:      ws.c.checkpoints,
		BypassWrites:     ws.c.bypass,
		ReplayedRecords:  ws.c.replayed,
		DiscardedRecords: ws.c.discarded,
	}
	if s.Fsyncs > 0 {
		s.FsyncBatch = float64(s.Commits) / float64(s.Fsyncs)
	}
	return s
}

func (ws *walSet) startMaintainer() {
	if ws.opts.CheckpointEvery <= 0 {
		return
	}
	ws.stopCh = make(chan struct{})
	ws.wg.Add(1)
	go func() {
		defer ws.wg.Done()
		t := time.NewTicker(ws.opts.CheckpointEvery)
		defer t.Stop()
		for {
			select {
			case <-ws.stopCh:
				return
			case <-t.C:
				ws.mu.Lock()
				pending := ws.pendingWordsLocked() > 0 || ws.bypassed
				ws.mu.Unlock()
				if pending {
					_ = ws.checkpoint() // best effort; the inline full-log path retries
				}
			}
		}
	}()
}

func (ws *walSet) stopMaintainer() {
	if ws.stopCh == nil {
		return
	}
	ws.stopOnce.Do(func() { close(ws.stopCh) })
	ws.wg.Wait()
}

func (ws *walSet) closeLog() error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.log == nil {
		return nil
	}
	err := ws.log.back.Close()
	if merr := ws.meta.Close(); err == nil {
		err = merr
	}
	return err
}

// walBackend is the write-through wrapper an attached array's backend
// becomes: reads pass straight down (the inner backend always holds
// the current bytes), Sync is the group-committed log fsync, a tile
// write-back (writeTile) is logged and a plain WriteAt is not.
type walBackend struct {
	ws    *walSet
	name  string
	inner Backend
}

var _ Backend = (*walBackend)(nil)

func (wb *walBackend) ReadAt(buf []float64, off int64) error { return wb.inner.ReadAt(buf, off) }
func (wb *walBackend) Size() int64                           { return wb.inner.Size() }
func (wb *walBackend) Close() error                          { return wb.inner.Close() }

// WriteAt is the unlogged bulk path (Array.Fill, FromStore, SetAt):
// write through, mark the set bypassed, and let the next commit's
// checkpoint cover it. Logging a whole-array fill would frame, checksum
// and then checkpoint away bytes nobody was waiting on.
func (wb *walBackend) WriteAt(buf []float64, off int64) error {
	ws := wb.ws
	ws.mu.Lock()
	defer ws.mu.Unlock()
	ws.noteUnloggedLocked()
	return wb.inner.WriteAt(buf, off)
}

// noteUnloggedLocked records a write-through no log record covers:
// only a checkpoint's member syncs can make it durable.
func (ws *walSet) noteUnloggedLocked() {
	ws.bypassed = true
	ws.c.bypass++
	if m := ws.met; m != nil {
		m.bypass.Inc()
	}
}

// writeTile is the logged write. The tile's file image is gathered
// once — run after run, in file order, straight into the record buffer
// — and then {allocate seq, append ONE record, write the runs through}
// is a single step under the set's mutex: the log's record order is
// the order bytes reach the inner backends, and a tile write is in the
// log whole or not at all. An append failure surfaces before any
// write-through (WAL-first): the head does not advance, and the retry
// overwrites whatever prefix the failed append tore.
func (wb *walBackend) writeTile(t *Tile, segs []layout.Seg, runs []layout.Run) error {
	if len(runs) == 0 {
		return nil // an empty (fully clipped) tile writes nothing, so logs nothing
	}
	ws := wb.ws
	var listBuf [4]walRun
	list := walRunList(listBuf[:0], runs)
	prefix := int(walRecordWords(wb.name, len(list), 0))
	rec := GetF64(prefix + len(t.data))
	defer PutF64(rec)
	img := rec[prefix:]
	pos := int64(0)
	for _, r := range runs {
		var rs []layout.Seg
		rs, segs = cutRun(segs, r)
		t.gather(rs, img[pos:pos+r.Len], r.Off)
		pos += r.Len
	}
	need := int64(len(rec))

	ws.mu.Lock()
	defer ws.mu.Unlock()
	if need > ws.opts.CapWords-walHeaderWords {
		// Could never fit even an empty log: apply write-through only.
		// The write is unlogged, so the next commit must escalate to a
		// checkpoint before acknowledging.
		ws.noteUnloggedLocked()
		return walApply(wb.inner, list, img)
	}
	lg := ws.log
	if lg.head+need > ws.opts.CapWords {
		// Log full: compact inline (deterministic), then append fresh.
		if err := ws.checkpointLocked(); err != nil {
			return err
		}
	}
	walSealRecord(rec, ws.seq+1, lg.epoch, wb.name, list)
	if err := lg.back.WriteAt(rec, lg.head); err != nil {
		return fmt.Errorf("ooc: WAL append for %s %v: %w", wb.name, t.Box, err)
	}
	lg.head += need
	ws.seq++
	ws.c.appends++
	ws.c.appendedWords += need
	if m := ws.met; m != nil {
		m.appends.Inc()
		m.words.Add(need)
		m.pending.Set(float64(ws.pendingWordsLocked()))
	}
	return walApply(wb.inner, list, img)
}

// Sync acknowledges: it returns once every record appended before the
// call is durable, sharing fsyncs with every concurrent caller.
func (wb *walBackend) Sync() error { return wb.ws.commit() }

// walRun is one run-list entry, an arithmetic progression of file
// runs: count runs of len elements each, the i-th at element offset
// off + i*stride.
type walRun struct {
	off, len, stride, count int64
}

// walRunList folds file-ordered runs into progressions, appending to
// dst: consecutive runs of one length whose offsets step by one stride
// share an entry. A box under a permutation layout is therefore one
// entry however many runs it has; irregular layouts degrade to count-1
// entries.
func walRunList(dst []walRun, runs []layout.Run) []walRun {
	for _, r := range runs {
		if n := len(dst); n > 0 {
			e := &dst[n-1]
			step := r.Off - (e.off + (e.count-1)*e.stride)
			if r.Len == e.len && (e.count == 1 || step == e.stride) {
				e.stride, e.count = step, e.count+1
				continue
			}
		}
		dst = append(dst, walRun{off: r.Off, len: r.Len, count: 1})
	}
	return dst
}

// walRecord is one decoded redo record: a tile write as the physical
// runs it touched. data holds the runs' elements back to back, in list
// order, and may alias the scanned log image.
type walRecord struct {
	seq   uint64
	epoch uint64
	name  string
	runs  []walRun
	data  []float64
}

// walApply writes data — the listed runs' elements back to back — to b,
// one write per run: a logged tile's write-through and its replay are
// this one loop.
func walApply(b Backend, list []walRun, data []float64) error {
	for _, e := range list {
		for i := int64(0); i < e.count; i++ {
			if err := b.WriteAt(data[:e.len], e.off+i*e.stride); err != nil {
				return err
			}
			data = data[e.len:]
		}
	}
	return nil
}

// walRecordWords is the encoded size of a record.
func walRecordWords(name string, nRuns int, dataLen int64) int64 {
	return walRecHeaderWords + int64((len(name)+7)/8) + int64(nRuns)*walRunWords + dataLen
}

// walSealRecord frames a record in place (see the package comment):
// rec is sized walRecordWords(name, len(list), dataLen) and already
// carries its dataLen payload words in its tail; the header, name and
// run list are filled in front of them and the CRC seals the whole.
func walSealRecord(rec []float64, seq, epoch uint64, name string, list []walRun) {
	nameWords := (len(name) + 7) / 8
	body := walRecHeaderWords + nameWords
	dataLen := len(rec) - body - len(list)*walRunWords
	meta := uint64(walFormat)<<56 | uint64(len(name))<<48 | uint64(dataLen)&walLenMask
	rec[0] = math.Float64frombits(seq)
	rec[1] = math.Float64frombits(epoch)
	rec[2] = math.Float64frombits(meta)
	rec[3] = math.Float64frombits(uint64(len(list)))
	rec[5] = 0 // reserved: the write's generation
	for w := 0; w < nameWords; w++ {
		var u uint64
		for k := 0; k < 8 && w*8+k < len(name); k++ {
			u |= uint64(name[w*8+k]) << (8 * uint(k))
		}
		rec[walRecHeaderWords+w] = math.Float64frombits(u)
	}
	for i, e := range list {
		for k, v := range [walRunWords]int64{e.off, e.len, e.stride, e.count} {
			rec[body+i*walRunWords+k] = math.Float64frombits(uint64(v))
		}
	}
	rec[walCRCWord] = math.Float64frombits(uint64(walRecordCRC(rec)))
}

// walRecordCRC covers every word of the framed record except the CRC
// word itself, as little-endian bytes, hashed a block at a time.
func walRecordCRC(rec []float64) uint32 {
	var (
		block [512]byte
		n     int
		crc   uint32
	)
	for i, w := range rec {
		if i == walCRCWord {
			continue
		}
		binary.LittleEndian.PutUint64(block[n:], math.Float64bits(w))
		if n += 8; n == len(block) {
			crc = crc32.Update(crc, walCRCTable, block[:])
			n = 0
		}
	}
	return crc32.Update(crc, walCRCTable, block[:n])
}

// walFramed checks the framing of the record at words[pos:] — header
// bounds, this build's format tag, the CRC — and returns its packed
// meta word (w2) and its size in words. It never panics on arbitrary
// bytes: every length is bounds-checked before the CRC seals the
// verdict.
func walFramed(words []float64, pos int64) (meta uint64, total int64, ok bool) {
	n := int64(len(words))
	if pos < walHeaderWords || pos+walRecHeaderWords > n {
		return 0, 0, false
	}
	word := func(i int64) uint64 { return math.Float64bits(words[pos+i]) }
	seq, nRuns, crcU := word(0), word(3), word(walCRCWord)
	meta = word(2)
	nameLen := int64(meta>>48) & 0xFF
	if seq == 0 || (meta>>56)&0x7F != walFormat || nameLen == 0 || crcU>>32 != 0 ||
		nRuns == 0 || nRuns > uint64(n) {
		return 0, 0, false // incl. another build's format tag: fail closed
	}
	total = walRecHeaderWords + (nameLen+7)/8 + int64(nRuns)*walRunWords + int64(meta&walLenMask)
	if total > n-pos || walRecordCRC(words[pos:pos+total]) != uint32(crcU) {
		return 0, 0, false
	}
	return meta, total, true
}

// walDecodeRecord tries to decode one record at words[pos:]: framed
// (walFramed), the comp bit clear, and a run list that tiles the
// payload exactly. Returns the record, its size in words, and whether
// it decoded.
func walDecodeRecord(words []float64, pos int64) (walRecord, int64, bool) {
	meta, total, ok := walFramed(words, pos)
	if !ok || meta>>63 != 0 {
		return walRecord{}, 0, false // a compressed record fails closed too (walCompressedAt)
	}
	word := func(i int64) uint64 { return math.Float64bits(words[pos+i]) }
	nameLen := int64(meta>>48) & 0xFF
	nRuns := word(3)
	body := walRecHeaderWords + (nameLen+7)/8
	nameB := make([]byte, nameLen)
	for i := range nameB {
		nameB[i] = byte(word(walRecHeaderWords+int64(i)/8) >> (8 * uint(i%8)))
	}
	data := words[pos+body+int64(nRuns)*walRunWords : pos+total]
	runs := make([]walRun, nRuns)
	left := uint64(len(data))
	for i := range runs {
		at := body + int64(i)*walRunWords
		off, ln, stride, count := word(at), word(at+1), word(at+2), word(at+3)
		if off > walMaxOff || stride > walMaxOff || ln == 0 || count == 0 ||
			ln > left || count > left/ln || (count > 1 && stride > walMaxOff/count) {
			return walRecord{}, 0, false
		}
		left -= ln * count
		runs[i] = walRun{off: int64(off), len: int64(ln), stride: int64(stride), count: int64(count)}
	}
	if left != 0 {
		return walRecord{}, 0, false
	}
	return walRecord{seq: word(0), epoch: word(1), name: string(nameB), runs: runs, data: data}, total, true
}

// walCompressedAt reports whether words[pos:] holds a current-epoch
// record that a build with WAL compression sealed: framed, with the
// comp bit set. This build cannot replay its codec frame; it only
// recognizes the record, to refuse such a log.
func walCompressedAt(words []float64, pos int64, epoch uint64) bool {
	meta, _, ok := walFramed(words, pos)
	return ok && meta>>63 == 1 && math.Float64bits(words[pos+1]) == epoch
}

// walLegacyHead reports whether the log image opens with a valid
// record in the PER-RUN format of earlier builds: format tag 0, a
// five-word header (seq, epoch, comp|nameLen|dataLen, off, crc), then
// the name and one run's data, under the same CRC rule. This build
// neither writes nor replays that format; it only recognizes it, to
// refuse such a log.
func walLegacyHead(words []float64, epoch uint64) bool {
	const header = 5
	rec := words[min(walHeaderWords, len(words)):]
	if len(rec) < header {
		return false
	}
	meta := math.Float64bits(rec[2])
	nameLen := int64(meta>>48) & 0x7FFF // spans the format bits: ours reads > 255
	total := header + (nameLen+7)/8 + int64(meta&walLenMask)
	return math.Float64bits(rec[0]) != 0 && math.Float64bits(rec[1]) == epoch &&
		nameLen >= 1 && nameLen <= MaxNameLen && total <= int64(len(rec)) &&
		uint64(walRecordCRC(rec[:total])) == math.Float64bits(rec[walCRCWord])
}

// walScan decodes the valid record run of a log image: records are
// accepted while they decode, carry the current epoch, and strictly
// increase in sequence; the scan stops at the first failure, so any
// torn tail yields a strict prefix of the appended records.
func walScan(words []float64, epoch uint64) ([]walRecord, int64) {
	var recs []walRecord
	pos := int64(walHeaderWords)
	last := uint64(0)
	for {
		r, sz, ok := walDecodeRecord(words, pos)
		if !ok || r.epoch != epoch || r.seq <= last {
			return recs, pos
		}
		recs = append(recs, r)
		last = r.seq
		pos += sz
	}
}

// WALReplay summarizes one ReplayWAL pass.
type WALReplay struct {
	Applied   int64 // records re-applied over the member backends
	Discarded int64 // torn log tail (at most one) plus stale records at or below the watermark
}

// EnableWAL turns on write-ahead logging for every subsequently
// created array: every tile write-back appends one checksummed redo
// record to the log before reaching the array backends (the set-up
// helpers Fill, FromStore and SetAt write through unlogged and are
// covered by the next commit's checkpoint), a backend Sync becomes a
// group-committed log fsync, and Checkpoint/ReplayWAL provide the
// compaction and recovery halves. Like the other configuration
// chainers it must be called before arrays are created; it is ignored
// on measurement-only (NoBacking) disks.
func (d *Disk) EnableWAL(o WALOptions) *Disk {
	if d.noBacking {
		return d
	}
	d.wal = newWALSet(o)
	d.wal.startMaintainer()
	return d
}

// ReplayWAL recovers acknowledged writes after a reopen: it scans the
// surviving log tail and re-applies the valid records, in sequence
// order, over the array backends. Call it after recreating the disk's
// arrays and before tile I/O starts. If any surviving record names an
// array that was not recreated, it applies nothing and returns an
// error naming those arrays: the caller must abandon the disk (Close
// would checkpoint the records away). On a freshly created disk the
// log is empty and replay is a no-op.
func (d *Disk) ReplayWAL() (WALReplay, error) {
	if d.wal == nil {
		return WALReplay{}, nil
	}
	// Open the log if no array creation has yet: a reopened disk with
	// no arrays recreated still refuses its surviving records instead
	// of silently scanning nothing.
	if err := d.wal.ensureLog(d); err != nil {
		return WALReplay{}, err
	}
	return d.wal.replay()
}

// Checkpoint runs the WAL compaction step now: member backends are
// synced (making every applied record durable in the stripes) and the
// log is truncated. A no-op without a WAL.
func (d *Disk) Checkpoint() error {
	if d.wal == nil {
		return nil
	}
	return d.wal.checkpoint()
}

// WALStats snapshots the WAL scorecard, or nil when disabled.
func (d *Disk) WALStats() *WALStats {
	if d.wal == nil {
		return nil
	}
	return d.wal.stats()
}
