package server

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/ooc"
)

// encodeScanCursorOracle is the cursor encoder as first written, kept
// as the reference appendScanCursor must match byte for byte: the
// tokens are on the wire, so a client holding one from an older server
// must be able to resume against a newer one.
func encodeScanCursorOracle(name string, box layout.Box, chunkElems int64, layoutName string, seq uint64) string {
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

// TestAppendScanCursorOracle: over random names (query metacharacters
// included), ranks 1–4, chunk sizes and full 64-bit seqs, the append
// encoder's token is byte-identical to the oracle's, appends after
// whatever dst already holds, and parses back to its inputs.
func TestAppendScanCursorOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const alphabet = "abcXYZ019_-.?#%&=|/ "
	layouts := []string{"row-major", "col-major", "diagonal", "blocked(8x8)"}
	var buf []byte
	for i := 0; i < 2000; i++ {
		name := make([]byte, 1+rng.Intn(40))
		for j := range name {
			name[j] = alphabet[rng.Intn(len(alphabet))]
		}
		rank := 1 + rng.Intn(4)
		lo, hi := make([]int64, rank), make([]int64, rank)
		for d := range lo {
			lo[d] = rng.Int63n(1 << uint(rng.Intn(62)+1))
			hi[d] = lo[d] + rng.Int63n(1<<20)
		}
		box := layout.Box{Lo: lo, Hi: hi}
		chunk := 1 + rng.Int63n(1<<uint(rng.Intn(62)+1))
		seq := rng.Uint64()
		lname := layouts[rng.Intn(len(layouts))]

		want := encodeScanCursorOracle(string(name), box, chunk, lname, seq)
		if got := EncodeScanCursor(string(name), box, chunk, lname, seq); got != want {
			t.Fatalf("EncodeScanCursor(%q, %v, %d, %q, %d) = %q, oracle %q", name, box, chunk, lname, seq, got, want)
		}
		prefix := []byte("frame-bytes|")
		buf = appendScanCursor(append(buf[:0], prefix...), string(name), box, chunk, lname, seq)
		if !bytes.Equal(buf[:len(prefix)], prefix) || string(buf[len(prefix):]) != want {
			t.Fatalf("appendScanCursor after %q = %q, want the prefix then %q", prefix, buf, want)
		}
		if bytes.ContainsAny(name, "|") {
			continue // the name field cannot carry the separator back out
		}
		c, err := ParseScanCursor(want)
		if err != nil {
			t.Fatalf("ParseScanCursor(%q): %v", want, err)
		}
		if c.Name != string(name) || c.Box.String() != box.String() || c.ChunkElems != chunk || c.Layout != lname || c.Seq != seq {
			t.Fatalf("cursor %q parsed to %+v", want, c)
		}
	}
}

// scanStream renders a well-formed scan stream over a 1-D array of
// frames chunks of elems elements each, closed by its trailer.
func scanStream(frames, elems int, compress bool) []byte {
	box := layout.Box{Lo: []int64{0}, Hi: []int64{int64(frames * elems)}}
	data := make([]float64, elems)
	var out []byte
	for f := 0; f < frames; f++ {
		for i := range data {
			data[i] = float64(f*elems+i) / 4
		}
		ch := layout.Box{Lo: []int64{int64(f * elems)}, Hi: []int64{int64((f + 1) * elems)}}
		cursor := appendScanCursor(nil, "S", box, int64(elems), "row-major", uint64(f+1))
		out = AppendScanFrame(out, uint64(f), ch, cursor, data, compress)
	}
	return AppendScanTrailer(out, uint64(frames))
}

// hostileFrame is a data-frame header claiming payloadLen bytes for
// the rank-1 box [0, hi), then the box and the payload bytes sent.
// When all of the payload is sent, a valid CRC closes the frame.
func hostileFrame(flags, payloadLen uint32, hi int64, sent []byte) []byte {
	var h []byte
	h = binary.LittleEndian.AppendUint32(h, scanMagic)
	h = binary.LittleEndian.AppendUint32(h, flags)
	h = binary.LittleEndian.AppendUint64(h, 0)
	h = binary.LittleEndian.AppendUint32(h, 1) // rank
	h = binary.LittleEndian.AppendUint32(h, 0) // cursor length
	h = binary.LittleEndian.AppendUint32(h, payloadLen)
	h = binary.LittleEndian.AppendUint64(h, 0)
	h = binary.LittleEndian.AppendUint64(h, uint64(hi))
	h = append(h, sent...)
	if len(sent) == int(payloadLen) {
		h = binary.LittleEndian.AppendUint32(h, crc32.Checksum(h, castagnoli))
	}
	return h
}

// hostileFrames are streams whose headers claim far more memory than
// they deliver: 256 MiB for a box that cannot hold it, 256 MiB for a
// box that can but never sent, and an intact 64-byte codec payload
// for a 32 MiB box (a codec spends at least one bit per element).
var hostileFrames = []struct {
	name  string
	frame []byte
}{
	{"payload-over-box", hostileFrame(0, 256<<20, 0, nil)},
	{"payload-never-sent", hostileFrame(0, 256<<20, 1<<25, nil)},
	{"codec-under-box", hostileFrame(scanFlagCompressed, 64, 1<<22, make([]byte, 64))},
}

// TestScanReaderOversizedHeader: the memory a frame costs follows the
// bytes that arrived, not its header's claims, so each hostile frame
// costs well under 1 MiB and is an error.
func TestScanReaderOversizedHeader(t *testing.T) {
	for _, tc := range hostileFrames {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := NewScanReader(bytes.NewReader(tc.frame)).Next()
		runtime.ReadMemStats(&after)
		if err == nil || err == io.EOF {
			t.Errorf("%s: err %v, want an error", tc.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: allocated %d bytes before failing, want < 1 MiB", tc.name, got)
		}
	}
}

// TestScanReaderAllocs: a steady-state Next reuses the reader's frame,
// coordinate and data buffers, so each chunk allocates only its Cursor
// string — raw and compressed alike.
func TestScanReaderAllocs(t *testing.T) {
	const frames, elems = 64, 4096
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			sr := NewScanReader(bytes.NewReader(scanStream(frames, elems, compress)))
			next := func() {
				if ch, err := sr.Next(); err != nil || len(ch.Data) != elems {
					t.Fatalf("Next: %v", err)
				}
			}
			next() // size the buffers
			if n := testing.AllocsPerRun(frames-2, next); n != 1 {
				t.Errorf("Next makes %.0f allocations per chunk, want 1 (the cursor)", n)
			}
		})
	}
}

// TestScanHandlerAllocs holds one 8-chunk scan of a cached 32×1024
// array through Server.Handler() — routing, admission, query parsing,
// planning, one plane read, one cursor and one frame per chunk — at
// its allocation count, with the writer reused.
func TestScanHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations move the counts")
	}
	d := ooc.NewDisk(0)
	srv := New(d, ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: 16}), Config{})
	defer srv.Drain()
	if _, err := d.CreateArray(ir.NewArray("A", 32, 1024), layout.RowMajor(32, 1024)); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	w := nopWriter{http.Header{}}
	req := httptest.NewRequest(http.MethodGet, "/v1/arrays/A/scan?lo=0,0&hi=32,1024&chunk=4096", nil)
	run := func() { h.ServeHTTP(w, req) }
	run() // warm the tiles and the pools
	if got := w.h.Get("X-Scan-Chunks"); got != "8" {
		t.Fatalf("scan plans %s chunks, want 8", got)
	}
	if n := testing.AllocsPerRun(200, run); n != 14 {
		t.Errorf("8-chunk scan makes %.0f allocations, want 14", n)
	}
}

// FuzzScanReader: arbitrary bytes never panic the reader, and every
// chunk it accepts is consistent — a box of at most maxScanRank
// dimensions and exactly Box.Size() elements of data.
func FuzzScanReader(f *testing.F) {
	raw := scanStream(3, 8, false)
	f.Add(raw)
	f.Add(scanStream(3, 8, true))
	f.Add(raw[:len(raw)/2])
	for _, tc := range hostileFrames {
		f.Add(tc.frame)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		sr := NewScanReader(bytes.NewReader(stream))
		for {
			ch, err := sr.Next()
			if err != nil {
				return
			}
			if r := ch.Box.Rank(); r == 0 || r > maxScanRank || len(ch.Box.Hi) != r {
				t.Fatalf("accepted a chunk of rank %d/%d", r, len(ch.Box.Hi))
			}
			if int64(len(ch.Data)) != ch.Box.Size() {
				t.Fatalf("accepted %d elements for %v (%d)", len(ch.Data), ch.Box, ch.Box.Size())
			}
		}
	})
}
