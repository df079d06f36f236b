package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"outcore/internal/faultfs"
	"outcore/internal/ooc"
)

// newDurableTestServer wires a WAL-enabled, durable-PUT server over a
// fault injector — cmd/occd's `-wal -durable-puts -faults` stack — so
// the tests below can break fsync underneath an acked write path.
func newDurableTestServer(t *testing.T, durable bool) (*testServer, *faultfs.Injector) {
	t.Helper()
	inj := faultfs.New(1, faultfs.Profile{SyncErr: 1})
	ts := &testServer{}
	d := ooc.NewDisk(0)
	d.WrapBackend(inj.Wrap)
	d.EnableWAL(ooc.WALOptions{})
	eng := ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: 16})
	ts.disk = d
	ts.srv = New(d, eng, Config{DurablePuts: durable})
	ts.http = httptest.NewServer(ts.srv.Handler())
	t.Cleanup(func() {
		ts.http.Close()
		inj.Heal() // the drain's flush must land on the healed device
		ts.srv.Drain()
	})
	inj.Heal()
	ts.createArray(t, "A", 8, 8)
	return ts, inj
}

// TestDurablePutsFailClosed pins the DurablePuts contract: a 204 means
// the write is on stable storage, so when every fsync fails the PUT
// must fail too — never ack first and hope the flush works out later.
func TestDurablePutsFailClosed(t *testing.T) {
	ts, inj := newDurableTestServer(t, true)
	payload := encodePayload(make([]float64, 16))

	inj.Arm() // every Sync now fails; the group commit cannot complete
	status, out, _ := ts.do(t, http.MethodPut, ts.url("/v1/arrays/A/tile?lo=0,0&hi=4,4"), payload)
	if status != http.StatusInternalServerError {
		t.Fatalf("durable PUT with failing fsync: status %d (%s), want 500", status, out)
	}

	inj.Heal()
	status, out, _ = ts.do(t, http.MethodPut, ts.url("/v1/arrays/A/tile?lo=0,0&hi=4,4"), payload)
	if status != http.StatusNoContent {
		t.Fatalf("durable PUT on healed device: status %d (%s), want 204", status, out)
	}
	st := ts.disk.WALStats()
	if st == nil || st.Commits < 1 || st.Fsyncs < 1 {
		t.Errorf("healed durable PUT did not group-commit: %+v", st)
	}
}

// TestBufferedPutsStayAvailable pins the other side of the contract:
// without DurablePuts a PUT only buffers into the tile cache, so a
// broken fsync path must NOT surface — availability is the default and
// durability is opt-in.
func TestBufferedPutsStayAvailable(t *testing.T) {
	ts, inj := newDurableTestServer(t, false)
	payload := encodePayload(make([]float64, 16))

	inj.Arm()
	status, out, _ := ts.do(t, http.MethodPut, ts.url("/v1/arrays/A/tile?lo=0,0&hi=4,4"), payload)
	if status != http.StatusNoContent {
		t.Fatalf("buffered PUT with failing fsync: status %d (%s), want 204", status, out)
	}
	if st := ts.disk.WALStats(); st != nil && st.Commits != 0 {
		t.Errorf("buffered PUT ran a group commit: %+v", st)
	}
}
