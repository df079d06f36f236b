package dst

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"outcore/internal/faultfs"
)

// stormProfile is the standard adversary: the canonical storm every
// command arms, plus the chaos harness's simulated latency.
func stormProfile() faultfs.Profile {
	p := faultfs.StormProfile()
	p.LatencyTicks = faultfs.StormLatencyTicks
	return p
}

// TestEpisodeDeterministicReplay is the acceptance test for the
// determinism contract: the same seed produces byte-identical
// operation logs, fault schedules, and verdicts.
func TestEpisodeDeterministicReplay(t *testing.T) {
	opts := Options{Seed: 1234, Ops: 300, Profile: stormProfile()}
	a, b := Run(opts), Run(opts)
	if a.OpLog != b.OpLog {
		t.Fatalf("op logs differ between identical runs:\n%s\n--- vs ---\n%s", a.OpLog, b.OpLog)
	}
	if a.FaultSchedule != b.FaultSchedule {
		t.Fatalf("fault schedules differ between identical runs:\n%s\n--- vs ---\n%s",
			a.FaultSchedule, b.FaultSchedule)
	}
	if a.Summary() != b.Summary() {
		t.Fatalf("verdicts differ: %q vs %q", a.Summary(), b.Summary())
	}
	c := Run(Options{Seed: 1235, Ops: 300, Profile: stormProfile()})
	if c.OpLog == a.OpLog {
		t.Fatal("different seeds produced identical op logs")
	}
}

// TestSeededEpisodesPass runs the storm over many seeds: with the
// engine's error wiring in place, no crash may lose or tear an
// acknowledged write and no read may observe stale data. This is the
// ">= 50 seeded episodes" gate CI runs under -race.
func TestSeededEpisodesPass(t *testing.T) {
	var gets, puts, acked, crashes, faults, opErrs int64
	for seed := int64(0); seed < 60; seed++ {
		res := Run(Options{Seed: seed, Ops: 250, Profile: stormProfile()})
		if res.Failed() {
			t.Errorf("seed %d failed: %s", seed, res.Summary())
			for _, v := range res.Violations {
				t.Errorf("  %s", v)
			}
		}
		gets += int64(res.Gets)
		puts += int64(res.Puts)
		acked += int64(res.AckedFlushes)
		crashes += int64(res.Crashes)
		faults += res.FaultsInjected
		opErrs += int64(res.GetErrors + res.PutErrors + res.FlushErrors)
	}
	// Guard against a harness that silently tests nothing: the storm
	// must actually inject faults, fail operations, ack flushes, and
	// crash.
	if faults == 0 || opErrs == 0 || acked == 0 || crashes == 0 || gets == 0 || puts == 0 {
		t.Fatalf("degenerate storm: gets=%d puts=%d acked=%d crashes=%d faults=%d opErrs=%d",
			gets, puts, acked, crashes, faults, opErrs)
	}
}

// TestFaultFreeEpisodesPass: with no adversary every operation
// succeeds and every flush acks.
func TestFaultFreeEpisodesPass(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		res := Run(Options{Seed: seed})
		if res.Failed() {
			t.Fatalf("fault-free seed %d failed: %s\n%s", seed, res.Summary(), res.OpLog)
		}
		if res.GetErrors+res.PutErrors+res.FlushErrors > 0 {
			t.Fatalf("fault-free episode reported op errors: %s", res.Summary())
		}
		if res.AckedFlushes != res.Flushes+1 { // +1: the epilogue flush
			t.Fatalf("fault-free episode: %d of %d flushes acked", res.AckedFlushes, res.Flushes+1)
		}
	}
}

// TestTornWriteEpisodesPass: the torn-write adversary at full tilt.
// Before the engine kept failed write-backs dirty (and refused to
// read through un-flushable dirty overlaps), these episodes lost
// acknowledged writes; with the fix wiring they must pass.
func TestTornWriteEpisodesPass(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		res := Run(Options{
			Seed:    seed,
			Ops:     300,
			Profile: faultfs.Profile{TornWrite: 0.3, SyncErr: 0.15},
		})
		if res.Failed() {
			t.Errorf("torn-write seed %d failed: %s", seed, res.Summary())
			for _, v := range res.Violations {
				t.Errorf("  %s", v)
			}
		}
	}
}

// TestLyingSyncDetected proves the checker catches real corruption: a
// device whose fsync lies (reports success, persists nothing) MUST
// produce durability violations — acknowledged writes vanish at the
// crash. If this test fails, the checker is blind and every green
// episode above is meaningless.
func TestLyingSyncDetected(t *testing.T) {
	caught := 0
	for seed := int64(0); seed < 10; seed++ {
		res := Run(Options{
			Seed:       seed,
			Ops:        300,
			PutFrac:    0.7,
			FlushEvery: 10,
			CrashEvery: 25,
			Profile:    faultfs.Profile{SyncDrop: 1},
		})
		if res.Failed() {
			caught++
		}
	}
	if caught == 0 {
		t.Fatal("a lying fsync dropped every acknowledged write and the checker noticed nothing")
	}
}

// TestCrashDropsUnsyncedWrite pins the crash semantics with a
// hand-built scenario: a write that never flushes is gone after the
// crash, and the model (which allows that) still passes — while the
// durable state provably reverted.
func TestCrashDropsUnsyncedWrite(t *testing.T) {
	// No flushes, guaranteed crashes: every write is unacknowledged,
	// so after any crash the array must read zero (nothing ever
	// acked). The episode itself must pass — losing unacked writes is
	// legal — and its op log must show crashes adopting the zero
	// state.
	res := Run(Options{
		Seed:       7,
		Ops:        120,
		PutFrac:    1.0,
		FlushEvery: -1,
		CrashEvery: 10,
		// SyncErr guarantees even engine-internal eviction write-backs
		// never become durable (eviction does not sync anyway). Skip
		// the epilogue, which heals the device and would ack one flush.
		SkipFinalCheck: true,
		Profile:        faultfs.Profile{SyncErr: 1},
	})
	if res.Failed() {
		t.Fatalf("losing unacknowledged writes must be legal: %s\n%s", res.Summary(), res.OpLog)
	}
	if res.Crashes == 0 {
		t.Fatal("scenario produced no crashes")
	}
	if res.AckedFlushes != 0 {
		t.Fatalf("SyncErr=1 episode acked %d flushes", res.AckedFlushes)
	}
}

func BenchmarkEpisode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := Run(Options{Seed: int64(i), Ops: 200, Profile: stormProfile()})
		if res.Failed() {
			b.Fatal(res.Summary())
		}
	}
}

// TestWALEpisodesPass runs the storm over the WAL-backed plane: power
// cuts now land mid-commit-window, mid-apply and mid-compaction, the
// log tail tears, and still no acknowledged write may be lost and no
// torn trailing record may surface.
func TestWALEpisodesPass(t *testing.T) {
	var crashes, checkpoints, faults int64
	for seed := int64(0); seed < 50; seed++ {
		res := Run(Options{Seed: seed, Ops: 250, WAL: true, Profile: stormProfile()})
		if res.Failed() {
			t.Errorf("wal seed %d failed: %s", seed, res.Summary())
			for _, v := range res.Violations {
				t.Errorf("  %s", v)
			}
		}
		crashes += int64(res.Crashes)
		checkpoints += int64(res.Checkpoints)
		faults += res.FaultsInjected
	}
	// The storm must actually exercise the WAL paths: crashes (each a
	// log replay), scheduled compactions, and injected faults.
	if crashes == 0 || checkpoints == 0 || faults == 0 {
		t.Fatalf("degenerate WAL storm: crashes=%d checkpoints=%d faults=%d", crashes, checkpoints, faults)
	}
}

// TestWALEpisodeDeterministicReplay extends the determinism contract
// to WAL episodes: logging, group commit and replay add no
// nondeterminism.
func TestWALEpisodeDeterministicReplay(t *testing.T) {
	opts := Options{Seed: 5678, Ops: 300, WAL: true, Profile: stormProfile()}
	a, b := Run(opts), Run(opts)
	if a.OpLog != b.OpLog {
		t.Fatalf("WAL op logs differ between identical runs:\n%s\n--- vs ---\n%s", a.OpLog, b.OpLog)
	}
	if a.FaultSchedule != b.FaultSchedule || a.Summary() != b.Summary() {
		t.Fatalf("WAL replay diverged: %q vs %q", a.Summary(), b.Summary())
	}
}

// TestWALTornWriteEpisodesPass: the torn-write adversary against the
// log itself. Torn log appends must behave as torn tails — discarded
// on replay, never applied — and torn stripe write-throughs are
// covered by the records that survive.
func TestWALTornWriteEpisodesPass(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		res := Run(Options{
			Seed:    seed,
			Ops:     300,
			WAL:     true,
			Profile: faultfs.Profile{TornWrite: 0.3, SyncErr: 0.15},
		})
		if res.Failed() {
			t.Errorf("wal torn-write seed %d failed: %s", seed, res.Summary())
			for _, v := range res.Violations {
				t.Errorf("  %s", v)
			}
		}
	}
}

// TestWALLyingSyncDetected keeps the checker honest under the WAL: a
// device that drops fsyncs silently makes group commits lie, replay
// misses acknowledged records, and the harness MUST notice.
func TestWALLyingSyncDetected(t *testing.T) {
	caught := 0
	for seed := int64(0); seed < 10; seed++ {
		res := Run(Options{
			Seed:       seed,
			Ops:        300,
			WAL:        true,
			PutFrac:    0.7,
			FlushEvery: 10,
			CrashEvery: 25,
			Profile:    faultfs.Profile{SyncDrop: 1},
		})
		if res.Failed() {
			caught++
		}
	}
	if caught == 0 {
		t.Fatal("a lying fsync under the WAL dropped acknowledged writes and the checker noticed nothing")
	}
}

// TestWALCompressEpisodesPass runs the WAL storm with payload
// compression on: acked writes must survive crashes through the
// compressed log records (the injector checks physical durable bytes,
// so a frame that failed to round-trip would surface as lost data).
func TestWALCompressEpisodesPass(t *testing.T) {
	var crashes int64
	for seed := int64(0); seed < 30; seed++ {
		res := Run(Options{Seed: seed, Ops: 250, WAL: true, Compress: true, Profile: stormProfile()})
		if res.Failed() {
			t.Errorf("wal-compress seed %d failed: %s", seed, res.Summary())
			for _, v := range res.Violations {
				t.Errorf("  %s", v)
			}
		}
		crashes += int64(res.Crashes)
	}
	if crashes == 0 {
		t.Fatal("degenerate compress storm: no crashes, nothing replayed")
	}
}

// TestWALCompressDeterministicReplay extends the determinism contract
// to compressed episodes: per-record frame encoding adds no
// nondeterminism, so a failing compressed seed replays exactly.
func TestWALCompressDeterministicReplay(t *testing.T) {
	opts := Options{Seed: 321, Ops: 250, WAL: true, Compress: true, Profile: stormProfile()}
	a, b := Run(opts), Run(opts)
	if a.OpLog != b.OpLog || a.FaultSchedule != b.FaultSchedule || a.Summary() != b.Summary() {
		t.Fatalf("compressed WAL replay diverged: %q vs %q", a.Summary(), b.Summary())
	}
}

// TestStorageEpisodeGolden pins the storage kind's replay contract
// across refactors: sha256(OpLog ‖ FaultSchedule) for seeds 0–3 under
// the storm profile, plain, with the WAL, and with the compressed WAL,
// must equal the hashes checked in under testdata. A change that moves
// one scheduler draw or one injector decision fails here.
func TestStorageEpisodeGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/storage_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, v := range []struct {
		name          string
		wal, compress bool
	}{{"plain", false, false}, {"wal", true, false}, {"wal+compress", true, true}} {
		for seed := int64(0); seed < 4; seed++ {
			res := Run(Options{Seed: seed, WAL: v.wal, Compress: v.compress, Profile: stormProfile()})
			sum := sha256.Sum256([]byte(res.OpLog + res.FaultSchedule))
			got[fmt.Sprintf("%s/seed=%d", v.name, seed)] = hex.EncodeToString(sum[:])
		}
	}
	if !reflect.DeepEqual(got, want) {
		out, _ := json.MarshalIndent(got, "", "  ")
		t.Fatalf("storage schedules drifted from testdata/storage_golden.json; got:\n%s", out)
	}
}
