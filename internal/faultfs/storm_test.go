package faultfs

import (
	"strings"
	"testing"
)

// TestStormProfilePinned pins the canonical storm's rates: occd,
// occhaos and the serving storm test all arm this exact profile, and a
// chaos seed only reproduces across them while these numbers are
// identical.
func TestStormProfilePinned(t *testing.T) {
	got := StormProfile()
	want := Profile{
		ReadErr:      0.05,
		WriteErr:     0.05,
		WriteNoSpace: 0.02,
		TornWrite:    0.06,
		SyncErr:      0.10,
	}
	if got != want {
		t.Fatalf("StormProfile() = %+v, want %+v", got, want)
	}
	if got.SyncDrop != 0 {
		t.Fatal("the canonical storm must not lie on sync (SyncDrop > 0 makes correct software fail)")
	}
	if got.LatencyTicks != 0 {
		t.Fatal("the canonical storm carries no latency; commands opt in via StormLatencyTicks")
	}
}

// TestStormSeedScheduleMapping pins the seed -> schedule mapping: one
// fixed operation sequence against NewStorm(seed) must reproduce the
// same fault schedule in every run and binary (this is what makes an
// occhaos reproducer line portable), and distinct seeds must diverge.
func TestStormSeedScheduleMapping(t *testing.T) {
	drive := func(seed int64) string {
		in := NewStorm(seed)
		b := in.Wrap("a", newMemStore(64))
		buf := make([]float64, 8)
		for i := 0; i < 60; i++ {
			switch i % 4 {
			case 0, 1:
				for j := range buf {
					buf[j] = float64(i)
				}
				b.WriteAt(buf, int64(i%8)*8)
			case 2:
				b.ReadAt(buf, int64(i%8)*8)
			case 3:
				b.Sync()
			}
		}
		return in.Schedule()
	}

	s1, s2 := drive(1337), drive(1337)
	if s1 != s2 {
		t.Fatalf("same storm seed produced different schedules:\n%s\n---\n%s", s1, s2)
	}
	if s1 == drive(7331) {
		t.Fatal("different storm seeds produced identical schedules")
	}
	// The exact injected decisions for seed 1337, pinned. math/rand's
	// seeded stream is stable across Go releases, so any change here
	// means the storm profile, the decision order, or the injector's
	// draw discipline changed — all of which silently break every
	// recorded occhaos reproducer.
	pinned := []string{
		"00026 w a off=8 len=8 t=0 -> eio",
		"00034 w a off=8 len=8 t=0 -> enospc",
		"00042 w a off=8 len=8 t=0 -> torn:7",
		"00049 w a off=0 len=8 t=0 -> torn:3",
		"00058 w a off=8 len=8 t=0 -> torn:7",
	}
	for _, line := range pinned {
		if !strings.Contains(s1, line+"\n") {
			t.Errorf("storm seed 1337 schedule lost pinned decision %q\nschedule:\n%s", line, s1)
		}
	}
}
