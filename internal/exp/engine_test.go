package exp

import (
	"reflect"
	"strings"
	"testing"

	"outcore/internal/obs"
	"outcore/internal/sim"
	"outcore/internal/suite"
)

// TestEngineEquivalence is the acceptance property for the tile
// engine: on real data-backed runs, the cached engine must produce
// bitwise-identical arrays to the sequential runtime, with equal or
// fewer backend I/O calls, and a live cache — every tile request
// crosses it, and the kernels that re-touch operand tiles (mxm, syr2k)
// hit it. mat and trans touch each tile once per sweep, so a 6-tile
// cache serves them no hits.
func TestEngineEquivalence(t *testing.T) {
	reuse := map[string]bool{"mxm": true, "syr2k": true}
	for _, kernel := range []string{"mat", "mxm", "trans", "syr2k"} {
		t.Run(kernel, func(t *testing.T) {
			o := testOptions()
			o.CacheTiles = 6
			res, err := EngineDemo(o, kernel, suite.COpt)
			if err != nil {
				t.Fatal(err)
			}
			if res.SeqMaxDiff != 0 {
				t.Errorf("sequential runtime diverged from reference by %g", res.SeqMaxDiff)
			}
			if res.EngMaxDiff != 0 {
				t.Errorf("engine diverged from reference by %g", res.EngMaxDiff)
			}
			if res.MaxDiff != 0 {
				t.Errorf("engine diverged from sequential runtime by %g", res.MaxDiff)
			}
			if res.EngCalls > res.SeqCalls {
				t.Errorf("engine issued %d backend calls, sequential %d", res.EngCalls, res.SeqCalls)
			}
			if res.EngElems > res.SeqElems {
				t.Errorf("engine moved %d elements, sequential %d", res.EngElems, res.SeqElems)
			}
			if res.Cache.Misses == 0 || reuse[kernel] && res.Cache.Hits == 0 {
				t.Errorf("cache saw no traffic or, on a reusing kernel, no hits: %+v", res.Cache)
			}
			if res.Cache.Acquires() != res.Cache.Hits+res.Cache.Misses {
				t.Errorf("inconsistent counters: %+v", res.Cache)
			}
		})
	}
}

// TestEngineGoldenTrace pins the degenerate configuration to the
// sequential runtime exactly: with a one-tile cache the engine's backend request trace must be identical, call for call,
// to the uncached runtime's — same files, offsets, lengths, directions,
// in the same order.
func TestEngineGoldenTrace(t *testing.T) {
	o := testOptions()
	o.CacheTiles = 1
	res, err := EngineDemo(o, "mxm", suite.COpt)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxDiff != 0 {
		t.Fatalf("results diverged by %g", res.MaxDiff)
	}
	if len(res.EngTrace) != len(res.SeqTrace) {
		t.Fatalf("trace lengths differ: engine %d vs sequential %d", len(res.EngTrace), len(res.SeqTrace))
	}
	for i := range res.SeqTrace {
		if res.EngTrace[i] != res.SeqTrace[i] {
			t.Fatalf("trace diverges at call %d: engine %+v vs sequential %+v",
				i, res.EngTrace[i], res.SeqTrace[i])
		}
	}
}

// TestEngineDemoRender checks the occbench-facing summary carries the
// numbers the acceptance criteria ask to see.
func TestEngineDemoRender(t *testing.T) {
	o := testOptions()
	o.CacheTiles = 8
	res, err := EngineDemo(o, "mxm", suite.COpt)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	for _, want := range []string{"backend I/O calls", "hit rate", "write-backs", "mxm"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if res.Cache.HitRate() <= 0 {
		t.Errorf("hit rate %v, want > 0 on mxm", res.Cache.HitRate())
	}
}

// TestSimCachedMeasurement routes a simulator measurement through the
// tile cache and checks the cached request stream is what the PFS sees:
// fewer (or equal) calls, a populated Cache block, and a makespan that
// does not lose to the uncached run.
func TestSimCachedMeasurement(t *testing.T) {
	o := testOptions()
	k, _ := suite.ByName("mxm")
	base := sim.Setup{
		Kernel: k, Cfg: o.Cfg, Version: suite.COpt, Procs: 2,
		MemFrac: o.MemFrac, PFS: o.PFS, IterPerSec: o.IterPerSec,
	}
	plain, err := sim.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	cached := base
	cached.CacheTiles = 8
	got, err := sim.Run(cached)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cache.Hits == 0 {
		t.Errorf("cached measurement saw no hits: %+v", got.Cache)
	}
	if plain.Cache.Acquires() != 0 {
		t.Errorf("uncached measurement has cache stats: %+v", plain.Cache)
	}
	if got.Calls > plain.Calls {
		t.Errorf("cached run issued %d calls, uncached %d", got.Calls, plain.Calls)
	}
	if got.Seconds > plain.Seconds*1.0001 {
		t.Errorf("cached run slower: %.6fs vs %.6fs", got.Seconds, plain.Seconds)
	}
}

// benchOptions is a small, fast configuration for the observer-effect
// test.
func benchOptions() Options {
	return Options{
		Cfg:     suite.Config{N2: 16, N3: 4, N4: 2},
		PFS:     ScaledPFS(16, 4),
		MemFrac: 32,
		Procs:   2,
	}
}

// TestObserverEffect: attaching a full observability sink (trace +
// metrics) must not change the engine's backend request stream — the
// instrumented engine does the same I/O in the same order as the bare
// one, at a cache that thrashes and at one that holds the working set.
func TestObserverEffect(t *testing.T) {
	for _, cache := range []int{4, 8} {
		o := benchOptions()
		o.CacheTiles = cache

		bare, err := EngineDemo(o, "mxm", suite.COpt)
		if err != nil {
			t.Fatal(err)
		}
		o.Obs = &obs.Sink{Trace: obs.NewTrace(1 << 12), Metrics: obs.NewRegistry()}
		observed, err := EngineDemo(o, "mxm", suite.COpt)
		if err != nil {
			t.Fatal(err)
		}

		if !reflect.DeepEqual(bare.EngTrace, observed.EngTrace) {
			t.Errorf("cache %d: observer effect: engine backend trace changed under the sink\nbare: %d calls, observed: %d calls",
				cache, len(bare.EngTrace), len(observed.EngTrace))
		}
		if bare.Cache != observed.Cache {
			t.Errorf("cache %d: observer effect: cache stats changed: %+v vs %+v", cache, bare.Cache, observed.Cache)
		}
		if o.Obs.Trace.Total() == 0 {
			t.Errorf("cache %d: sink recorded no events — instrumentation is dead", cache)
		}
	}
}
