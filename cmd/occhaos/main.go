// Command occhaos runs seeded deterministic-simulation episodes
// against the out-of-core stack (internal/dst). -kind picks what an
// episode drives: storage (the default — one tile engine through a
// storm of injected storage faults and power cuts), or cluster,
// operators or admission (a router plus -nodes storage nodes through
// node kills, partitions and power cuts). Every episode ends in its
// kind's epilogue checks.
//
// The default run sweeps a fixed block of seeds (reproducible in CI);
// -random adds one wall-clock-derived seed on top, printed so a
// failure is never lost. On any violation occhaos prints the failing
// episode's verdict, its violations, and the exact single-seed
// reproducer command, then exits 1:
//
//	occhaos                             # 50 storage episodes, seeds 0..49
//	occhaos -episodes 200 -random       # wider sweep plus one fresh seed
//	occhaos -seed 1337 -episodes 1 -v   # replay one seed, full trace
//	occhaos -kind operators -ops 60     # 50 operator episodes
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"outcore/internal/dst"
	"outcore/internal/faultfs"
)

// options are occhaos's flags.
type options struct {
	episodes, ops, flushEvery, crashEvery, nodes, replicas int
	seed                                                   int64
	putFrac, syncDrop                                      float64
	random, wal, verbose                                   bool
	kind, hintDir                                          string
}

// register defines every flag on fs.
func register(fs *flag.FlagSet) *options {
	o := &options{}
	fs.IntVar(&o.episodes, "episodes", 50, "number of seeded episodes to run")
	fs.Int64Var(&o.seed, "seed", 0, "first seed; episodes use seed, seed+1, ...")
	fs.BoolVar(&o.random, "random", false, "append one wall-clock-derived seed (printed)")
	fs.StringVar(&o.kind, "kind", "storage", "episode kind: storage, cluster, operators or admission")
	fs.IntVar(&o.ops, "ops", 300, "scheduler steps per episode")
	fs.Float64Var(&o.putFrac, "put-frac", 0.4, "storage: fraction of client ops that are PUTs")
	fs.IntVar(&o.flushEvery, "flush-every", 20, "storage: ~one flush per this many steps (<0 disables)")
	fs.IntVar(&o.crashEvery, "crash-every", 50, "storage: ~one power cut per this many steps (<0 disables)")
	fs.BoolVar(&o.wal, "wal", false, "every kind: writes append to a write-ahead log, crashes land mid-commit/mid-compaction, and every reboot (each cluster node's included) replays the surviving log tail")
	fs.Float64Var(&o.syncDrop, "sync-drop", 0, "storage: probability a sync LIES (reports success, persists nothing) on top of the storm — episodes are expected to fail")
	fs.IntVar(&o.nodes, "nodes", 3, "cluster kinds: storage nodes per episode")
	fs.IntVar(&o.replicas, "replicas", 2, "cluster kinds: copies per tile")
	fs.StringVar(&o.hintDir, "hint-dir", "", "cluster kinds: durable hint-log directory (empty = in-memory hints)")
	fs.BoolVar(&o.verbose, "v", false, "print every episode verdict; with a failure, dump its op log and fault schedule")
	return o
}

func main() {
	o := register(flag.CommandLine)
	flag.Parse()
	os.Exit(o.run(flag.CommandLine))
}

// run sweeps the episodes and returns the exit code.
func (o *options) run(fs *flag.FlagSet) int {
	kind, err := dst.ParseKind(o.kind)
	if err != nil {
		fmt.Fprintln(os.Stderr, "occhaos:", err)
		return 2
	}

	prof := faultfs.StormProfile()
	prof.SyncDrop = o.syncDrop
	prof.LatencyTicks = faultfs.StormLatencyTicks

	seeds := make([]int64, 0, o.episodes+1)
	for i := 0; i < o.episodes; i++ {
		seeds = append(seeds, o.seed+int64(i))
	}
	if o.random {
		rs := time.Now().UnixNano()
		fmt.Printf("occhaos: random seed %d (rerun it with -seed %d -episodes 1)\n", rs, rs)
		seeds = append(seeds, rs)
	}

	start := time.Now()
	failed := 0
	var faults int64
	for _, s := range seeds {
		res := dst.Run(dst.Options{
			Kind:       kind,
			Seed:       s,
			Ops:        o.ops,
			PutFrac:    o.putFrac,
			FlushEvery: o.flushEvery,
			CrashEvery: o.crashEvery,
			Profile:    prof,
			WAL:        o.wal,
			Nodes:      o.nodes,
			Replicas:   o.replicas,
			HintDir:    o.hintDir,
		})
		faults += res.Faults()
		if o.verbose {
			fmt.Println("occhaos:", res.Summary())
		}
		if res.Failed() {
			failed++
			fmt.Fprintf(os.Stderr, "occhaos: %s\n", res.Summary())
			for _, v := range res.Violations {
				fmt.Fprintf(os.Stderr, "occhaos:   violation: %s\n", v)
			}
			fmt.Fprintf(os.Stderr, "occhaos: reproduce with: occhaos -seed %d -episodes 1 -v%s\n", s, setFlags(fs))
			if o.verbose {
				fmt.Fprintf(os.Stderr, "--- op log (seed %d) ---\n%s", s, res.OpLog)
				fmt.Fprintf(os.Stderr, "--- fault schedule (seed %d) ---\n%s", s, res.FaultSchedule)
			}
		}
	}

	fmt.Printf("occhaos: %d %s episodes, %d faults injected, %d failed in %.2fs\n",
		len(seeds), kind, faults, failed, time.Since(start).Seconds())
	if failed > 0 {
		return 1
	}
	return 0
}

// setFlags renders every flag the caller set explicitly (the seed
// replays an episode only under the same options), minus the sweep
// bookkeeping flags the reproducer overrides. Each renders as
// -name=value: a bare "-wal true" would end flag parsing at "true" and
// drop every flag after it.
func setFlags(fs *flag.FlagSet) string {
	s := ""
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed", "episodes", "random", "v":
			return
		}
		s += fmt.Sprintf(" -%s=%v", f.Name, f.Value)
	})
	return s
}
