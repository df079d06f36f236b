// Command occhaos runs seeded deterministic-simulation episodes
// against the out-of-core stack (internal/dst): each episode drives
// the tile engine through a storm of injected storage faults and
// power cuts, then checks that no acknowledged write was lost or
// torn and no read ever returned stale data.
//
// The default run sweeps a fixed block of seeds (reproducible in CI);
// -random adds one wall-clock-derived seed on top, printed so a
// failure is never lost. On any violation occhaos prints the failing
// episode's verdict, its violations, and the exact single-seed
// reproducer command, then exits 1:
//
//	occhaos                         # 50 episodes, seeds 0..49
//	occhaos -episodes 200 -random   # wider sweep plus one fresh seed
//	occhaos -seed 1337 -episodes 1 -v   # replay one seed, full trace
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"outcore/internal/dst"
	"outcore/internal/faultfs"
)

func main() {
	storm := faultfs.StormProfile()
	episodes := flag.Int("episodes", 50, "number of seeded episodes to run")
	seed := flag.Int64("seed", 0, "first seed; episodes use seed, seed+1, ...")
	random := flag.Bool("random", false, "append one wall-clock-derived seed (printed)")
	ops := flag.Int("ops", 300, "scheduler steps per episode")
	clients := flag.Int("clients", 4, "logical clients interleaved per episode")
	putFrac := flag.Float64("put-frac", 0.4, "fraction of client ops that are PUTs")
	flushEvery := flag.Int("flush-every", 20, "~one flush per this many steps (<0 disables)")
	crashEvery := flag.Int("crash-every", 50, "~one power cut per this many steps (<0 disables)")
	wal := flag.Bool("wal", false, "run WAL-backed episodes: writes append to the log, crashes land mid-commit/mid-compaction, and every reboot replays the surviving log tail")
	compress := flag.Bool("compress", false, "with -wal: compress log record payloads (codec frames), so crash recovery replays through the compressed format")
	readErr := flag.Float64("read-err", storm.ReadErr, "probability a backend read fails EIO")
	writeErr := flag.Float64("write-err", storm.WriteErr, "probability a backend write fails EIO")
	noSpace := flag.Float64("nospace", storm.WriteNoSpace, "probability a backend write fails ENOSPC")
	torn := flag.Float64("torn", storm.TornWrite, "probability a backend write tears (strict prefix applied)")
	syncErr := flag.Float64("sync-err", storm.SyncErr, "probability a sync fails (writes stay volatile)")
	syncDrop := flag.Float64("sync-drop", 0, "probability a sync LIES (reports success, persists nothing) — episodes are expected to fail")
	clusterMode := flag.Bool("cluster", false, "run CLUSTER episodes instead: a router + -nodes storage nodes with -replicas copies per tile, node kills, partitions, hinted handoff and read-repair under test")
	operatorMode := flag.Bool("operators", false, "run OPERATOR episodes instead: batched PUTs and resumable streaming scans through the router, with scans interrupted by node crashes (cursor resume must never skip or re-deliver) and batch acks checked across whole-cluster power cuts")
	tenantMode := flag.Bool("tenants", false, "run TENANT episodes instead: a weighted point tenant and a scan tenant share a faulted cluster; every request must get a clean verdict (no DRR wedge, no hung admission), and no queue slot may leak across node crashes")
	nodes := flag.Int("nodes", 3, "with -cluster: storage nodes per episode")
	replicas := flag.Int("replicas", 2, "with -cluster: copies per tile")
	killEvery := flag.Int("kill-every", 25, "with -cluster: ~one node kill or partition per this many steps (<0 disables)")
	healEvery := flag.Int("heal-every", 15, "with -cluster: ~one node heal per this many steps (<0 disables)")
	hintDir := flag.String("hint-dir", "", "with -cluster: durable hint-log directory (empty = in-memory hints)")
	verbose := flag.Bool("v", false, "print every episode verdict; with a failure, dump its op log and fault schedule")
	flag.Parse()

	prof := faultfs.Profile{
		ReadErr:      *readErr,
		WriteErr:     *writeErr,
		WriteNoSpace: *noSpace,
		TornWrite:    *torn,
		SyncErr:      *syncErr,
		SyncDrop:     *syncDrop,
		LatencyTicks: faultfs.StormLatencyTicks,
	}

	seeds := make([]int64, 0, *episodes+1)
	for i := 0; i < *episodes; i++ {
		seeds = append(seeds, *seed+int64(i))
	}
	if *random {
		rs := time.Now().UnixNano()
		fmt.Printf("occhaos: random seed %d (rerun it with -seed %d -episodes 1)\n", rs, rs)
		seeds = append(seeds, rs)
	}

	if *operatorMode {
		runOps(seeds, dst.OpsOptions{
			Rounds:   *ops,
			Nodes:    *nodes,
			Replicas: *replicas,
			HintDir:  *hintDir,
		}, *verbose)
		return
	}

	if *tenantMode {
		runTenants(seeds, dst.TenantsOptions{
			Rounds:   *ops,
			Nodes:    *nodes,
			Replicas: *replicas,
			HintDir:  *hintDir,
		}, *verbose)
		return
	}

	if *clusterMode {
		runCluster(seeds, dst.ClusterOptions{
			Ops:       *ops,
			Nodes:     *nodes,
			Replicas:  *replicas,
			PutFrac:   *putFrac,
			KillEvery: *killEvery,
			HealEvery: *healEvery,
			HintDir:   *hintDir,
		}, *verbose)
		return
	}

	start := time.Now()
	failed := 0
	var faults int64
	for _, s := range seeds {
		res := dst.Run(dst.Options{
			Seed:       s,
			Ops:        *ops,
			Clients:    *clients,
			PutFrac:    *putFrac,
			FlushEvery: *flushEvery,
			CrashEvery: *crashEvery,
			WAL:        *wal,
			Compress:   *compress,
			Profile:    prof,
		})
		faults += res.FaultsInjected
		if *verbose {
			fmt.Println("occhaos:", res.Summary())
		}
		if res.Failed() {
			failed++
			fmt.Fprintf(os.Stderr, "occhaos: %s\n", res.Summary())
			for _, v := range res.Violations {
				fmt.Fprintf(os.Stderr, "occhaos:   violation: %s\n", v)
			}
			fmt.Fprintf(os.Stderr, "occhaos: reproduce with: occhaos -seed %d -episodes 1 -v%s\n",
				s, setFlags())
			if *verbose {
				fmt.Fprintf(os.Stderr, "--- op log (seed %d) ---\n%s", s, res.OpLog)
				fmt.Fprintf(os.Stderr, "--- fault schedule (seed %d) ---\n%s", s, res.FaultSchedule)
			}
		}
	}

	fmt.Printf("occhaos: %d episodes, %d faults injected, %d failed in %.2fs\n",
		len(seeds), faults, failed, time.Since(start).Seconds())
	if failed > 0 {
		os.Exit(1)
	}
}

// runCluster sweeps cluster episodes over the seed list and reports
// with the same verdict/reproducer discipline as the single-node
// sweep.
func runCluster(seeds []int64, base dst.ClusterOptions, verbose bool) {
	start := time.Now()
	failed := 0
	for _, s := range seeds {
		o := base
		o.Seed = s
		res := dst.RunCluster(o)
		if verbose {
			fmt.Println("occhaos:", res.Summary())
		}
		if res.Failed() {
			failed++
			fmt.Fprintf(os.Stderr, "occhaos: %s\n", res.Summary())
			for _, v := range res.Violations {
				fmt.Fprintf(os.Stderr, "occhaos:   violation: %s\n", v)
			}
			fmt.Fprintf(os.Stderr, "occhaos: reproduce with: occhaos -seed %d -episodes 1 -v%s\n",
				s, setFlags())
			if verbose {
				fmt.Fprintf(os.Stderr, "--- op log (seed %d) ---\n%s", s, res.OpLog)
			}
		}
	}
	fmt.Printf("occhaos: %d cluster episodes, %d failed in %.2fs\n",
		len(seeds), failed, time.Since(start).Seconds())
	if failed > 0 {
		os.Exit(1)
	}
}

// runOps sweeps operator episodes (scan-interrupted-by-crash,
// batch-PUT-power-cut) over the seed list with the same
// verdict/reproducer discipline as the other sweeps.
func runOps(seeds []int64, base dst.OpsOptions, verbose bool) {
	start := time.Now()
	failed := 0
	for _, s := range seeds {
		o := base
		o.Seed = s
		res := dst.RunOps(o)
		if verbose {
			fmt.Println("occhaos:", res.Summary())
		}
		if res.Failed() {
			failed++
			fmt.Fprintf(os.Stderr, "occhaos: %s\n", res.Summary())
			for _, v := range res.Violations {
				fmt.Fprintf(os.Stderr, "occhaos:   violation: %s\n", v)
			}
			fmt.Fprintf(os.Stderr, "occhaos: reproduce with: occhaos -seed %d -episodes 1 -v%s\n",
				s, setFlags())
			if verbose {
				fmt.Fprintf(os.Stderr, "--- op log (seed %d) ---\n%s", s, res.OpLog)
			}
		}
	}
	fmt.Printf("occhaos: %d operator episodes, %d failed in %.2fs\n",
		len(seeds), failed, time.Since(start).Seconds())
	if failed > 0 {
		os.Exit(1)
	}
}

// runTenants sweeps tenant episodes (two-tenant fairness plane under
// node kills and partitions) over the seed list with the same
// verdict/reproducer discipline as the other sweeps.
func runTenants(seeds []int64, base dst.TenantsOptions, verbose bool) {
	start := time.Now()
	failed := 0
	for _, s := range seeds {
		o := base
		o.Seed = s
		res := dst.RunTenants(o)
		if verbose {
			fmt.Println("occhaos:", res.Summary())
		}
		if res.Failed() {
			failed++
			fmt.Fprintf(os.Stderr, "occhaos: %s\n", res.Summary())
			for _, v := range res.Violations {
				fmt.Fprintf(os.Stderr, "occhaos:   violation: %s\n", v)
			}
			fmt.Fprintf(os.Stderr, "occhaos: reproduce with: occhaos -seed %d -episodes 1 -v%s\n",
				s, setFlags())
			if verbose {
				fmt.Fprintf(os.Stderr, "--- op log (seed %d) ---\n%s", s, res.OpLog)
			}
		}
	}
	fmt.Printf("occhaos: %d tenant episodes, %d failed in %.2fs\n",
		len(seeds), failed, time.Since(start).Seconds())
	if failed > 0 {
		os.Exit(1)
	}
}

// setFlags renders every flag the caller set explicitly (episode
// shape and fault rates alike — the seed replays the schedule only
// under the same options), minus the sweep bookkeeping flags the
// reproducer overrides.
func setFlags() string {
	s := ""
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed", "episodes", "random", "v":
			return
		}
		s += fmt.Sprintf(" -%s %v", f.Name, f.Value)
	})
	return s
}
