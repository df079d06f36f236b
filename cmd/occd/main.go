// Command occd is the out-of-core tile-server daemon: it exposes a
// disk of arrays over HTTP through internal/server, with bounded FIFO
// admission in front of the shared tile engine (which gives concurrent
// reads of one cold tile one backend read).
//
// Start it empty (clients create arrays via POST /v1/arrays), or
// pre-create a benchmark kernel's arrays so the daemon serves exactly
// the file layouts the optimizer chose for that program version:
//
//	occd -addr :8080 -dir /var/lib/occd -kernel trans -version c-opt
//
// SIGTERM or SIGINT trigger the graceful drain: the listener stops
// accepting, in-flight requests finish (bounded by -drain-timeout),
// dirty tiles flush and sync to the backing files, and the process
// exits 0. See the package comment on internal/server for the API.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"outcore/internal/faultfs"
	"outcore/internal/obs"
	"outcore/internal/ooc"
	"outcore/internal/server"
	"outcore/internal/suite"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dir := flag.String("dir", "", "backing directory for array files (empty = in-memory)")
	keep := flag.Bool("keep", false, "with -dir: keep existing array file contents instead of truncating")
	kernel := flag.String("kernel", "", "pre-create this benchmark kernel's arrays")
	version := flag.String("version", "c-opt", "program version whose layouts -kernel arrays use")
	n2 := flag.Int64("n2", 128, "extent of 2-D array dimensions")
	n3 := flag.Int64("n3", 16, "extent of 3-D array dimensions")
	n4 := flag.Int64("n4", 6, "extent of 4-D array dimensions")
	maxCall := flag.Int64("maxcall", 8192, "per-call element cap (0 = unlimited)")
	cacheTiles := flag.Int("cache-tiles", 256, "resident tile bound (LRU, >= 1)")
	inflight := flag.Int("inflight", 0, "max concurrent data-plane requests (0 = 2*GOMAXPROCS)")
	queue := flag.Int("queue", 64, "admission queue depth beyond -inflight (0 = 64)")
	maxArrayElems := flag.Int64("max-array-elems", 0, "cap on a created array's element count (0 = default, <0 = unlimited)")
	maxTileElems := flag.Int64("max-tile-elems", 0, "cap on one tile request's element count (0 = default, <0 = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests at shutdown")
	wal := flag.Bool("wal", false, "write-ahead log tile writes: acked durability via group-committed log fsyncs instead of per-write array-file fsyncs")
	walCap := flag.Int64("wal-cap-words", 0, "with -wal: log capacity in 8-byte words (0 = default)")
	walCheckpoint := flag.Duration("wal-checkpoint", time.Second, "with -wal: background compaction interval (0 = only when the log fills)")
	durablePuts := flag.Bool("durable-puts", false, "make every tile PUT durable before its 204 (with -wal: via the group commit)")
	faults := flag.Int64("faults", 0, "TESTING ONLY: inject deterministic storage faults from this seed (0 = off); failures surface as 5xx")
	clusterNode := flag.String("cluster-node", "", "label this daemon as cluster storage node ID in /v1/stats (placement is router-side; write-generation headers do not depend on it)")
	flag.Parse()

	for _, c := range []struct {
		name, valid string
		bad         bool
	}{
		{"cache-tiles", ">= 1", *cacheTiles < 1},
		{"inflight", ">= 0", *inflight < 0},
		{"queue", ">= 0", *queue < 0},
		{"wal-cap-words", ">= 0", *walCap < 0},
		{"wal-checkpoint", ">= 0", *walCheckpoint < 0},
		{"drain-timeout", ">= 0", *drainTimeout < 0},
		{"keep", "false without -dir", *keep && *dir == ""},
	} {
		if c.bad {
			fmt.Fprintf(os.Stderr, "occd: -%s: %v out of range (valid: %s)\n", c.name, flag.Lookup(c.name).Value, c.valid)
			os.Exit(2)
		}
	}

	sink := &obs.Sink{Metrics: obs.NewRegistry()}
	ooc.ObservePool(sink)
	d := ooc.NewDisk(*maxCall).Observe(sink)
	var inj *faultfs.Injector
	if *faults != 0 {
		inj = faultfs.NewStorm(*faults).Observe(sink)
		d.WrapBackend(inj.Wrap)
		log.Printf("occd: FAULT INJECTION armed (seed %d) — storage errors are deliberate; do not serve real data", *faults)
	}
	if *dir != "" {
		d.Dir(*dir)
		if *keep {
			d.KeepExisting()
		}
	}
	if *wal {
		d.EnableWAL(ooc.WALOptions{
			CapWords:        *walCap,
			CheckpointEvery: *walCheckpoint,
			Obs:             sink,
		})
	}
	var catalog []server.Array
	if *kernel != "" {
		k, ok := suite.ByName(*kernel)
		if !ok {
			fmt.Fprintf(os.Stderr, "occd: -kernel: unknown kernel %q (valid: %s)\n",
				*kernel, strings.Join(suite.KernelNames(), ", "))
			os.Exit(2)
		}
		ver, ok := suite.ParseVersion(*version)
		if !ok {
			fmt.Fprintf(os.Stderr, "occd: -version: unknown version %q (valid: %s)\n",
				*version, strings.Join(suite.VersionNames(), ", "))
			os.Exit(2)
		}
		prog := k.Build(suite.Config{N2: *n2, N3: *n3, N4: *n4})
		plan, err := suite.PlanFor(prog, ver)
		fail(err)
		for _, a := range prog.Arrays {
			catalog = append(catalog, server.Array{Name: a.Name, Dims: a.Dims, Layout: plan.LayoutOf(a, nil)})
		}
		log.Printf("occd: opening %d arrays for %s/%s", len(catalog), k.Name, ver)
	}

	if inj != nil {
		inj.Heal() // the open passes through; the storm starts with serving
	}
	srv, err := server.Open(d, catalog, ooc.EngineOptions{CacheTiles: *cacheTiles, Obs: sink}, server.Config{
		MaxInflight:   *inflight,
		QueueDepth:    *queue,
		MaxArrayElems: *maxArrayElems,
		MaxTileElems:  *maxTileElems,
		DurablePuts:   *durablePuts,
		NodeID:        *clusterNode,
		Obs:           sink,
	})
	fail(err)
	if inj != nil {
		inj.Arm()
	}
	if w := d.WALStats(); w != nil && w.ReplayedRecords+w.DiscardedRecords > 0 {
		log.Printf("occd: WAL replay: %d records applied, %d stale/torn discarded", w.ReplayedRecords, w.DiscardedRecords)
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	if *clusterNode != "" {
		log.Printf("occd: cluster node %q; placement is router-side", *clusterNode)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("occd: serving on %s", *addr)

	select {
	case err := <-errc:
		// The listener died on its own (bad address, port in use).
		fail(err)
	case <-ctx.Done():
		stop() // a second signal kills us the hard way
		log.Print("occd: signal received, draining")
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Even if Shutdown gives up at the deadline with requests still
		// in flight, srv.Drain below blocks until every one of them has
		// released its engine handle before closing the engine — an
		// acknowledged write is never dropped by a slow drain.
		if err := hs.Shutdown(sctx); err != nil {
			log.Printf("occd: shutdown: %v", err)
		}
	}
	if inj != nil {
		// Heal before the drain: the flush retry against the recovered
		// device must land every surviving write.
		inj.Heal()
	}
	fail(srv.Drain())
	log.Print("occd: drained; dirty tiles flushed and synced")
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "occd:", err)
		os.Exit(1)
	}
}
