// Command occrouter is the stateless cluster router in front of a set
// of occd storage nodes: it rendezvous-hashes tile keys across the
// membership with R-way replication, answers the same tile API a
// single occd exposes, queues durable handoff hints for replicas that
// are down, and read-repairs replicas that disagree. Membership is
// static ("gossip-free"): the -peers list is the cluster.
//
//	occd -addr :9001 -cluster-node n0 &
//	occd -addr :9002 -cluster-node n1 &
//	occd -addr :9003 -cluster-node n2 &
//	occrouter -addr :8080 -replicas 2 \
//	  -peers n0=http://localhost:9001,n1=http://localhost:9002,n2=http://localhost:9003
//
// Clients talk to the router exactly as they would to one occd: the
// array and tile endpoints, /healthz, /metrics (occrouter_* and
// ooc_cluster_* families), and a /v1/stats cluster scorecard. A
// background probe loop rechecks down nodes every -probe-interval and
// drains their hint queues when they return. SIGTERM/SIGINT drain:
// the listener stops, in-flight requests finish, hint logs sync, and
// the process exits 0.
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

	"outcore/internal/cluster"
	"outcore/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	peers := flag.String("peers", "", "cluster membership: comma-separated id=url pairs (required)")
	replicas := flag.Int("replicas", 2, "copies per tile (capped at the node count)")
	tileDim := flag.Int64("tile-dim", 8, "routing grid edge: requests decompose along this aligned tile grid")
	hintDir := flag.String("hint-dir", "", "directory for durable handoff hint logs (empty = in-memory hints)")
	probeEvery := flag.Duration("probe-interval", 2*time.Second, "how often to recheck down nodes and drain owed hints")
	inflight := flag.Int("inflight", 0, "max concurrently admitted data-plane requests (0 = 4*GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth beyond -inflight (0 = 256)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests at shutdown")
	flag.Parse()

	if *probeEvery <= 0 {
		fmt.Fprintf(os.Stderr, "occrouter: -probe-interval: %v out of range (valid: > 0)\n", *probeEvery)
		os.Exit(2)
	}
	nodes, err := parsePeers(*peers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "occrouter: -peers: %v\n", err)
		os.Exit(2)
	}

	sink := &obs.Sink{Metrics: obs.NewRegistry()}
	r, err := cluster.NewRouter(cluster.Options{
		Nodes:       nodes,
		Replicas:    *replicas,
		TileDim:     *tileDim,
		HintDir:     *hintDir,
		MaxInflight: *inflight,
		QueueDepth:  *queue,
		Obs:         sink,
	})
	fail(err)
	hs := &http.Server{Addr: *addr, Handler: r.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Probe loop: down nodes get health-checked, catalog-synced, and
	// their hint queues drained; up nodes with residual hints drain too.
	go func() {
		t := time.NewTicker(*probeEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				r.Probe()
			}
		}
	}()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("occrouter: serving on %s (%d nodes, %d replicas)", *addr, len(nodes), r.Replicas())

	select {
	case err := <-errc:
		fail(err)
	case <-ctx.Done():
		stop()
		log.Print("occrouter: signal received, draining")
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			log.Printf("occrouter: shutdown: %v", err)
		}
	}
	fail(r.Drain())
	log.Print("occrouter: drained; hint logs synced")
}

// parsePeers turns "n0=http://a:9001,n1=http://b:9001" into clients.
func parsePeers(s string) ([]*cluster.NodeClient, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty membership (want id=url,id=url,...)")
	}
	var nodes []*cluster.NodeClient
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad peer %q (want id=url)", part)
		}
		nodes = append(nodes, cluster.NewNodeClient(id, url))
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("empty membership (want id=url,id=url,...)")
	}
	return nodes, nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "occrouter:", err)
		os.Exit(1)
	}
}
