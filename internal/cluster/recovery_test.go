package cluster

import (
	"strings"
	"testing"

	"outcore/internal/layout"
	"outcore/internal/ooc"
)

// newWALCluster is a 2-node, R=2 cluster whose nodes log every write
// and ack a PUT only once it is durable, holding one array C that was
// created through the router (not through LocalCluster.CreateArray)
// under the column-major layout, with one acked tile write of 9.
func newWALCluster(t *testing.T) (*LocalCluster, layout.Box) {
	t.Helper()
	lc, err := NewLocal(LocalOptions{Nodes: 2, Replicas: 2, TileDim: testTile, WAL: true, DurablePuts: true, Seed: 5})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(func() { lc.Close() })
	cli := lc.Client()
	if err := cli.CreateArray("C", []int64{testEdge, testEdge}, "col"); err != nil {
		t.Fatalf("create: %v", err)
	}
	box := layout.NewBox([]int64{testTile, 0}, []int64{2 * testTile, testTile})
	if _, _, err := cli.PutTile("C", box, fillTile(9, box), 0, true); err != nil {
		t.Fatalf("put: %v", err)
	}
	return lc, box
}

// readsAcked requires the acked tile through the router and straight
// from every node, and C's column-major layout in every node's listing.
func readsAcked(t *testing.T, lc *LocalCluster, box layout.Box) {
	t.Helper()
	clients := map[string]*NodeClient{"router": lc.Client()}
	for i := 0; i < lc.Nodes(); i++ {
		clients[lc.NodeID(i)] = lc.NodeClientDirect(i)
	}
	for who, c := range clients {
		got, _, err := c.GetTile("C", box, true)
		if err != nil {
			t.Fatalf("%s: get: %v", who, err)
		}
		for j, v := range got {
			if v != 9 {
				t.Fatalf("%s: elem %d = %v after the power cut, want the acked 9", who, j, v)
			}
		}
		if who == "router" {
			continue
		}
		infos, err := c.ListArrays()
		if err != nil || len(infos) != 1 || infos[0].Layout != "col" {
			t.Fatalf("%s: listing %+v (%v), want C under col", who, infos, err)
		}
	}
}

// TestPowerCutKeepsRouterCreatedArray: after a whole-cluster power
// cut, every node reopens with the catalog it held, each array under
// its own layout, so WAL replay applies the acked write to an array
// the router created instead of dropping it.
func TestPowerCutKeepsRouterCreatedArray(t *testing.T) {
	lc, box := newWALCluster(t)
	for i := 0; i < lc.Nodes(); i++ {
		lc.Kill(i)
	}
	if err := lc.Heal(); err != nil {
		t.Fatalf("heal: %v", err)
	}
	// Re-admit the nodes the way a router re-syncs returning replicas.
	for i := 0; i < lc.Nodes(); i++ {
		lc.SetNodeDown(i, true)
	}
	lc.Router.Probe()
	readsAcked(t, lc, box)
}

// TestRefusedRestartIsAnError: a node whose open refuses — here it has
// lost its catalog, so its WAL names an array the open does not create
// — comes back from Restart and Heal as an error naming the node and
// the array, never a panic, and stays killed. Once the catalog is back
// the next Heal restarts it with the acked write.
func TestRefusedRestartIsAnError(t *testing.T) {
	lc, box := newWALCluster(t)
	n := lc.nodes[0]
	lc.Kill(0)
	kept := n.disk
	n.disk = ooc.NewDisk(0)
	for name, err := range map[string]error{"Restart": lc.Restart(0), "Heal": lc.Heal()} {
		if err == nil || !strings.Contains(err.Error(), n.ID) || !strings.Contains(err.Error(), "(C)") {
			t.Fatalf("%s: %v, want a refusal naming %s and C", name, err, n.ID)
		}
	}
	if _, _, err := lc.NodeClientDirect(0).GetTile("C", box, true); !lc.Killed(0) || err == nil {
		t.Fatalf("a node whose open was refused serves a GET (killed %v, err %v)", lc.Killed(0), err)
	}
	n.disk = kept
	if err := lc.Heal(); err != nil {
		t.Fatalf("heal with the catalog back: %v", err)
	}
	readsAcked(t, lc, box)
}

// TestKilledNodeFailsHealthz: a killed node answers its health check
// 503, as a dead process answers none, so a Probe leaves it down
// instead of syncing its catalog and routing traffic to a disk whose
// every data request fails. Restarted, it answers 200 and rejoins.
func TestKilledNodeFailsHealthz(t *testing.T) {
	lc, err := NewLocal(LocalOptions{Nodes: 2, Replicas: 2, TileDim: testTile, Seed: 5})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer lc.Close()
	if err := lc.CreateArray("A", testEdge, testEdge); err != nil {
		t.Fatalf("create: %v", err)
	}
	down := func() bool {
		for _, m := range lc.Router.members {
			if m.client.ID == lc.NodeID(0) {
				return m.down.Load()
			}
		}
		t.Fatalf("no member %s", lc.NodeID(0))
		return false
	}

	lc.Kill(0)
	if lc.NodeClientDirect(0).Healthz() {
		t.Fatal("a killed node answers healthz 200")
	}
	lc.SetNodeDown(0, true)
	lc.Router.Probe()
	if !down() {
		t.Fatal("Probe marked a killed node up")
	}

	if err := lc.Restart(0); err != nil {
		t.Fatalf("restart: %v", err)
	}
	lc.Router.Probe()
	if !lc.NodeClientDirect(0).Healthz() || down() {
		t.Fatalf("restarted node: healthz %v, down %v; want 200 and up", lc.NodeClientDirect(0).Healthz(), down())
	}
}
