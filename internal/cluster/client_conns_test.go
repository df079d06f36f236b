package cluster

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"outcore/internal/layout"
	"outcore/internal/ooc"
	"outcore/internal/server"
)

// roundBarrier holds every request of an armed round until all of them
// are in flight, so a round of n concurrent requests needs exactly n
// connections at once.
type roundBarrier struct {
	mu      sync.Mutex
	n, want int
	ch      chan struct{}
}

func (b *roundBarrier) arm(want int) {
	b.mu.Lock()
	b.n, b.want, b.ch = 0, want, make(chan struct{})
	b.mu.Unlock()
}

func (b *roundBarrier) wait() {
	b.mu.Lock()
	ch := b.ch
	if ch == nil {
		b.mu.Unlock()
		return
	}
	if b.n++; b.n == b.want {
		close(ch)
		b.ch = nil
	}
	b.mu.Unlock()
	<-ch
}

// TestNodeClientReusesConnections: a router fans concurrent requests at
// one node, burst after burst. The default client must keep the burst's
// connections idle between bursts instead of re-dialing all but two of
// them (http.DefaultTransport's per-host idle bound).
func TestNodeClientReusesConnections(t *testing.T) {
	const burst = 16
	d := ooc.NewDisk(0)
	srv := server.New(d, ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: 8}), server.Config{})
	var bar roundBarrier
	var opened atomic.Int64
	node := srv.Handler()
	hs := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		bar.wait()
		node.ServeHTTP(w, r)
	}))
	hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	hs.Start()
	t.Cleanup(func() {
		hs.Close()
		srv.Drain()
	})

	c := NewNodeClient("n0", hs.URL)
	if err := c.CreateArray("A", []int64{32, 32}, ""); err != nil {
		t.Fatal(err)
	}
	box := layout.NewBox([]int64{0, 0}, []int64{8, 8})
	get := func() {
		if _, _, err := c.GetTile("A", box, false); err != nil {
			t.Error(err)
		}
	}
	opened.Store(0) // the create's connection may or may not be reused
	for round := 0; round < 4; round++ {
		bar.arm(burst)
		var wg sync.WaitGroup
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				get()
			}()
		}
		wg.Wait()
	}
	for i := 0; i < 64; i++ {
		get()
	}
	if n := opened.Load(); n > burst {
		t.Fatalf("4 bursts of %d concurrent GETs then 64 sequential ones opened %d connections, want <= %d", burst, n, burst)
	}
}
