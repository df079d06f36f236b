package dst

// Cluster episodes: the deterministic-simulation discipline applied to
// the distributed plane. One seeded scheduler drives a {router + N
// nodes, R replicas} cluster.LocalCluster through one set of steps —
// whole-tile PUT, batch PUT, point GET, scan, node kill or partition,
// single-node heal, whole-cluster power cut — plus a wedge probe after
// every round. The three cluster kinds are rows of data over that one
// episode (kindRows): how often each step runs, and whether the
// tenant plane is configured.
//
// The model is per tile: every value ever attempted on it (written),
// the last acked write (lastAcked, 0 = none), and the values attempted
// after that ack (maybes — a refused write may still have landed on a
// replica or in a hint; anything older was superseded by the ack).
// What the episode checks while it runs:
//
//   - every served read — point GET, scan chunk — is uniform inside
//     each tile (never torn) and holds a value actually written there
//     or the initial zero (never fabricated). Staleness while replicas
//     are down is legal;
//   - a scan delivers exactly its layout.PlanScan chunks across every
//     abandoned, killed-under and cursor-resumed leg: no chunk skipped,
//     none delivered twice;
//   - after a whole-cluster power cut, every tile a batch PUT acked
//     reads back as its acked value or a post-ack maybe;
//   - the wedge probe — one point GET after every round, mid-fault
//     included — gets a verdict (200, 429 or 503) within the deadline:
//     the admission plane never stops draining.
//
// One epilogue then runs every check for every kind: heal, drain the
// owed hints, and require each tile to be uniform and equal to its
// acked value or a post-ack maybe, to keep that value with each single
// replica down, and to be byte-equal across replicas; a full scan must
// reach its trailer, and the router's admission pool must be empty.
//
// The router fans out on real goroutines, so the op log is a narration
// rather than a byte-replayable trace; the invariants are
// schedule-independent. LocalCluster.Quiesce after every step keeps it
// so: no request — a hung-up scan included — outlives its step.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"outcore/internal/cluster"
	"outcore/internal/layout"
	"outcore/internal/server"
)

const (
	pointTenant = "point"
	scanTenant  = "scan"

	maxPending   = 10   // epilogue probe rounds allowed to drain hints
	postBatchCut = 0.35 // chance a batch PUT is followed by a whole-cluster power cut

	// wedgeDeadline bounds every request. A healthy plane answers in
	// milliseconds even mid-fault — a down replica is a fast 503, not a
	// slow success — so tripping it means admission stopped draining.
	wedgeDeadline = 15 * time.Second
)

// kindRow is what tells the cluster kinds apart: each step's weight
// (a round draws one step in proportion) and whether the router and
// nodes run the two-tenant plane.
type kindRow struct {
	put, batch, get, scan, fault, heal, cut float64
	tenants                                 bool
}

var kindRows = map[Kind]kindRow{
	Cluster:   {put: 0.36, get: 0.54, fault: 0.04, heal: 0.06},
	Operators: {batch: 0.45, scan: 0.45, cut: 0.10},
	Tenants:   {get: 0.35, scan: 0.30, fault: 0.20, heal: 0.15, tenants: true},
}

// clusterEpisode is the running state of one seeded cluster episode.
type clusterEpisode struct {
	recorder
	row   kindRow
	rng   *rand.Rand
	lc    *cluster.LocalCluster
	cli   *cluster.NodeClient // the router, as the point tenant
	httpc *http.Client

	written   [][]float64
	lastAcked []float64
	maybes    [][]float64
	nextVal   float64
}

func runCluster(o Options) *Result {
	ep := &clusterEpisode{
		recorder:  recorder{res: &Result{Kind: o.Kind, Seed: o.Seed}},
		row:       kindRows[o.Kind],
		rng:       rand.New(rand.NewSource(o.Seed)),
		httpc:     &http.Client{Timeout: wedgeDeadline},
		written:   make([][]float64, tiles),
		lastAcked: make([]float64, tiles),
		maybes:    make([][]float64, tiles),
	}
	lo := cluster.LocalOptions{
		Nodes:       o.Nodes,
		Replicas:    o.Replicas,
		TileDim:     tileElems, // 1-D grid: one routing tile per model tile
		DurablePuts: true,
		HintDir:     o.HintDir,
		Seed:        o.Seed + 1,
	}
	if ep.row.tenants {
		// A small pool and bounded queues, so contention really queues
		// and overload answers 503 instead of growing.
		lo.MaxInflight, lo.QueueDepth = 2, 16
		lo.Tenants = server.TenantConfig{
			Weights:         map[string]float64{pointTenant: 4, scanTenant: 1},
			MaxScanInflight: 2,
		}
	}
	defer func() { ep.res.OpLog = ep.log.String() }()
	lc, err := cluster.NewLocal(lo)
	if err != nil {
		ep.violate("building cluster: %v", err)
		return ep.res
	}
	ep.lc = lc
	defer lc.Close()
	if err := lc.CreateArray(arrayName, tiles*tileElems); err != nil {
		ep.violate("creating %s: %v", arrayName, err)
		return ep.res
	}
	ep.cli = lc.Client().ForTenant(ep.tenant(pointTenant))
	if ep.row.tenants {
		// Seed every tile so point reads and scans serve real data.
		for t := 0; t < tiles; t++ {
			if !ep.put(t) {
				ep.violate("seeding tile %d failed with every node up", t)
				return ep.res
			}
		}
	}

	for round := 0; round < o.Ops; round++ {
		ep.res.Ops++
		ep.step()
		ep.quiesce()
		ep.get(ep.rng.Intn(tiles), fmt.Sprintf("wedge probe round %d", round))
		ep.quiesce()
	}
	if !o.SkipFinalCheck {
		ep.epilogue()
	}
	return ep.res
}

// step draws one step in proportion to the kind's weights.
func (ep *clusterEpisode) step() {
	u, r := ep.rng.Float64(), ep.row
	switch {
	case u < r.put:
		ep.put(ep.rng.Intn(tiles))
	case u < r.put+r.batch:
		ep.batchPut()
	case u < r.put+r.batch+r.get:
		ep.get(ep.rng.Intn(tiles), "get")
	case u < r.put+r.batch+r.get+r.scan:
		ep.scan()
	case u < r.put+r.batch+r.get+r.scan+r.fault:
		ep.fault()
	case u < r.put+r.batch+r.get+r.scan+r.fault+r.heal:
		ep.heal()
	default:
		ep.powerCut("scheduled")
	}
}

// tenant returns id when the tenant plane is configured, else the
// default lane.
func (ep *clusterEpisode) tenant(id string) string {
	if ep.row.tenants {
		return id
	}
	return ""
}

func (ep *clusterEpisode) quiesce() {
	if err := ep.lc.Quiesce(); err != nil {
		ep.violate("quiesce: %v", err)
	}
}

// fresh mints a unique value and records it as attempted on tile t.
func (ep *clusterEpisode) fresh(t int) float64 {
	ep.nextVal++
	ep.written[t] = append(ep.written[t], ep.nextVal)
	return ep.nextVal
}

// filled returns a tile whose every element is v.
func filled(v float64) []float64 {
	data := make([]float64, tileElems)
	for i := range data {
		data[i] = v
	}
	return data
}

// settle applies one write's outcome to the model. Under
// last-write-wins an ack supersedes every earlier attempt; a refusal
// leaves the value a maybe.
func (ep *clusterEpisode) settle(t int, v float64, acked bool) {
	if acked {
		ep.lastAcked[t] = v
		ep.maybes[t] = nil
		return
	}
	ep.res.PutErrors++
	ep.maybes[t] = append(ep.maybes[t], v)
}

// put fills tile t with a fresh unique value through the router.
func (ep *clusterEpisode) put(t int) bool {
	ep.res.Puts++
	v := ep.fresh(t)
	_, _, err := ep.cli.PutTile(arrayName, tileBox(t), filled(v), 0, true)
	ep.settle(t, v, err == nil)
	if err != nil {
		ep.logf("put t%d v=%v -> refused (%v)", t, v, err)
		return false
	}
	ep.logf("put t%d v=%v -> acked", t, v)
	return true
}

// batchPut issues one multi-op batch PUT — several whole tiles, each a
// fresh unique value — and applies the per-op acks in op order. Then,
// with some probability, the whole cluster loses power and every tile
// the batch acked must come back as the acked value or a later maybe.
func (ep *clusterEpisode) batchPut() {
	type wire struct {
		Op   string  `json:"op"`
		Lo   []int64 `json:"lo"`
		Hi   []int64 `json:"hi"`
		Data string  `json:"data_b64"`
	}
	n := 1 + ep.rng.Intn(4)
	ops := make([]wire, n)
	tls := make([]int, n)
	vals := make([]float64, n)
	for i := range ops {
		tls[i] = ep.rng.Intn(tiles)
		vals[i] = ep.fresh(tls[i])
		box, raw := tileBox(tls[i]), server.EncodeTile(filled(vals[i]), false)
		ops[i] = wire{Op: "put", Lo: box.Lo, Hi: box.Hi, Data: base64.StdEncoding.EncodeToString(raw)}
	}
	ep.res.Puts += n

	body, _ := json.Marshal(map[string]any{"ops": ops})
	var out struct {
		Results []struct {
			Status int `json:"status"`
		} `json:"results"`
	}
	resp, err := ep.do(http.MethodPost, "/v1/arrays/"+arrayName+"/batch", pointTenant, bytes.NewReader(body))
	if err != nil {
		ep.violate("batch: got no verdict: %v", err)
		return
	}
	switch resp.StatusCode {
	case http.StatusOK:
		if err = json.NewDecoder(resp.Body).Decode(&out); err == nil && len(out.Results) != n {
			err = fmt.Errorf("%d results for %d ops", len(out.Results), n)
		}
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
	default:
		err = fmt.Errorf("unexpected status %d", resp.StatusCode)
	}
	resp.Body.Close()
	if err != nil {
		ep.violate("batch: %v", err)
		return
	}
	acked := make([]bool, n)
	for i := range acked {
		acked[i] = i < len(out.Results) && out.Results[i].Status == http.StatusNoContent
		ep.settle(tls[i], vals[i], acked[i])
	}
	ep.logf("batch n=%d status %d acks=%v", n, resp.StatusCode, acked)

	if ep.rng.Float64() >= postBatchCut {
		return
	}
	ep.powerCut("post-batch")
	for i, t := range tls {
		if !acked[i] {
			continue
		}
		got, status := ep.get(t, "batch-put-power-cut")
		if status != http.StatusOK {
			ep.violate("batch-put-power-cut: tile %d unreadable after restart: status %d", t, status)
		} else if got[0] != ep.lastAcked[t] && !contains(ep.maybes[t], got[0]) {
			ep.violate("batch-put-power-cut: tile %d = %v after restart, batch acked %v", t, got[0], ep.lastAcked[t])
		}
	}
}

// do sends one request to the router under tenant's identity (when
// the tenant plane is configured). An error means no verdict arrived
// within the deadline — the router itself never dies in an episode.
func (ep *clusterEpisode) do(method, path, tenant string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, ep.lc.RouterURL+path, body)
	if err != nil {
		return nil, err
	}
	if id := ep.tenant(tenant); id != "" {
		req.Header.Set(server.TenantHeader, id)
	}
	return ep.httpc.Do(req)
}

// get reads tile t through the router as the point tenant and checks
// what it served: uniform, and a value written there or zero. It
// returns the tile and the status; 429 and 503 are clean refusals,
// anything else — no verdict included — is a violation.
func (ep *clusterEpisode) get(t int, where string) ([]float64, int) {
	ep.res.Gets++
	box := tileBox(t)
	resp, err := ep.do(http.MethodGet, fmt.Sprintf("/v1/arrays/%s/tile?lo=%d&hi=%d", arrayName, box.Lo[0], box.Hi[0]), pointTenant, nil)
	if err != nil {
		ep.violate("%s: GET tile %d got no verdict: %v", where, t, err)
		return nil, 0
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		ep.res.GetErrors++
		ep.logf("%s: get t%d -> %d", where, t, resp.StatusCode)
		return nil, resp.StatusCode
	default:
		ep.violate("%s: GET tile %d: unexpected status %d", where, t, resp.StatusCode)
		return nil, resp.StatusCode
	}
	data := make([]float64, tileElems)
	if err == nil {
		err = server.DecodeTile(body, false, data)
	}
	if err != nil {
		ep.violate("%s: GET tile %d: body: %v", where, t, err)
		return nil, 0
	}
	ep.checkSpan(where, t, data)
	ep.logf("%s: get t%d -> %v", where, t, data[0])
	return data, resp.StatusCode
}

// checkSpan checks the part of tile t a read served: uniform, and a
// value written to t or the initial zero. Staleness is legal.
func (ep *clusterEpisode) checkSpan(where string, t int, span []float64) {
	for i := range span {
		if span[i] != span[0] {
			ep.violate("%s: tile %d torn: elem %d = %v, elem 0 = %v", where, t, i, span[i], span[0])
			return
		}
	}
	if span[0] != 0 && !contains(ep.written[t], span[0]) {
		ep.violate("%s: tile %d = %v, never written there", where, t, span[0])
	}
}

// scan streams a random range as the scan tenant: a leg may be
// abandoned after a random number of chunks, maybe with a node killed
// under it first, and the next leg resumes from the last intact
// cursor until the trailer arrives.
func (ep *clusterEpisode) scan() {
	ep.res.Scans++
	total := int64(tiles * tileElems)
	lo := ep.rng.Int63n(total - 1)
	hi := lo + 1 + ep.rng.Int63n(total-lo)
	chunk := 1 + ep.rng.Int63n(3*tileElems)
	plan := layout.PlanScan(layout.RowMajor(total), layout.NewBox([]int64{lo}, []int64{hi}), chunk)
	ep.logf("scan [%d,%d) chunk=%d plan=%d", lo, hi, chunk, len(plan))
	ep.stream(fmt.Sprintf("/v1/arrays/%s/scan?lo=%d&hi=%d&chunk=%d", arrayName, lo, hi, chunk), plan, true)
}

// stream runs a scan's legs to the trailer; interrupt lets legs be
// abandoned and killed under. It reports whether the trailer arrived.
func (ep *clusterEpisode) stream(path string, plan []layout.Box, interrupt bool) bool {
	next := 0
	for legs := 1; legs <= len(plan)+4; legs++ {
		got, cursor, end := ep.scanLeg(path, plan, next, interrupt)
		next += got
		if end {
			return next == len(plan)
		}
		if cursor == "" {
			// The leg died before its first chunk (a 503 while a node is
			// down, or a mid-frame truncation): heal and retry it.
			ep.lc.Heal()
			continue
		}
		ep.res.ScanResumes++
		path = "/v1/arrays/" + arrayName + "/scan?cursor=" + cursor
	}
	ep.violate("scan: no progress after %d legs (%d/%d chunks)", len(plan)+4, next, len(plan))
	return false
}

// scanLeg runs one HTTP leg from plan position next, checking every
// intact chunk against the plan and the model. It returns the chunks
// consumed, the cursor to resume from ("" if none arrived) and whether
// the scan is over (trailer reached or a violation).
func (ep *clusterEpisode) scanLeg(path string, plan []layout.Box, next int, interrupt bool) (int, string, bool) {
	resp, err := ep.do(http.MethodGet, path, scanTenant, nil)
	if err != nil {
		ep.violate("scan: got no verdict: %v", err)
		return 0, "", true
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		ep.res.GetErrors++
		ep.logf("scan leg -> %d", resp.StatusCode)
		return 0, "", false
	default:
		ep.violate("scan: unexpected status %d", resp.StatusCode)
		return 0, "", true
	}

	abandonAfter, killAt := -1, -1
	if remaining := len(plan) - next; interrupt && remaining > 1 && ep.rng.Intn(2) == 0 {
		abandonAfter = 1 + ep.rng.Intn(remaining-1)
		if ep.rng.Intn(2) == 0 {
			killAt = ep.rng.Intn(abandonAfter)
		}
	}
	sr := server.NewScanReader(resp.Body)
	cursor := ""
	for got := 0; ; got++ {
		if got == abandonAfter {
			// Hang up, then let the server notice before resuming.
			resp.Body.Close()
			ep.res.ScanAbandons++
			ep.logf("scan leg -> abandoned after %d chunks", got)
			ep.quiesce()
			return got, cursor, false
		}
		if got == killAt {
			if i := ep.rng.Intn(ep.lc.Nodes()); !ep.lc.Killed(i) && !ep.lc.Partitioned(i) {
				ep.res.Kills++
				ep.lc.Kill(i)
				ep.logf("scan leg -> kill n%d under the stream", i)
			}
		}
		ch, err := sr.Next()
		if err == io.EOF {
			if next+got != len(plan) {
				ep.violate("scan: trailer after %d/%d chunks", next+got, len(plan))
			}
			return got, cursor, true
		}
		if err != nil {
			// A truncated or corrupt tail: everything before it was CRC
			// intact, so resuming from cursor is safe.
			ep.logf("scan leg -> cut after %d chunks: %v", got, err)
			return got, cursor, false
		}
		idx := next + got
		if idx >= len(plan) || ch.Seq != uint64(idx) || ch.Box.String() != plan[idx].String() {
			ep.violate("scan: got seq %d box %v at plan position %d of %d — skipped or re-delivered",
				ch.Seq, ch.Box, idx, len(plan))
			return got, cursor, true
		}
		lo, hi := ch.Box.Lo[0], ch.Box.Hi[0]
		for t := lo / tileElems; t*tileElems < hi; t++ {
			s, e := max(lo, t*tileElems), min(hi, (t+1)*tileElems)
			ep.checkSpan(fmt.Sprintf("scan chunk %v", ch.Box), int(t), ch.Data[s-lo:e-lo])
		}
		cursor = ch.Cursor
		ep.res.ScanChunks++
	}
}

// fault takes one node out, if it is not out already: a coin chooses a
// power cut (cache and unsynced bytes lost) or a partition.
func (ep *clusterEpisode) fault() {
	i, kill := ep.rng.Intn(ep.lc.Nodes()), ep.rng.Intn(2) == 0
	switch {
	case ep.lc.Killed(i) || ep.lc.Partitioned(i):
		ep.logf("fault n%d -> already out", i)
	case kill:
		ep.res.Kills++
		ep.lc.Kill(i)
		ep.logf("kill n%d", i)
	default:
		ep.res.Partitions++
		ep.lc.Partition(i)
		ep.logf("partition n%d", i)
	}
}

// heal brings one downed node back (restart or partition lift) and
// probes, so the router re-admits it and drains its hints.
func (ep *clusterEpisode) heal() {
	for _, i := range ep.rng.Perm(ep.lc.Nodes()) {
		if !ep.lc.Killed(i) && !ep.lc.Partitioned(i) {
			continue
		}
		ep.res.Heals++
		ep.lc.Restart(i)
		ep.lc.Unpartition(i)
		ep.lc.Router.Probe()
		ep.logf("heal n%d", i)
		return
	}
	ep.logf("heal -> nothing out")
}

// powerCut kills every node, then heals the cluster.
func (ep *clusterEpisode) powerCut(why string) {
	ep.res.PowerCuts++
	for i := 0; i < ep.lc.Nodes(); i++ {
		ep.lc.Kill(i)
	}
	ep.lc.Heal()
	ep.logf("power cut (%s)", why)
}

// epilogue heals the world and runs every check for every kind.
func (ep *clusterEpisode) epilogue() {
	ep.logf("epilogue heal")
	queued := ep.lc.HintsPendingTotal()
	ep.lc.Heal()
	for round := 0; ep.lc.HintsPendingTotal() > 0; round++ {
		if round == maxPending {
			ep.violate("epilogue: %d hints still queued after %d probe rounds", ep.lc.HintsPendingTotal(), round)
			break
		}
		ep.lc.Router.Probe()
	}
	ep.res.HintsDrained = queued - ep.lc.HintsPendingTotal()

	for t := 0; t < tiles; t++ {
		got, status := ep.get(t, "epilogue")
		if status != http.StatusOK {
			ep.violate("epilogue: tile %d unreadable with all nodes up: status %d", t, status)
			continue
		}
		v := got[0]
		if v != ep.lastAcked[t] && !contains(ep.maybes[t], v) {
			ep.violate("epilogue: tile %d converged to %v, want the acked %v or one of %d post-ack maybes",
				t, v, ep.lastAcked[t], len(ep.maybes[t]))
			continue
		}
		// The converged value survives the loss of any one replica, and
		// handoff and repair rebuilt byte-equal copies.
		reps := ep.lc.ReplicaNodes(arrayName, tileBox(t))
		for _, i := range reps {
			ep.lc.SetNodeDown(i, true)
			lost, status := ep.get(t, fmt.Sprintf("epilogue n%d down", i))
			ep.lc.SetNodeDown(i, false)
			if status != http.StatusOK || lost[0] != v {
				ep.violate("epilogue: tile %d with replica n%d down: status %d, want the converged %v", t, i, status, v)
			}
		}
		for _, i := range reps {
			direct, _, err := ep.lc.NodeClientDirect(i).GetTile(arrayName, tileBox(t), true)
			if err != nil {
				ep.violate("epilogue: direct read of tile %d on n%d: %v", t, i, err)
				continue
			}
			for k := range direct {
				if direct[k] != v {
					ep.violate("epilogue: replica n%d of tile %d diverged: elem %d = %v, want %v", i, t, k, direct[k], v)
					break
				}
			}
		}
	}

	ep.res.Scans++
	total := int64(tiles * tileElems)
	plan := layout.PlanScan(layout.RowMajor(total), layout.NewBox([]int64{0}, []int64{total}), tileElems)
	if !ep.stream(fmt.Sprintf("/v1/arrays/%s/scan?lo=0&hi=%d&chunk=%d", arrayName, total, tileElems), plan, false) {
		ep.violate("epilogue: full scan did not reach its trailer with all nodes up")
	}
	ep.quiesce()
	ep.checkAdmission()
}

// checkAdmission requires the router's admission pool to be empty with
// every request finished, and, under the tenant plane, both tenants
// billed and their queues drained.
func (ep *clusterEpisode) checkAdmission() {
	var st struct {
		Inflight int64 `json:"inflight"`
		Queued   int64 `json:"queued"`
		Tenants  []struct {
			Tenant   string `json:"tenant"`
			Queued   int    `json:"queued"`
			Requests int64  `json:"requests"`
		} `json:"tenants"`
	}
	if err := ep.lc.Client().Stats(&st); err != nil {
		ep.violate("epilogue: reading router stats: %v", err)
		return
	}
	if st.Inflight != 0 || st.Queued != 0 {
		ep.violate("epilogue: admission pool not empty after all traffic finished: %d inflight, %d queued", st.Inflight, st.Queued)
	}
	if !ep.row.tenants {
		return
	}
	for _, id := range []string{pointTenant, scanTenant} {
		found := false
		for _, ts := range st.Tenants {
			if ts.Tenant != id {
				continue
			}
			found = true
			if ts.Queued != 0 || ts.Requests == 0 {
				ep.violate("epilogue: tenant %q shows %d queued, %d requests billed", id, ts.Queued, ts.Requests)
			}
		}
		if !found {
			ep.violate("epilogue: tenant %q missing from the router scorecard", id)
		}
	}
}
