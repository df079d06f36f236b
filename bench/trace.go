package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"outcore/internal/layout"
	"outcore/internal/obs"
	"outcore/internal/ooc"
	"outcore/internal/suite"
)

// runTraced is the layer ledger: round 1 of the workload's op stream
// replayed at every depth that applies, each on freshly built,
// identically warmed state, every call recorded as a span. A layer's
// self time is its depth minus the depth below. End-to-end metrics
// never come from here.
func runTraced(sp spec, cfg runConfig, outDir string) (*result, error) {
	if sp.primary == opCycle {
		return runKernelsTraced(sp, cfg, outDir)
	}
	str := genStream(sp, cfg.seed, cfg.roundOps(sp))
	round1 := str.rounds[:1]
	res := &result{fingerprint: str.fingerprint(), values: map[string]float64{}}
	v := res.values
	var spans []span

	lr := layoutReplay(sp, round1[0])
	spans = append(spans, lr.spans...)
	v["layout.runs_us_per_op"] = lr.runsUS
	v["layout.runs_per_op"] = lr.runsPerOp
	v["layout.planscan_us_per_op"] = lr.planUS

	// at replays round 1 at one depth, with or without the obs sink and
	// span recording, and returns what the depth's counters did.
	type depthRun struct {
		ph     phase
		delta  counters
		syncUS float64
		stats  [2]statsDoc // /v1/stats before and after (HTTP depths)
		dials  int64
	}
	at := func(d depth, sink *obs.Sink, record bool) (depthRun, error) {
		var dr depthRun
		st, m, pl, _, err := setUp(sp, d, sink, str.warm)
		if err != nil {
			return dr, fmt.Errorf("%s: %w", d, err)
		}
		if d >= dHTTP {
			dr.stats[0] = st.stats()
		}
		c0, dials0 := st.counters(), st.dials.Load()
		dr.ph = replay(pl, m, round1, sp.primary, noHooks, d, record)
		c1 := st.counters()
		dr.dials = st.dials.Load() - dials0
		if d >= dHTTP {
			dr.stats[1] = st.stats()
		}
		dr.delta = c1.minus(c0)
		if ep, ok := pl.(*enginePlane); ok {
			dr.syncUS = perOp(float64(ep.syncNS)/1e3, dr.ph.writes)
		}
		res.attempted += dr.ph.attempted
		res.failed += dr.ph.failed
		if res.err == nil {
			res.err = dr.ph.firstErr
		}
		spans = append(spans, dr.ph.spans...)
		return dr, st.close()
	}

	runs := map[depth]depthRun{}
	for d := dArray; d < sp.top(); d++ {
		dr, err := at(d, nil, true)
		if err != nil {
			return nil, err
		}
		runs[d] = dr
	}
	// The top depth runs twice: as the end-to-end run does, and with
	// the engines' obs sink attached and spans kept. The difference is
	// what tracing costs.
	plain, err := at(sp.top(), nil, false)
	if err != nil {
		return nil, err
	}
	sink := &obs.Sink{Trace: obs.NewTrace(1 << 17), Metrics: obs.NewRegistry()}
	sinkEpoch := time.Now().Add(-time.Duration(sink.Trace.Now()))
	top, err := at(sp.top(), sink, true)
	if err != nil {
		return nil, err
	}
	runs[sp.top()] = top

	ops := top.ph.attempted
	arr, eng, hnd, htp := runs[dArray], runs[dEngine], runs[dHandler], runs[dHTTP]
	v["ooc.readtile_us_per_op"] = perOp(float64(arr.ph.readBusy)/1e3, arr.ph.reads)
	v["ooc.writetile_us_per_op"] = perOp(float64(arr.ph.writeBusy)/1e3, arr.ph.writes)
	v["ooc.readtile_allocs_per_op"] = perOp(float64(arr.ph.mallocs), arr.ph.attempted)
	v["ooc.engine_us_per_op"] = eng.ph.busyUS()
	v["ooc.sync_us_per_op"] = eng.syncUS
	v["ooc.hit_rate"] = top.delta.eng.HitRate()
	v["ooc.evictions_per_op"] = perOp(float64(top.delta.eng.Evictions), ops)
	v["ooc.writebacks_per_op"] = perOp(float64(top.delta.eng.Writebacks), ops)
	v["ooc.wal_fsyncs_per_op"] = perOp(float64(top.delta.wal.Fsyncs), ops)
	v["ooc.wal_checkpoints"] = float64(top.delta.wal.Checkpoints)
	if top.ph.putBytes > 0 {
		v["ooc.wal_words_per_user_word"] = float64(top.delta.wal.AppendedWords) / float64(top.ph.putBytes/8)
	}
	v["server.handler_us_per_op"] = hnd.ph.busyUS()
	v["server.handler_allocs_per_op"] = perOp(float64(hnd.ph.mallocs), hnd.ph.attempted)
	v["server.self_us_per_op"] = hnd.ph.busyUS() - eng.ph.busyUS()
	v["server.http_us_per_op"] = htp.ph.busyUS()
	v["server.coalesced_per_op"] = perOp(float64(htp.stats[1].Coalesced-htp.stats[0].Coalesced), htp.ph.attempted)
	v["server.rejected_per_op"] = perOp(float64(htp.stats[1].rejected()-htp.stats[0].rejected()), htp.ph.attempted)
	v["client.self_us_per_op"] = htp.ph.busyUS() - hnd.ph.busyUS()
	v["client.new_conns_per_op"] = perOp(float64(top.dials), ops)
	tt := top.ph.timing()
	v["client.ops_per_s"] = tt.opsPerSec
	v["client.lat_p99_ms"] = tt.pooledP99
	if sp.top() == dRouter {
		v["cluster.router_us_per_op"] = top.ph.busyUS()
		v["cluster.self_us_per_op"] = top.ph.busyUS() - htp.ph.busyUS()
		v["cluster.node_requests_per_op"] = perOp(float64(top.stats[1].nodeRequests-top.stats[0].nodeRequests), ops)
		v["cluster.read_repairs_per_op"] = perOp(float64(top.stats[1].Cluster.ReadRepairs-top.stats[0].Cluster.ReadRepairs), ops)
		v["cluster.hints_per_op"] = perOp(float64(top.stats[1].Cluster.HandoffHints-top.stats[0].Cluster.HandoffHints), ops)
		enc, dec, ratio := codecReplay(round1[0])
		v["ooc.codec_encode_us_per_tile"], v["ooc.codec_decode_us_per_tile"], v["ooc.codec_ratio"] = enc, dec, ratio
	}
	if p := plain.ph.timing().p50; p > 0 {
		v["obs.trace_overhead_frac"] = (tt.p50 - p) / p
	}
	if n := sink.Trace.Dropped(); n > 0 {
		res.notes = append(res.notes, fmt.Sprintf("obs ring dropped %d engine events", n))
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace_%s.json", sp.name))
	if err := writeChromeTrace(path, spans, sink.Trace.Events(), sinkEpoch); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, "chrome trace: "+path)
	return res, nil
}

// layoutRun is the D0 replay: only the run arithmetic, no data.
type layoutRun struct {
	runsUS, runsPerOp, planUS float64
	spans                     []span
}

func layoutReplay(sp spec, ops []op) layoutRun {
	l := sp.layoutOf()
	var lr layoutRun
	var runs int
	var runsT, planT time.Duration
	for _, o := range ops {
		boxes := []layout.Box{o.box()}
		t0 := time.Now()
		if o.kind == opScan {
			boxes = layout.PlanScan(l, boxes[0], scanChunk)
			planT += time.Since(t0)
		}
		t1 := time.Now()
		for _, b := range boxes {
			runs += len(l.Runs(b))
		}
		runsT += time.Since(t1)
		lr.spans = append(lr.spans, span{depth: dLayout, op: o.id, start: t0, dur: time.Since(t0)})
	}
	lr.runsUS = perOp(float64(runsT)/1e3, len(ops))
	lr.planUS = perOp(float64(planT)/1e3, len(ops))
	lr.runsPerOp = perOp(float64(runs), len(ops))
	return lr
}

// codecReplay times the tile codec on the payloads the ops carry: what
// the router<->node hop encodes and decodes per tile.
func codecReplay(ops []op) (encUS, decUS, ratio float64) {
	src := make([]float64, tileEdge*tileEdge)
	dst := make([]float64, tileEdge*tileEdge)
	var frame []byte
	var encT, decT time.Duration
	var raw, coded int
	for _, o := range ops {
		putPayload(o, src)
		t0 := time.Now()
		frame = ooc.AppendFrame(frame[:0], src)
		t1 := time.Now()
		if _, err := ooc.DecodeFrame(frame, dst); err != nil {
			return 0, 0, 0
		}
		decT += time.Since(t1)
		encT += t1.Sub(t0)
		raw += len(src) * 8
		coded += len(frame)
	}
	return perOp(float64(encT)/1e3, len(ops)), perOp(float64(decT)/1e3, len(ops)), float64(raw) / float64(coded)
}

// statsDoc is the part of /v1/stats (node or router) the ledger reads.
type statsDoc struct {
	Requests          int64 `json:"requests"`
	Coalesced         int64 `json:"coalesced"`
	RejectedRateLimit int64 `json:"rejected_ratelimit"`
	RejectedQueue     int64 `json:"rejected_queue"`
	Cluster           struct {
		ReadRepairs  int64 `json:"read_repairs"`
		HandoffHints int64 `json:"handoff_hints"`
	} `json:"cluster"`
	nodeRequests int64 // requests summed over the storage nodes
}

func (s statsDoc) rejected() int64 { return s.RejectedRateLimit + s.RejectedQueue }

func fetchStats(c *http.Client, base string) (statsDoc, error) {
	var s statsDoc
	resp, err := c.Get(base + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// stats reads the front end's /v1/stats and, behind a router, sums the
// nodes' request counters. Errors read as zeros: the ledger is
// informational and the replay's own checks decide correctness.
func (st *stack) stats() statsDoc {
	s, _ := fetchStats(st.client, st.baseURL)
	if st.top == dRouter {
		for _, nd := range st.nodes {
			ns, _ := fetchStats(st.client, nd.hs.URL)
			s.nodeRequests += ns.Requests
		}
	}
	return s
}

// runKernelsTraced: the kernels have no request path, so their ledger
// is the compiler's (plan time, calls against the col baseline and
// against the compulsory bound) plus the engine's own obs spans, which
// split a cycle into tile reads, write-backs and compute.
func runKernelsTraced(sp spec, cfg runConfig, outDir string) (*result, error) {
	res := &result{values: map[string]float64{}}
	v := res.values
	ks, err := newKernelSet(suite.COpt, cfg.seed)
	if err != nil {
		return nil, err
	}
	col, err := newKernelSet(suite.Col, cfg.seed)
	if err != nil {
		return nil, err
	}
	var planUS float64
	for _, kp := range ks.progs {
		planUS += kp.planUS
	}
	v["core.plan_us_per_kernel"] = planUS / float64(len(ks.progs))

	plain, err := ks.cycle(nil, false)
	if err != nil {
		return nil, err
	}
	sink := &obs.Sink{Trace: obs.NewTrace(1 << 20), Metrics: obs.NewRegistry()}
	sinkEpoch := time.Now().Add(-time.Duration(sink.Trace.Now()))
	t0 := time.Now()
	traced, err := ks.cycle(sink, false)
	if err != nil {
		return nil, err
	}
	cycleSpan := span{depth: dEngine, op: 0, start: t0, dur: time.Since(t0)}
	colRun, err := col.cycle(nil, false)
	if err != nil {
		return nil, err
	}
	res.attempted = 3
	for _, cs := range []cycleStat{plain, traced, colRun} {
		if !cs.ok {
			res.failed++
		}
	}

	var fetch, wb int64
	events := sink.Trace.Events()
	for _, e := range events {
		switch e.Kind {
		case obs.KindTileFetch:
			fetch += e.Dur
		case obs.KindWriteback:
			wb += e.Dur
		}
	}
	v["codegen.run_us_per_cycle"] = float64(traced.busy) / 1e3
	v["codegen.io_calls_vs_col"] = float64(traced.io.Calls()) / float64(colRun.io.Calls())
	v["codegen.io_calls_over_compulsory"] = float64(traced.io.Calls()) / float64(ks.compulsory)
	v["ooc.readtile_us_per_op"] = float64(fetch) / 1e3
	v["ooc.writetile_us_per_op"] = float64(wb) / 1e3
	v["ooc.engine_us_per_op"] = float64(traced.busy) / 1e3
	v["ooc.hit_rate"] = traced.eng.HitRate()
	v["ooc.evictions_per_op"] = float64(traced.eng.Evictions)
	v["ooc.writebacks_per_op"] = float64(traced.eng.Writebacks)
	v["obs.trace_overhead_frac"] = float64(traced.busy-plain.busy) / float64(plain.busy)
	if n := sink.Trace.Dropped(); n > 0 {
		res.notes = append(res.notes, fmt.Sprintf("obs ring dropped %d engine events; ooc.readtile/writetile cover the retained ones", n))
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace_%s.json", sp.name))
	if err := writeChromeTrace(path, []span{cycleSpan}, events, sinkEpoch); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, "chrome trace: "+path)
	return res, nil
}

// writeChromeTrace writes the spans (one track per depth; an op's spans
// share its id, and each names the depth above it as parent) and the
// engine's own obs events as Chrome trace_event JSON. obs.Trace's
// writer is not used because its Event has no op id or parent field.
func writeChromeTrace(path string, spans []span, events []obs.Event, sinkEpoch time.Time) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	epoch := sinkEpoch
	for _, s := range spans {
		if s.start.Before(epoch) {
			epoch = s.start
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	fmt.Fprint(w, `{"traceEvents":[`)
	first := true
	sep := func() {
		if !first {
			w.WriteByte(',')
		}
		first = false
		w.WriteByte('\n')
	}
	for d, name := range depthNames {
		sep()
		fmt.Fprintf(w, `{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, d, name)
	}
	for _, s := range spans {
		parent := "client"
		if int(s.depth)+1 < len(depthNames) {
			parent = depthNames[s.depth+1]
		}
		sep()
		fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d,"parent":%q}}`,
			s.depth.String(), int(s.depth), us(s.start.Sub(epoch)), us(s.dur), s.op, parent)
	}
	off := sinkEpoch.Sub(epoch)
	for _, e := range events {
		sep()
		ts := us(off + time.Duration(e.Start))
		if e.Dur > 0 {
			fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":2,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"array":%q,"bytes":%d}}`,
				e.Kind.String(), int(e.Kind), ts, us(time.Duration(e.Dur)), e.Name, e.Bytes)
		} else {
			fmt.Fprintf(w, `{"name":%q,"ph":"i","s":"t","pid":2,"tid":%d,"ts":%.3f,"args":{"array":%q}}`,
				e.Kind.String(), int(e.Kind), ts, e.Name)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
