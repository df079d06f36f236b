package dst

import (
	"fmt"
	"strings"
	"testing"
)

// episodeRow is one row of the table the cluster-kind sweeps run: a
// subtest name, the episode options, and the seeds to run under it.
type episodeRow struct {
	name  string
	o     Options
	seeds []int64
}

// seedRange returns seeds 1..n, or 1..4 under -short.
func seedRange(n int64) []int64 {
	if testing.Short() {
		n = 4
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i) + 1
	}
	return out
}

// perSeed gives every seed of kind its own row.
func perSeed(kind Kind, n int64) []episodeRow {
	var rows []episodeRow
	for _, s := range seedRange(n) {
		rows = append(rows, episodeRow{fmt.Sprintf("seed=%d", s), Options{Kind: kind}, []int64{s}})
	}
	return rows
}

// runRows runs every row as a parallel subtest; every episode must pass
// every invariant of its kind and the shared epilogue.
func runRows(t *testing.T, rows []episodeRow) {
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range row.seeds {
				o := row.o
				o.Seed = seed
				if res := Run(o); res.Failed() {
					t.Errorf("%s", res.Summary())
					for _, v := range res.Violations {
						t.Errorf("  violation: %s", v)
					}
					t.Logf("op log:\n%s", res.OpLog)
				}
			}
		})
	}
}

// TestClusterEpisodes sweeps the cluster kind across node and replica
// shapes. CI's nightly chaos job runs a wider sweep through
// occhaos -kind cluster.
func TestClusterEpisodes(t *testing.T) {
	var rows []episodeRow
	for _, s := range []struct{ nodes, replicas int }{{2, 2}, {3, 2}, {5, 3}} {
		rows = append(rows, episodeRow{fmt.Sprintf("n%d-r%d", s.nodes, s.replicas),
			Options{Kind: Cluster, Nodes: s.nodes, Replicas: s.replicas}, seedRange(12)})
	}
	runRows(t, rows)
}

// TestOpsEpisodes sweeps the operators kind: interrupted and resumed
// scans, batch PUTs and whole-cluster power cuts.
func TestOpsEpisodes(t *testing.T) { runRows(t, perSeed(Operators, 10)) }

// TestTenantsEpisodes sweeps the tenants kind: two tenants' point reads
// and scans against a faulted cluster, with a wedge probe every round.
func TestTenantsEpisodes(t *testing.T) { runRows(t, perSeed(Tenants, 10)) }

// exercised runs seeds 1..n of o.Kind and requires every named counter,
// summed over the seeds, to be nonzero: a sweep whose faults never
// fire proves nothing.
func exercised(t *testing.T, o Options, n int64, counters map[string]func(*Result) int) {
	t.Parallel()
	sums := map[string]int{}
	for seed := int64(1); seed <= n; seed++ {
		o.Seed = seed
		res := Run(o)
		if res.Failed() {
			t.Fatalf("%s\nviolations: %v\nop log:\n%s", res.Summary(), res.Violations, res.OpLog)
		}
		for name, c := range counters {
			sums[name] += c(res)
		}
	}
	for name, sum := range sums {
		if sum == 0 {
			t.Errorf("%d %s episodes exercised no %s: %v", n, o.Kind, name, sums)
		}
	}
}

func TestClusterEpisodeStats(t *testing.T) {
	exercised(t, Options{Kind: Cluster}, 8, map[string]func(*Result) int{
		"kills":      func(r *Result) int { return r.Kills },
		"partitions": func(r *Result) int { return r.Partitions },
		"heals":      func(r *Result) int { return r.Heals },
	})
}

func TestOpsEpisodeStats(t *testing.T) {
	exercised(t, Options{Kind: Operators}, 10, map[string]func(*Result) int{
		"resumes":         func(r *Result) int { return r.ScanResumes },
		"kills":           func(r *Result) int { return r.Kills },
		"power cuts":      func(r *Result) int { return r.PowerCuts },
		"acked batch ops": func(r *Result) int { return r.Puts - r.PutErrors },
		"scan chunks":     func(r *Result) int { return r.ScanChunks },
	})
}

func TestTenantsEpisodeStats(t *testing.T) {
	exercised(t, Options{Kind: Tenants}, 10, map[string]func(*Result) int{
		"served point reads": func(r *Result) int { return r.Gets - r.GetErrors },
		"scan chunks":        func(r *Result) int { return r.ScanChunks },
		"abandoned scans":    func(r *Result) int { return r.ScanAbandons },
		"429/503 refusals":   func(r *Result) int { return r.GetErrors },
		"kills":              func(r *Result) int { return r.Kills },
		"partitions":         func(r *Result) int { return r.Partitions },
	})
}

// TestClusterEpisodeDurableHints replays one episode of each cluster
// kind with the durable hint log, so handoff and the epilogue's drain
// cross the framed on-disk queue.
func TestClusterEpisodeDurableHints(t *testing.T) {
	for _, o := range []Options{{Kind: Cluster, Seed: 5}, {Kind: Operators, Seed: 3}, {Kind: Tenants, Seed: 5}} {
		o.HintDir = t.TempDir()
		if res := Run(o); res.Failed() {
			t.Errorf("%s\nviolations: %v\nop log:\n%s", res.Summary(), res.Violations, res.OpLog)
		}
	}
}

// TestResultSummary pins the verdict line and the violation plumbing
// occhaos prints on a red episode, for the storage and cluster forms.
func TestResultSummary(t *testing.T) {
	for _, kind := range []Kind{Storage, Operators} {
		ok := Result{Kind: kind, Seed: 7, Ops: 40}
		if ok.Failed() || !strings.Contains(ok.Summary(), "seed=7") || !strings.HasSuffix(ok.Summary(), " ok") {
			t.Errorf("%s: clean summary wrong: %q", kind, ok.Summary())
		}
		rc := recorder{res: &Result{Kind: kind}}
		rc.violate("tile %d lost", 9)
		rc.res.Violations = append(rc.res.Violations, "second")
		if !rc.res.Failed() || !strings.Contains(rc.res.Summary(), "FAIL (2 violations)") {
			t.Errorf("%s: failing summary wrong: %q", kind, rc.res.Summary())
		}
		if rc.res.Violations[0] != "tile 9 lost" || !strings.Contains(rc.log.String(), "VIOLATION: tile 9 lost") {
			t.Errorf("%s: violation not formatted: %q", kind, rc.res.Violations[0])
		}
	}
	if k, err := ParseKind("tenants"); err != nil || k != Tenants {
		t.Errorf("ParseKind(tenants) = %v, %v", k, err)
	}
	if _, err := ParseKind("chaos"); err == nil {
		t.Error("ParseKind accepted an unknown kind")
	}
}
