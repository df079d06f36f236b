# Tier-1 gate: everything `make check` runs must stay green.

GO ?= go
FUZZTIME ?= 20s

# Every fuzz target as "package:Target"; `make fuzz` loops over these,
# so adding a fuzzer is a one-line change here and zero changes in CI.
FUZZ_TARGETS := \
	./internal/fm/:FuzzRange \
	./internal/layout/:FuzzRuns \
	./internal/layout/:FuzzSegments \
	./internal/layout/:FuzzBoxOverlaps \
	./internal/keyhash/:FuzzAppendKey \
	./internal/ooc/:FuzzTileKey \
	./internal/ooc/:FuzzWALRecord \
	./internal/ooc/:FuzzTileCodec \
	./internal/server/:FuzzScanCursor \
	./internal/server/:FuzzBatchRequest \
	./internal/server/:FuzzTenantHeader

.PHONY: build test race check fuzz vet fmt cover loc suite bench-layers bench-counts baseline compsweep chaos

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The tile engine is concurrent; the race detector is part of the gate,
# not an optional extra.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

check: build vet test race

# Short fuzzing sessions over the property targets. CI runs these
# briefly; use FUZZTIME=5m locally for a deeper soak. Seed corpora are
# checked in under testdata/fuzz/<Target>/; new crashers land there too.
fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; target=$${t##*:}; \
		echo "== fuzz $$pkg $$target ($(FUZZTIME))"; \
		$(GO) test $$pkg -fuzz "^$$target\$$" -fuzztime $(FUZZTIME); \
	done

# Total statement coverage; CI enforces a floor on this number.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Non-test Go lines per internal/ package, then cmd/ and the two
# together — the unit ROADMAP's code-size bars are stated in.
loc:
	@for d in internal/*/; do \
		printf '%6d  %s\n' "$$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)" "$$d"; \
	done | sort -rn
	@printf '%6d  internal/ total\n' "$$(find internal -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@printf '%6d  cmd/\n' "$$(find cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@printf '%6d  internal/ + cmd/\n' "$$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"

# The benchmark suite CI gates against BENCH_baseline.json.
suite:
	$(GO) run ./cmd/occbench -suite -json BENCH_current.json -baseline BENCH_baseline.json

# Layer microbenchmarks (layout run/segment walks, tile read and
# write-back per layout kind, the logged tile write under a WAL, the
# engine miss path, the tile executor through a synchronous engine),
# six samples each: pipe two runs into benchstat to compare commits.
bench-layers:
	$(GO) test -run '^$$' -bench 'Runs|Segments|ReadTile|WriteTile|WALAppendTile|AcquireMiss|Execute' -benchmem -count 6 ./internal/layout ./internal/ooc ./internal/codegen

# The repository benchmark's runner-independent gate: one short round of
# each BENCHMARK.json workload at a fixed seed, comparing the metrics
# that repeat to the bit for a seed — I/O calls per op, I/O bytes per
# user byte, ok fraction — exactly against BENCH_counts.json. Any drift
# is a behaviour change, never noise. After an intentional one,
# regenerate with `make bench-counts BENCH_COUNTS_UPDATE=1`.
BENCH_WORKLOADS := hit_point miss_point scan_stream durable_put cluster_mixed kernels
bench-counts:
	@set -e; got=$$(for w in $(BENCH_WORKLOADS); do \
		bash bench/run.sh -workload $$w -seed 1 -seconds 2 | tail -1 | jq -c --arg w $$w \
			'{($$w): (.metrics | {io_calls_per_op_p1, io_bytes_per_user_byte_p1, ok_frac} | map_values(.value))}'; \
	done | jq -s add); \
	if [ -n "$(BENCH_COUNTS_UPDATE)" ]; then echo "$$got" > BENCH_counts.json; fi; \
	echo "$$got" | jq -e --slurpfile want BENCH_counts.json '. == $$want[0]' > /dev/null \
		|| { echo "bench-counts: count metrics drifted from BENCH_counts.json:"; \
		     echo "$$got" | jq -c --slurpfile want BENCH_counts.json \
			'to_entries[] | select(.value != $$want[0][.key]) | {workload: .key, got: .value, want: $$want[0][.key]}'; \
		     exit 1; }; \
	echo "bench-counts: all six workloads match BENCH_counts.json"

# Regenerate the checked-in baseline (after an intentional perf change).
baseline:
	$(GO) run ./cmd/occbench -suite -json BENCH_baseline.json

# Compression sweep: the focused engine / engine-compress bench leg
# (bytes_disk_raw vs bytes_disk is the on-disk reduction, allocs_per_get
# must be 0). CI gates it at 2x; see the "Compression gate" step in
# ci.yml. The on-wire reduction is TestRunLoadCompressed.
compsweep:
	$(GO) run ./cmd/occbench -suite -compress -json BENCH_comp.json

# Deterministic chaos sweep: the dst/faultfs test suites under -race,
# then CHAOS_EPISODES seeded simulation episodes of every kind: storage
# (power cuts, torn writes, failing syncs; plain, WAL, compressed WAL),
# then cluster, operators and tenants over a router + 3 nodes. A
# failing episode prints its reproducer. Nightly CI runs this plus one
# random seed.
CHAOS_EPISODES ?= 50
chaos:
	$(GO) test -race ./internal/dst/ ./internal/faultfs/
	$(GO) run ./cmd/occhaos -episodes $(CHAOS_EPISODES)
	$(GO) run ./cmd/occhaos -episodes $(CHAOS_EPISODES) -wal
	$(GO) run ./cmd/occhaos -episodes $(CHAOS_EPISODES) -wal -compress
	$(GO) run ./cmd/occhaos -kind cluster -episodes $(CHAOS_EPISODES) -nodes 3 -replicas 2
	$(GO) run ./cmd/occhaos -kind operators -episodes $(CHAOS_EPISODES) -ops 60 -nodes 3 -replicas 2
	$(GO) run ./cmd/occhaos -kind tenants -episodes $(CHAOS_EPISODES) -nodes 3 -replicas 2

fmt:
	gofmt -l -w .
