GO ?= go

.PHONY: all build vet fmt test race bench bench-smoke bench-json bench-json-obs bench-json-scale bench-json-remedy chaos-smoke remedy-smoke drill-smoke fuzz-smoke fleet-smoke store-smoke check clean

all: check

# Memory preflight for the gates that build fleets of 512 hosts or
# more: each checks MemAvailable in /proc/meminfo against what it
# needs and stops with a named error instead of being OOM-killed part
# way through. Needs are the peak RSS of the whole target (the test
# binaries, the daemons they start, the compiler) measured on
# linux/amd64 with telemetry and event rings that grow as they fill,
# plus 50%:
#   fleet-smoke       two 1024-host fleets alive at once   782 MB -> 1200 MB
#   store-smoke       one 1024-host recording ihnetd       466 MB ->  700 MB
#   bench-json-obs    the 512-host placement tier          167 MB ->  250 MB
#   bench-json-scale  the 10000-host sharded RunFor tier   not re-measured: 64000 MB
# fleet-smoke fits a hosted CI runner and runs in CI's check job;
# bench-json-scale runs only when dispatched by hand. A machine without
# /proc/meminfo skips the check.
#
# $(call mem_preflight,target,need_mb)
mem_preflight = @if [ -r /proc/meminfo ]; then \
	avail=$$(awk '/^MemAvailable:/ { print int($$2 / 1024) }' /proc/meminfo); \
	if [ "$$avail" -lt $(2) ]; then \
		echo "$(1): needs about $(2) MB of memory, but MemAvailable is $$avail MB; run it on a larger machine" >&2; \
		exit 1; \
	fi; \
fi

build:
	$(GO) build ./...

# ./... already spans the module; ./cmd/... is pinned explicitly so
# narrowing the first pattern can never silently drop the CLIs.
vet:
	$(GO) vet ./...
	$(GO) vet ./cmd/...

# gofmt -l prints unformatted files; fail loudly if there are any.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# Quick sanity pass over the benchmarks that guard the hot paths: the
# observability tax on fabric scheduling, the snapshot round-trip
# (export + encode + decode + replay + verify), the fleet runner's
# one-worker-vs-parallel speedup at 64 hosts, and the observability
# pipeline (zero-alloc bus publish, flat-per-host fleet roll-up).
bench-smoke:
	$(GO) test -bench BenchmarkObsFabricHotPath -benchtime 1x -run '^$$' .
	$(GO) test -bench BenchmarkSnapshotRoundTrip -benchtime 1x -run '^$$' ./internal/snap
	$(GO) test -bench 'BenchmarkFleetRunFor/hosts=64' -benchtime 1x -run '^$$' ./internal/fleet
	$(GO) test -bench 'BenchmarkFabricFlowChurn/flows=1000$$' -benchtime 1x -benchmem -run '^$$' ./internal/fabric
	$(GO) test -bench BenchmarkFabricRecomputeSteadyState -benchtime 1x -benchmem -run '^$$' ./internal/fabric
	$(GO) test -bench 'BenchmarkBusPublish' -benchtime 1x -benchmem -run '^$$' ./internal/obs
	$(GO) test -bench 'BenchmarkFleetRollup/hosts=64' -benchtime 1x -benchmem -run '^$$' ./internal/fleet

# Benchmark trajectory gate: run the fabric hot-path benchmarks, fold
# the results into BENCH_fabric.json (the committed baseline section is
# preserved; current is overwritten), and fail if any allocation budget
# is exceeded — most importantly, the steady-state recompute must stay
# at 0 allocs/op. Timing numbers are recorded but not gated: they are
# machine-dependent, allocation counts are not. The big churn tiers run
# at reduced -benchtime (one churn op at 1M residents costs ~1s of
# wall clock); allocation counts are per-op and deterministic, so fewer
# iterations gate exactly as well. benchjson hard-fails on any budgeted
# benchmark missing from the input, so a tier cannot be silently
# dropped from this recipe.
bench-json:
	{ $(GO) test -bench 'BenchmarkFabricFlowChurn/flows=(100|1000|10000)$$' -benchtime 100x -benchmem -run '^$$' ./internal/fabric; \
	  $(GO) test -bench 'BenchmarkFabricFlowChurn/flows=100000$$' -benchtime 20x -benchmem -run '^$$' ./internal/fabric; \
	  $(GO) test -bench 'BenchmarkFabricFlowChurn/flows=1000000$$' -benchtime 2x -benchmem -run '^$$' ./internal/fabric; \
	  $(GO) test -bench 'BenchmarkFabricComponentSolve' -benchtime 20x -benchmem -run '^$$' ./internal/fabric; \
	  $(GO) test -bench 'BenchmarkFabricRecomputeSteadyState' -benchtime 100x -benchmem -run '^$$' ./internal/fabric; } \
		| $(GO) run ./cmd/benchjson -out BENCH_fabric.json

# Same trajectory gate for the observability pipeline, sized for a CI
# runner (at most 512 hosts alive at once): the event-bus publish path
# (with and without fan-out) and the engine's schedule-and-run path
# must stay at 0 allocs/op — both run inside the simulation hot loop,
# and their benchmarks warm up before they measure, so a per-op count
# of 0 is the steady state — the fleet roll-up must stay
# allocation-flat as hosts grow, a built host's heap (bytes_per_host)
# must stay within its budget, a host-pressure read must stay at 0
# allocs/op, one fleet placement's allocations must stay flat from
# 128 to 512 hosts, one admission and one arbitration pass must stay
# within theirs, and so must one virtual millisecond of 64 serial
# hosts, counted per host (allocs_per_host_ms). The steady-state scrape (one dirty shard between
# scrapes) is budgeted at a constant ~64 allocs/op from 16 to 256
# hosts; the cold all-shards-dirty fold grows only with the shard
# count, not the host count.
bench-json-obs:
	$(call mem_preflight,bench-json-obs,250)
	{ $(GO) test -bench 'BenchmarkBusPublish' -benchtime 100x -benchmem -run '^$$' ./internal/obs; \
	  $(GO) test -bench 'BenchmarkScheduleRun' -benchtime 100000x -benchmem -run '^$$' ./internal/simtime; \
	  $(GO) test -bench 'BenchmarkFleetRollup(Cold)?/hosts=(16|64|256)$$' -benchtime 10x -benchmem -run '^$$' ./internal/fleet; \
	  $(GO) test -bench 'BenchmarkFleetBytesPerHost' -benchtime 1x -run '^$$' ./internal/fleet; \
	  $(GO) test -bench 'BenchmarkHostPressure' -benchtime 1000x -benchmem -run '^$$' ./internal/fleet; \
	  $(GO) test -bench 'BenchmarkFleetRunFor/hosts=64/serial$$' -benchtime 5x -benchmem -run '^$$' ./internal/fleet; \
	  $(GO) test -bench 'BenchmarkFleetPlace' -benchtime 20x -benchmem -run '^$$' ./internal/fleet; \
	  $(GO) test -bench 'BenchmarkAdmit' -benchtime 100x -benchmem -run '^$$' ./internal/snap; \
	  $(GO) test -bench 'BenchmarkArbitrationPass' -benchtime 1000x -benchmem -run '^$$' ./internal/arbiter; } \
		| $(GO) run ./cmd/benchjson -out BENCH_obs.json

# The scale tiers of the same gate, run by hand on a machine that holds
# them: the 1024-host roll-ups (same budgets as their smaller tiers)
# and the sharded RunFor tiers (1024 and 10000 hosts), which pin the
# epoch engine's per-advance allocation trajectory. RunFor runs at
# -benchtime 1x because one op is a full millisecond of fleet virtual
# time (allocs/op are per-op and deterministic, so one iteration gates
# as well as a hundred), and with -timeout 0 because building a
# 10k-host fleet alone outlasts the default 10m test timeout.
bench-json-scale:
	$(call mem_preflight,bench-json-scale,64000)
	{ $(GO) test -bench 'BenchmarkFleetRollup(Cold)?/hosts=1024$$' -benchtime 10x -benchmem -run '^$$' ./internal/fleet; \
	  $(GO) test -bench 'BenchmarkFleetRunFor/hosts=(1024|10000)/sharded' -benchtime 1x -benchmem -timeout 0 -run '^$$' ./internal/fleet; } \
		| $(GO) run ./cmd/benchjson -out BENCH_scale.json

# Sharded-fleet smoke: 1024 synthetic hosts advance 2ms on the sharded
# epoch engine under two different (shards, workers) configurations,
# and the test asserts byte-identical roll-ups and spot-checked state
# hashes — the determinism contract at four-digit scale. Gated behind
# an env var so `go test ./...` stays fast; CI's check job runs it
# (about 10 s, preflight 1.2 GB).
fleet-smoke:
	$(call mem_preflight,fleet-smoke,1200)
	IHNET_FLEET_SMOKE=1 $(GO) test ./internal/fleet -run TestFleetSmokeSharded1k -v -timeout 20m

# Durable-store smoke: build the real ihnetd, boot it with -store-dir,
# drive it over HTTP, SIGKILL it without warning, restart from the
# store, and assert byte-identical state hashes and journals — once
# for a single host and once for a 1024-host sharded synthetic fleet
# (the env var upgrades the default 8-host fleet case to 1024). The
# spec-driven conformance and auth cases ride along in the same
# package.
store-smoke:
	$(call mem_preflight,store-smoke,700)
	IHNET_STORE_SMOKE=1 $(GO) test ./internal/httpapi/e2etest -v -timeout 20m -count=1

# Seed-pinned chaos smoke: randomized fault/churn schedules under the
# cross-layer invariant oracle (internal/chaos), deterministic per
# seed, ~10 s total. Seeds are pinned so CI failures reproduce exactly
# with the printed command; a violation also writes a minimized
# journal artifact under chaos-artifacts/ (uploaded by CI) that
# `ihdiag fuzz -replay` re-derives. Seed 3 on two-socket is the
# schedule that exposed the read-time byte-fold nondeterminism
# (TestStatsReadsDoNotPerturbAccounting) — kept as a standing
# regression. The -fleet runs put three hosts behind the fleet engine,
# so placement, migration and quarantine (the fleet-quarantine
# invariant) are checked too; fleet seed 3 stays out until its
# work-conservation violation is fixed.
chaos-smoke:
	$(GO) run ./cmd/ihdiag fuzz -seed 1 -seeds 3 -events 250 -dur 10ms -preset minimal -out chaos-artifacts
	$(GO) run ./cmd/ihdiag fuzz -seed 3 -events 300 -dur 15ms -preset two-socket -out chaos-artifacts
	$(GO) run ./cmd/ihdiag fuzz -seed 1 -seeds 2 -events 150 -dur 10ms -preset minimal -fleet 3 -out chaos-artifacts
	$(GO) run ./cmd/ihdiag fuzz -seed 4 -seeds 2 -events 150 -dur 10ms -preset minimal -fleet 3 -out chaos-artifacts

# Chaos-vs-controller smoke: the same seeded adversary, but with the
# closed-loop remediation controller armed. Each pinned seed must heal
# at least 95% of its eligible injected faults within the 2ms virtual
# deadline with zero oracle violations. Failures reproduce exactly
# with the printed seed, like chaos-smoke. The -fleet seed runs the
# controller against a three-host fleet.
remedy-smoke:
	$(GO) run ./cmd/ihdiag fuzz -vs-controller -seed 1 -events 150 -dur 10ms -out chaos-artifacts
	$(GO) run ./cmd/ihdiag fuzz -vs-controller -seed 7 -events 150 -dur 10ms -out chaos-artifacts
	$(GO) run ./cmd/ihdiag fuzz -vs-controller -seed 42 -events 150 -dur 10ms -out chaos-artifacts
	$(GO) run ./cmd/ihdiag fuzz -vs-controller -fleet 3 -seed 42 -events 150 -dur 10ms -preset minimal -out chaos-artifacts

# Drill smoke (~5 s): every incident drill in scenarios/ must pass its
# assertions, and the journal each drill executed — remediation
# controller ticks and actions included — must replay twice with
# identical rolling state hashes.
drill-smoke:
	$(GO) run ./cmd/ihdiag drill scenarios/*.json
	for d in scenarios/*.json; do $(GO) run ./cmd/ihdiag replay -scenario $$d || exit 1; done

# Fuzz smoke (~30 s): every testing.F target over a decoder that reads
# untrusted bytes runs for 10 s past its seed corpus (testdata/):
# scenario specs (ihdiag drill), remediation policies (PUT
# /remedy/policy) and snapshots (POST /restore). A crasher lands in the
# package's testdata/fuzz/ and fails the target; commit it with the fix
# and plain `go test` replays it from then on. Minimizing each new
# coverage input is capped at 1 s: at the default 60 s, one input grown
# from the 9 KB snapshot seed can spend the whole budget being shrunk.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzParsePolicy$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/remedy
	$(GO) test -run '^$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/snap

# Trajectory gate for the remediation controller: the idle control-loop
# step must stay at 0 allocs/op (it runs every probe period), and the
# closed-loop MTTR percentiles — virtual time, so machine-independent —
# must stay within the budgets pinned in cmd/benchjson (p50 <= 1ms,
# p99 <= 2ms).
bench-json-remedy:
	$(GO) test -bench 'BenchmarkRemedy(MTTR|StepIdle)' -benchtime 100x -benchmem -run '^$$' ./internal/remedy \
		| $(GO) run ./cmd/benchjson -out BENCH_remedy.json

# The full gate: formatting, static analysis, build, and the
# race-enabled test suite. CI and pre-commit should run this.
check: fmt vet build race

clean:
	$(GO) clean ./...
	rm -f benchjson ihctl ihdiag ihnetd
