#!/usr/bin/env sh
# Full CI gate: build, vet, simulation-aware lint, tests, the race
# detector over the concurrent packages (broker, tracker, campaign
# runner, metrics registry, and campaignd, whose HTTP handler runs the
# runner's worker pool), a one-iteration micro-benchmark smoke (the hot
# paths must at least still run; scripts/bench.sh measures them), spec
# validation for the shipped example campaign specs, the runner oracle
# (the default runner's results on the hexa actuator mini-spec, mission
# 1's gyro cases, and mission 1 of the gyro-threshold sweep must equal
# straight sim.Run flights case by case), and the end-to-end smokes: a
# sweep spec must print the sweep table, a mini spec-driven campaign must
# emit a metrics snapshot that passes the schema validator, re-running
# it with -resume over the completed results file must execute zero
# cases, the observability surface (trace-event export, live status
# endpoint, black-box dumps) must produce valid, loadable artifacts, and
# campaignd must serve a repeat submission entirely from the store,
# bit-identical to a direct run. Last, the micro-benchmark perf gate
# compares a fresh report against the committed baseline. Any failure
# fails the gate.
set -eux

tmpdir=$(mktemp -d)
trap 'kill "${CAMPAIGND_PID:-}" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT

go build ./...
go vet ./...
# Simulation-aware lint over the whole module, stale suppressions
# included; the machine-readable report lands next to the other CI
# artifacts. goroutinespawn inside the suite enforces that sim-critical
# packages spawn no goroutines, so no grep gate is needed. On findings, replay the report for humans and fail.
go run ./cmd/uavlint -unused-suppressions -json ./... >"$tmpdir/lint.json" || {
	cat "$tmpdir/lint.json" >&2
	exit 1
}
go test ./...
go test -race ./internal/telemetry/ ./internal/uspace/ ./internal/core/ ./internal/sim/ ./internal/obs/ ./cmd/campaignd/
go test -run XXX -bench Micro -benchtime=1x -benchmem .

# Example campaign specs stay loadable and compilable.
go run ./cmd/campaign -validate-spec examples/specs/paper-850.json
go run ./cmd/campaign -validate-spec examples/specs/redundancy-ablation.json
go run ./cmd/campaign -validate-spec examples/specs/mini-grid.json
go run ./cmd/campaign -validate-spec examples/specs/mini-grid-wide.json
go run ./cmd/campaign -validate-spec examples/specs/redundancy-matrix.json
go run ./cmd/campaign -validate-spec examples/specs/mini-hexa-actuator.json
go run ./cmd/campaign -validate-spec examples/specs/sweep-start.json
go run ./cmd/campaign -validate-spec examples/specs/sweep-duration.json
go run ./cmd/campaign -validate-spec examples/specs/sweep-gyro-threshold.json
go run ./cmd/campaign -validate-spec examples/specs/sweep-risk.json

# Runner oracle: the hexa actuator mini-spec (rotor FDI and allocation
# reconfig enabled), mission 1's gyro cases, and mission 1 of the
# gyro-threshold sweep (one case per config variant), run through the default
# runner (shared prefixes, forks, lockstep batches), must equal straight
# sim.Run flights case by case, full results compared.
go test -count=1 -run 'TestDefaultRunnerMatchesSimRun' ./internal/core/

# Sweep smoke: one mission of the gyro-threshold sweep spans four config
# variants, so the campaign must print the sweep table.
go run ./cmd/campaign -spec examples/specs/sweep-gyro-threshold.json -select mission=1 -q \
	-out "$tmpdir/sweep.json" | tee "$tmpdir/sweep.log"
grep -q '^SWEEP:' "$tmpdir/sweep.log"
grep -q '{"gyro_threshold_deg_s":240}' "$tmpdir/sweep.log"

# Observability + resume smoke: run one mission's gyro cases with
# metrics capture, validate the snapshot schema, then resume over the
# completed results file — zero cases may execute.
go run ./cmd/campaign -select mission=1,target=gyro -q -out "$tmpdir/results.json" -metrics-out "$tmpdir/metrics.json"
go run ./cmd/campaign -validate-metrics "$tmpdir/metrics.json"
go run ./cmd/campaign -select mission=1,target=gyro -q -out "$tmpdir/results.json" -resume | tee "$tmpdir/resume.log"
grep -q 'resume: .* 0 to run' "$tmpdir/resume.log"

# Tracing + black-box smoke: mission 1's accelerometer cases include
# crash and containment-violation outcomes, so this run must emit a
# valid trace-event JSON (one case span per case), black-box dumps, and
# exercise the fail-fast parent-directory creation ($tmpdir/obs does not
# exist yet).
go run ./cmd/campaign -select mission=1,target=accel,duration=5s -q \
	-out "$tmpdir/obs/results.json" -trace-out "$tmpdir/obs/trace.json" \
	-blackbox-dir "$tmpdir/obs/blackbox"
go run ./cmd/campaign -validate-trace "$tmpdir/obs/trace.json"
# Every crash/violation case yielded a black box, and replay loads one.
ls "$tmpdir/obs/blackbox"/*.blackbox.json
go run ./cmd/replay -blackbox "$(ls "$tmpdir/obs/blackbox"/*.blackbox.json | head -n 1)" >/dev/null
# Live status endpoint: mid-run 200 with well-formed JSON plus the SSE
# stream, driven by the package test against the real handler stack.
go test -run 'TestStatusEndpointMidRun' ./cmd/campaign/

# campaignd + content-addressed store smoke: start the daemon on a free
# port, submit the mini grid twice — the second run must be >=95% cache
# hits (here: 100%, zero misses) and its results file must bit-compare
# equal to a direct cmd/campaign run of the same spec and carry the same
# header spec_hash — then submit the overlapping wider grid, which may
# simulate only the two new duration cells.
go build -o "$tmpdir/campaignd" ./cmd/campaignd
"$tmpdir/campaignd" -addr 127.0.0.1:0 -addr-file "$tmpdir/campaignd.addr" \
	-store "$tmpdir/store" -out-dir "$tmpdir/campaignd-out" -q &
CAMPAIGND_PID=$!
for _ in $(seq 1 100); do
	[ -s "$tmpdir/campaignd.addr" ] && break
	sleep 0.1
done
CAMPAIGND_ADDR=$(cat "$tmpdir/campaignd.addr")
"$tmpdir/campaignd" -submit examples/specs/mini-grid.json -addr "$CAMPAIGND_ADDR" | tee "$tmpdir/run1.json"
"$tmpdir/campaignd" -submit examples/specs/mini-grid.json -addr "$CAMPAIGND_ADDR" | tee "$tmpdir/run2.json"
grep -q '"cache_misses": 0' "$tmpdir/run2.json"
grep -q '"cache_hit_ratio": 1' "$tmpdir/run2.json"
warm_results=$(grep -o '"results_path": *"[^"]*"' "$tmpdir/run2.json" | cut -d'"' -f4)
go run ./cmd/campaign -spec examples/specs/mini-grid.json -q -out "$tmpdir/direct.json"
go run ./cmd/campaign -compare-results "$warm_results,$tmpdir/direct.json"
warm_hash=$(grep -o '"spec_hash": *"[^"]*"' "$warm_results" | head -n 1 | cut -d'"' -f4)
direct_hash=$(grep -o '"spec_hash": *"[^"]*"' "$tmpdir/direct.json" | head -n 1 | cut -d'"' -f4)
test -n "$warm_hash"
test "$warm_hash" = "$direct_hash"
"$tmpdir/campaignd" -submit examples/specs/mini-grid-wide.json -addr "$CAMPAIGND_ADDR" | tee "$tmpdir/run3.json"
grep -q '"cache_hits": 5' "$tmpdir/run3.json"
grep -q '"cache_misses": 2' "$tmpdir/run3.json"
kill "$CAMPAIGND_PID"
CAMPAIGND_PID=

# The same store serves cmd/campaign directly: a -store run over the
# warmed cache must simulate nothing new for the overlapping cells.
go run ./cmd/campaign -spec examples/specs/mini-grid.json -q \
	-out "$tmpdir/store_direct.json" -store "$tmpdir/store" \
	-metrics-out "$tmpdir/store_metrics.json" | tee "$tmpdir/store_run.log"
grep -q 'store .*: 5 hits, 0 misses' "$tmpdir/store_run.log"
grep -q 'campaign_cache_hits_total' "$tmpdir/store_metrics.json"
grep -q 'store_objects' "$tmpdir/store_metrics.json"
go run ./cmd/campaign -compare-results "$tmpdir/store_direct.json,$tmpdir/direct.json"

# Perf-regression gate against the committed bench report: measure a
# fresh micro-benchmark report and fail on >10% ns/op or any allocs/op
# regression (see scripts/bench.sh -compare). Set BENCH_BASELINE to
# override, or to "" to skip.
BENCH_BASELINE="${BENCH_BASELINE-BENCH_2026-08-08.json}"
if [ -n "$BENCH_BASELINE" ]; then
	go run ./cmd/bench -out "$tmpdir/bench_new.json"
	go run ./cmd/bench -compare "$BENCH_BASELINE" "$tmpdir/bench_new.json"
fi
