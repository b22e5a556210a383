#!/usr/bin/env sh
# Performance report: the micro-benchmark table (internal/microbench),
# measured by cmd/bench and emitted as BENCH_<date>.json, plus the EKF
# covariance-kernel comparison against its dense reference. End-to-end
# campaign timing is perfbench's job (bash perfbench/run.sh).
#
# Regression gate:
#   scripts/bench.sh -compare OLD.json NEW.json
# exits nonzero when NEW regresses against OLD (>10% ns/op on any shared
# micro, or any allocs/op increase). Timing deltas only gate when both
# reports' own rep-to-rep spread (ns_spread) stayed within that same 10%
# on the micro — rows where either run's repetitions disagreed more than
# the gate width are printed as noisy and skipped, since on a shared vCPU
# steal time swamps real changes. Allocs/op always gates (deterministic).
# ci.sh runs this automatically against the committed baseline (override
# with BENCH_BASELINE). Reports record the host window (num_cpu,
# go_version); comparing across differing hosts prints a loud WARNING
# since ns/op deltas then measure the machine, not only the code.
set -eu

case "${1:-}" in
-compare)
	exec go run ./cmd/bench "$@"
	;;
esac

go test -run XXX -bench 'Propagate|Transition' -benchmem ./internal/ekf/
exec go run ./cmd/bench "$@"
