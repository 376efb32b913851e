#!/usr/bin/env bash
# The one command. Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh                      all four workloads, timed then traced,
#                                         one JSON document on stdout and in
#                                         benchmark/out/result.json
#   benchmark/run.sh --repeat N           N sets; prints each end-to-end
#                                         metric's spread against its bound
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one workload in this process (the
#                                         form BENCHMARK.json's command takes)
#   benchmark/run.sh compare PARENT CHANGE [--claim W:METRIC]
#
# Run from the repository root. Exits non-zero when the build fails, when a
# correctness check fails in a suite, or when no result could be produced.
set -euo pipefail

here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/ccdb-benchmark"

case "${1:-}" in
compare) exec "$bin" "$@" ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" run "$@"
    fi
done
exec "$bin" suite "$@"
