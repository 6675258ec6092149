#!/usr/bin/env bash
# Repository check: hermetic build, full test suite, and a warning-free
# lint pass. Everything runs --offline — the build must never reach a
# network registry.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== formatting (rustfmt) =="
cargo fmt --check

echo "== build (release, offline) =="
cargo build --release --offline

echo "== tests (RAMP_LOG=debug exercises the logging path) =="
RAMP_LOG=debug cargo test -q --offline

echo "== benchmark tests: every workload at smoke scale, traced digest equals untraced =="
# The benchmark is a package of its own; its tests replay every workload
# at smoke scale (seed 2004) and check that the traced run's output
# digest, including the sorted (request, reply) pairs of the serve
# workload, equals the untraced one. They do not check recorded digests.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== benchmark digests: one full-scale round of each DRM workload =="
# At seed 12345, full scale and 2 threads, ramp-bench exits non-zero when
# the round's output digest (DRM choices, simulated cycles, IPC) differs
# from the one recorded in benchmark/src/spec.rs.
for workload in drm-exhaustive drm-surrogate; do
  cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --seed 12345 --threads 2 --seconds 0 --trace 0 >/dev/null
done

echo "== observability smoke: trace a run, summarize it =="
trace="$(mktemp -t ramp-check-XXXXXX.jsonl)"
trap 'rm -f "$trace"' EXIT
./target/release/ramp fit --app gzip --tqual 394 --quick --trace "$trace" >/dev/null
./target/release/ramp report "$trace" --top 3

echo "== scenario smoke: validate every checked-in scenario file =="
./target/release/ramp scenario validate examples/scenarios/*.scn

echo "== fleet smoke: sample a small population, summarize its trace =="
fleet_trace="$(mktemp -t ramp-check-fleet-XXXXXX.jsonl)"
trap 'rm -f "$trace" "$fleet_trace"' EXIT
# Capture, then grep: `grep -q` on a live pipe exits at the first match
# and the writer dies of EPIPE mid-summary.
fleet_out="$(./target/release/ramp fleet --app twolf --dies 20000 --quick --trace "$fleet_trace")"
echo "$fleet_out" | grep -q 'dies' \
  || { echo "error: ramp fleet printed no population summary" >&2; exit 1; }
fleet_report="$(./target/release/ramp report "$fleet_trace" --top 3)"
echo "$fleet_report" | grep -q 'fleet population' \
  || { echo "error: fleet trace lacks the report's fleet section" >&2; exit 1; }

echo "== server smoke: serve on an ephemeral port, eval + malformed request + top, clean shutdown =="
server_log="$(mktemp -t ramp-check-server-XXXXXX.log)"
server_trace="$(mktemp -t ramp-check-server-XXXXXX.jsonl)"
trap 'rm -f "$trace" "$fleet_trace" "$server_log" "$server_trace"' EXIT
# The overdesign scenario carries an [slo] section, so the telemetry
# ticker (100 ms here) publishes slo.* gauges into the server trace.
./target/release/ramp serve --addr 127.0.0.1:0 --quick --tick-ms 100 \
  --scenario examples/scenarios/server-overdesign.scn --trace "$server_trace" >"$server_log" &
server_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's/^ramp-serve\/1 listening on //p' "$server_log")"
  [ -n "$addr" ] && break
  kill -0 "$server_pid" 2>/dev/null || { echo "error: server exited early" >&2; cat "$server_log" >&2; exit 1; }
  sleep 0.1
done
[ -n "$addr" ] || { echo "error: server never reported its address" >&2; cat "$server_log" >&2; exit 1; }
./target/release/ramp client --addr "$addr" eval gzip | grep -q '^ok eval' \
  || { echo "error: server eval did not answer ok" >&2; exit 1; }
# A malformed request must answer one err line (non-zero client exit) and
# must not take the server down.
malformed="$(./target/release/ramp client --addr "$addr" raw eval gzip frq=1 2>/dev/null || true)"
echo "$malformed" | grep -q '^err ' \
  || { echo "error: malformed request did not answer err: $malformed" >&2; exit 1; }
# One dashboard frame over the live watch stream.
sleep 0.3
top_out="$(./target/release/ramp top --addr "$addr" --once)"
echo "$top_out" | grep -q 'requests' \
  || { echo "error: ramp top --once printed no dashboard frame" >&2; exit 1; }
./target/release/ramp client --addr "$addr" shutdown | grep -q '^ok shutdown' \
  || { echo "error: shutdown did not answer ok" >&2; exit 1; }
wait "$server_pid"
server_report="$(./target/release/ramp report "$server_trace" --top 3)"
echo "$server_report" | grep -q 'requests (lines received)' \
  || { echo "error: server trace lacks the report's server section" >&2; exit 1; }
echo "$server_report" | grep -q 'service-level objectives' \
  || { echo "error: server trace lacks the report's SLO section" >&2; exit 1; }

echo "== cluster smoke: coordinator + 2 ramp serve workers, parity vs direct, store, status =="
# Two workers on ephemeral ports; worker A persists its timing runs to a
# scratch evaluation store. The folded sweep choice and fleet summary
# must be byte-identical to the direct single-process runs.
shard_a_log="$(mktemp -t ramp-check-shard-a-XXXXXX.log)"
shard_b_log="$(mktemp -t ramp-check-shard-b-XXXXXX.log)"
store_dir="$(mktemp -d -t ramp-check-store-XXXXXX)"
trap 'rm -f "$trace" "$fleet_trace" "$server_log" "$server_trace" "$shard_a_log" "$shard_b_log"; rm -rf "$store_dir"' EXIT
./target/release/ramp serve --addr 127.0.0.1:0 --quick --store-dir "$store_dir" >"$shard_a_log" &
shard_a_pid=$!
./target/release/ramp serve --addr 127.0.0.1:0 --quick >"$shard_b_log" &
shard_b_pid=$!
shard_a=""; shard_b=""
for _ in $(seq 1 100); do
  shard_a="$(sed -n 's/^ramp-serve\/1 listening on //p' "$shard_a_log")"
  shard_b="$(sed -n 's/^ramp-serve\/1 listening on //p' "$shard_b_log")"
  [ -n "$shard_a" ] && [ -n "$shard_b" ] && break
  sleep 0.1
done
[ -n "$shard_a" ] && [ -n "$shard_b" ] \
  || { echo "error: worker shards never reported their addresses" >&2; exit 1; }
cluster_out="$(./target/release/ramp cluster serve --app gzip --strategy dvs --addr "$shard_a,$shard_b")"
echo "$cluster_out" | grep -q '^cluster: 2 shard(s)' \
  || { echo "error: cluster serve did not address 2 shards" >&2; exit 1; }
echo "$cluster_out" | grep -q '11 unique point(s), 0 re-dispatched' \
  || { echo "error: cluster serve routed an unexpected grid" >&2; exit 1; }
cluster_choice="$(echo "$cluster_out" | sed -n 's/^  configuration  //p')"
direct_choice="$(./target/release/ramp drm --app gzip --strategy dvs --quick \
  | sed -n 's/^  configuration  //p')"
[ -n "$cluster_choice" ] && [ "$cluster_choice" = "$direct_choice" ] \
  || { echo "error: cluster choice '$cluster_choice' != direct '$direct_choice'" >&2; exit 1; }
./target/release/ramp cluster status --addr "$shard_a,$shard_b" | grep -c 'evaluations' | grep -q '^2$' \
  || { echo "error: cluster status did not report both shards" >&2; exit 1; }
stored="$(./target/release/ramp cluster status --addr "$shard_a" | sed -n 's/.* \([0-9][0-9]*\) stored .*/\1/p')"
[ -n "$stored" ] && [ "$stored" -gt 0 ] \
  || { echo "error: the --store-dir worker stored no timing runs ('$stored')" >&2; exit 1; }
# The sharded fleet folds the same percentiles the direct run prints.
cluster_fleet="$(./target/release/ramp cluster fleet --app twolf --dies 20000 --addr "$shard_a,$shard_b" \
  | grep -E '^  (FIT|lifetime|violations)')"
direct_fleet="$(./target/release/ramp fleet --app twolf --dies 20000 --quick \
  | grep -E '^  (FIT|lifetime|violations)')"
[ -n "$cluster_fleet" ] && [ "$cluster_fleet" = "$direct_fleet" ] \
  || { echo "error: sharded fleet summary differs from direct" >&2; exit 1; }
./target/release/ramp client --addr "$shard_a" shutdown >/dev/null
./target/release/ramp client --addr "$shard_b" shutdown >/dev/null
wait "$shard_a_pid" "$shard_b_pid"
# Shard-death recovery and bit-level parity (including mid-sweep kill and
# store pre-warm) are pinned by tests/cluster_parity.rs in the test step.

echo "== checkpoint smoke: cut checkpoints, inspect them, run a sliced fit =="
ckpt_dir="$(mktemp -d -t ramp-check-ckpt-XXXXXX)"
slice_scn="$(mktemp -t ramp-check-slice-XXXXXX.scn)"
trap 'rm -f "$trace" "$fleet_trace" "$server_log" "$server_trace" "$shard_a_log" "$shard_b_log" "$slice_scn"; rm -rf "$store_dir" "$ckpt_dir"' EXIT
# A slice-enabled scenario: the paper default plus a [slice] section
# pointing at a scratch checkpoint directory.
./target/release/ramp scenario print > "$slice_scn"
printf 'slice.instructions 60000\nslice.checkpoint_dir %s\n' "$ckpt_dir" >> "$slice_scn"
./target/release/ramp scenario validate "$slice_scn"
# Capture, then grep (same EPIPE hazard as the fleet smoke above).
save_out="$(./target/release/ramp checkpoint save --app gzip --quick --scenario "$slice_scn")"
echo "$save_out" | grep -q 'checkpoint file' \
  || { echo "error: ramp checkpoint save reported no checkpoints" >&2; exit 1; }
info_out="$(./target/release/ramp checkpoint info --scenario "$slice_scn")"
echo "$info_out" | grep -q 'file(s)' \
  || { echo "error: ramp checkpoint info printed no summary" >&2; exit 1; }
# Sliced evaluation is a pure performance vehicle: a fit through the
# slice-enabled scenario must print byte-identical results.
sliced_fit="$(./target/release/ramp fit --app gzip --quick --scenario "$slice_scn")"
plain_fit="$(./target/release/ramp fit --app gzip --quick)"
[ "$sliced_fit" = "$plain_fit" ] \
  || { echo "error: sliced fit differs from unsliced fit" >&2; exit 1; }

echo "== surrogate smoke: two-phase DRM choice matches exhaustive byte for byte =="
# The surrogate-enabled scenario is the paper default plus a [surrogate]
# section; the two-phase search must change nothing about the answer.
surr_drm="$(./target/release/ramp drm --app gzip --strategy dvs --quick --scenario examples/scenarios/surrogate-search.scn)"
plain_drm="$(./target/release/ramp drm --app gzip --strategy dvs --quick)"
[ "$surr_drm" = "$plain_drm" ] \
  || { echo "error: surrogate-enabled drm differs from exhaustive" >&2; exit 1; }

echo "== paper driver smoke: the bench-suite library still runs a table =="
RAMP_FAST=1 ./target/release/table1 >/dev/null

echo "== clippy (warnings are errors) =="
cargo clippy --offline --all-targets -- -D warnings

echo "All checks passed."
