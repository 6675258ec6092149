#!/usr/bin/env bash
# Repository check: hermetic build, full test suite, and a warning-free
# lint pass. Everything runs --offline — the build must never reach a
# network registry.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every file the smoke steps write lives in $scratch, and every server
# they start is listed in $servers until it has exited. One EXIT trap
# removes the files and stops the servers, so a failing step never leaves
# `ramp serve` running with the caller's stdout open.
scratch="$(mktemp -d -t ramp-check-XXXXXX)"
servers="$scratch/servers"
cleanup() {
  local pid
  for pid in $(cat "$servers" 2>/dev/null); do kill "$pid" 2>/dev/null || true; done
  rm -rf "$scratch"
}
trap cleanup EXIT
# Starts `ramp serve` with the given arguments in the background, its
# stdout in file $1; sets server_pid and lists it in $servers. A caller
# inside $(...) still reaches the trap's list through the file.
serve_bg() {
  local log="$1"
  shift
  ./target/release/ramp serve "$@" >"$log" &
  server_pid=$!
  echo "$server_pid" >>"$servers"
}
# Waits for server $1 to exit and drops it from $servers.
reap() {
  wait "$1"
  sed -i "/^$1\$/d" "$servers"
}

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

echo "== benchmark digests: one full-scale round of every workload =="
# At seed 12345, full scale and 2 threads, ramp-bench exits non-zero when
# the round's output digest (DRM choices, simulated cycles and IPC; fleet
# summaries; the serve workload's sorted request/reply pairs) differs
# from the one recorded in benchmark/src/spec.rs.
for workload in drm-exhaustive drm-surrogate fleet serve-warm; do
  cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --seed 12345 --threads 2 --seconds 0 --trace 0 >/dev/null
done

echo "== observability smoke: trace a run, summarize it =="
trace="$scratch/trace.jsonl"
./target/release/ramp fit --app gzip --tqual 394 --quick --trace "$trace" >/dev/null
./target/release/ramp report "$trace" --top 3

echo "== scenario smoke: validate every checked-in scenario file =="
./target/release/ramp scenario validate examples/scenarios/*.scn

echo "== fleet smoke: sample a small population, summarize its trace =="
fleet_trace="$scratch/fleet.jsonl"
# Capture, then grep: `grep -q` on a live pipe exits at the first match
# and the writer dies of EPIPE mid-summary.
fleet_out="$(./target/release/ramp fleet --app twolf --dies 20000 --quick --trace "$fleet_trace")"
echo "$fleet_out" | grep -q 'dies' \
  || { echo "error: ramp fleet printed no population summary" >&2; exit 1; }
fleet_report="$(./target/release/ramp report "$fleet_trace" --top 3)"
echo "$fleet_report" | grep -q 'fleet population' \
  || { echo "error: fleet trace lacks the report's fleet section" >&2; exit 1; }

echo "== server smoke: serve on an ephemeral port, eval + malformed request + top, clean shutdown =="
server_log="$scratch/server.log"
server_trace="$scratch/server.jsonl"
# The overdesign scenario carries an [slo] section, so the telemetry
# ticker (100 ms here) publishes slo.* gauges into the server trace.
serve_bg "$server_log" --addr 127.0.0.1:0 --quick --tick-ms 100 \
  --scenario examples/scenarios/server-overdesign.scn --trace "$server_trace"
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
# The same eval again is warm: its connection thread answers it, so it
# never queues (one drain pass, one inline answer).
./target/release/ramp client --addr "$addr" eval gzip | grep -q '^ok eval' \
  || { echo "error: warm server eval did not answer ok" >&2; exit 1; }
routing="$(./target/release/ramp client --addr "$addr" stats)"
echo "$routing" | grep -q ' batches=1 ' && echo "$routing" | grep -q ' inline=1 ' \
  || { echo "error: the warm eval was not answered inline: $routing" >&2; exit 1; }
# Framing over a raw socket: a request sent in two pieces (the second
# after the server's 200 ms read-timeout poll) and two requests pipelined
# in one write are each answered whole and in order.
exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
framed=1
read -r -t 10 line <&3 && [ "$line" = "ok ramp-serve/1" ] || framed=0
printf 'eval gz' >&3
sleep 0.3
printf 'ip\n' >&3
read -r -t 10 line <&3 && [[ "$line" == "ok eval "* ]] || framed=0
printf 'ping\nping\n' >&3
for _ in 1 2; do
  read -r -t 10 line <&3 && [ "$line" = "ok pong" ] || framed=0
done
exec 3<&-
[ "$framed" = 1 ] \
  || { echo "error: a split or pipelined request was not answered whole and in order" >&2; exit 1; }
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
reap "$server_pid"
server_report="$(./target/release/ramp report "$server_trace" --top 3)"
echo "$server_report" | grep -q 'requests (lines received)' \
  || { echo "error: server trace lacks the report's server section" >&2; exit 1; }
echo "$server_report" | grep -q 'service-level objectives' \
  || { echo "error: server trace lacks the report's SLO section" >&2; exit 1; }

echo "== store smoke: a restarted server answers a stored sweep without simulating =="
store_dir="$scratch/store"
fresh_dir="$scratch/fresh-store"
store_log="$scratch/store.log"
# Serves on store directory $1 at run length $2 (quick or standard),
# sends the client request in the remaining words, prints its reply and
# the stats reply, then shuts the server down.
store_round() {
  local dir="$1" length="$2"
  shift 2
  local opts=(--addr 127.0.0.1:0 --store-dir "$dir")
  if [ "$length" = quick ]; then opts+=(--quick); fi
  # Empty the log first: the background redirect may truncate it only
  # after the loop below has read the previous round's address.
  : >"$store_log"
  serve_bg "$store_log" "${opts[@]}"
  local pid=$server_pid addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/^ramp-serve\/1 listening on //p' "$store_log")"
    [ -n "$addr" ] && break
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "error: store server never reported its address" >&2; exit 1; }
  ./target/release/ramp client --addr "$addr" "$@"
  ./target/release/ramp client --addr "$addr" stats
  ./target/release/ramp client --addr "$addr" shutdown >/dev/null
  reap "$pid"
}
cold="$(store_round "$store_dir" quick sweep gzip --strategy dvs)"
warm="$(store_round "$store_dir" quick sweep gzip --strategy dvs)"
echo "$cold" | grep -q ' store_records=[1-9]' \
  || { echo "error: the cold server stored no timing runs: $cold" >&2; exit 1; }
echo "$warm" | grep -q ' timing_runs=0 ' \
  || { echo "error: the restarted server re-simulated stored points: $warm" >&2; exit 1; }
[ "$(echo "$cold" | head -n 1)" = "$(echo "$warm" | head -n 1)" ] \
  || { echo "error: the restarted server answered the sweep differently" >&2; exit 1; }
# A standard-length server on the quick store must not be served the
# quick runs: it simulates its own and answers as a fresh server does.
shaped="$(store_round "$store_dir" standard eval gzip)"
fresh="$(store_round "$fresh_dir" standard eval gzip)"
echo "$shaped" | grep -q ' timing_runs=1 ' \
  || { echo "error: the standard-length server was served a quick run: $shaped" >&2; exit 1; }
[ "$(echo "$shaped" | head -n 1)" = "$(echo "$fresh" | head -n 1)" ] \
  || { echo "error: the standard-length server answered differently on the quick store" >&2; exit 1; }
# Each run shape keeps its records in a directory of its own.
shapes="$(find "$store_dir" -mindepth 1 -maxdepth 1 -type d | wc -l)"
[ "$shapes" = 2 ] \
  || { echo "error: the store root holds $shapes shape directories, expected 2" >&2; exit 1; }

echo "== checkpoint smoke: cut checkpoints, inspect them, run a sliced fit =="
ckpt_dir="$scratch/checkpoints"
slice_scn="$scratch/slice.scn"
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

echo "== paper driver smoke: tables run, and a driver's stdout is byte-stable =="
RAMP_FAST=1 ./target/release/table1 >/dev/null
table2_a="$scratch/table2-a.txt"
table2_b="$scratch/table2-b.txt"
table2_err="$scratch/table2.err"
fig4_out="$scratch/fig4.txt"
fig1_out="$scratch/fig1.txt"
fig3_out="$scratch/fig3.txt"
RAMP_FAST=1 ./target/release/table2 >"$table2_a" 2>"$table2_err"
RAMP_FAST=1 ./target/release/table2 >"$table2_b" 2>/dev/null
cmp "$table2_a" "$table2_b" \
  || { echo "error: two table2 runs printed different stdout" >&2; exit 1; }
# Only the batch engine's workers evaluate, so busy time is at most
# workers x wall: the sweep line's speedup must not exceed its job count.
awk '/^sweep:/ { found = 1; jobs = $2; speedup = $NF; sub(/x$/, "", speedup)
       if (speedup + 0 > jobs + 0) { print "error: table2 " $0 ": speedup exceeds the job count" > "/dev/stderr"; exit 1 } }
     END { if (!found) { print "error: table2 printed no sweep: line" > "/dev/stderr"; exit 1 } }' "$table2_err"

echo "== paper artifact pins: RAMP_FAST stdout of table2, fig1, fig3 and fig4 matches the recorded digests =="
# A change to a paper number fails here until the digest is re-recorded
# with the reason in CHANGES.md.
RAMP_FAST=1 ./target/release/fig1 >"$fig1_out" 2>/dev/null
RAMP_FAST=1 ./target/release/fig3 >"$fig3_out" 2>/dev/null
RAMP_FAST=1 ./target/release/fig4 >"$fig4_out" 2>/dev/null
check_digest() {
  local got
  got="$(sha256sum < "$2" | cut -d' ' -f1)"
  [ "$got" = "$3" ] \
    || { echo "error: RAMP_FAST=1 $1 stdout digest $got, recorded $3" >&2; exit 1; }
}
check_digest table2 "$table2_a" fc3288538e4f045127119122aa5ca1971dca8ad91c0da3ae5b1a8623659e01af
check_digest fig1 "$fig1_out" ce2e4259d2557f3a680a82b2507bf74bee4ee434054f620373b017dee3c2cb73
check_digest fig3 "$fig3_out" 79e1a575eb45df596f108d298e8b04847e5dc0f3f58877ef153bc38091e8f755
check_digest fig4 "$fig4_out" ee846b353b247c427dde2974e734cee6162658946caf2a6082ee52be51082dc3

echo "== clippy (warnings are errors) =="
cargo clippy --offline --all-targets -- -D warnings

echo "All checks passed."
