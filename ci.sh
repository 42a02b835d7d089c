#!/usr/bin/env bash
# Local CI: build, test, lint, format, and a parallel-repro smoke run.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release, workspace) =="
cargo build --release --workspace

echo "== test (per package, timed) =="
pkgs=$(cargo metadata --no-deps --format-version 1 |
    python3 -c "import json,sys; print(' '.join(sorted(p['name'] for p in json.load(sys.stdin)['packages'])))")
test_summary=""
for pkg in $pkgs; do
    pkg_start=$(date +%s%N)
    cargo test -q -p "$pkg"
    pkg_ms=$(( ($(date +%s%N) - pkg_start) / 1000000 ))
    test_summary="${test_summary}$(printf '%10sms  %s' "$pkg_ms" "$pkg")"$'\n'
done
echo "-- test timing summary --"
printf '%s' "$test_summary"

echo "== feature matrix: vm-selfprof on/off =="
# The dispatch profiler must compile and pass tests in both configurations;
# the default build carries no trace of it.
cargo test -q -p stride-vm --features vm-selfprof
cargo test -q -p stride-core --features vm-selfprof
cargo build --release -q -p stride-bench --features vm-selfprof --bin selfprof

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy -p stride-vm -p stride-core -p stride-bench --all-targets \
    --features vm-selfprof -- -D warnings

echo "== fmt =="
cargo fmt --all --check

echo "== smoke: repro --figure 16 --jobs 2 (test scale) =="
cargo run --release -q -p stride-bench --bin repro -- \
    --figure 16 --scale test --jobs 2

echo "== smoke: fused vs unfused lowering, figure output byte-identical =="
fz=$(mktemp)
nf=$(mktemp)
cargo run --release -q -p stride-bench --bin repro -- \
    --scale test --jobs 2 > "$fz"
cargo run --release -q -p stride-bench --bin repro -- \
    --scale test --jobs 2 --no-fuse > "$nf"
cmp "$fz" "$nf" || { echo "figure output differs between fused and --no-fuse" >&2; exit 1; }

echo "== smoke: figure output byte-identical at --jobs 1, 2 and 3 =="
# The figure generators run their units in a contention-free order (not
# row order); an odd worker count checks that rows still assemble in row
# order.
for jobs in 1 3; do
    cargo run --release -q -p stride-bench --bin repro -- \
        --scale test --jobs "$jobs" > "$nf"
    cmp "$fz" "$nf" || { echo "figure output differs between --jobs 2 and $jobs" >&2; exit 1; }
done
rm -f "$fz" "$nf"

echo "== benchmark correctness: serve-read bytes vs an in-process Service =="
# Exits nonzero when a served read differs from the in-process answer or
# any request fails. Timings are not judged here: compare commits with
# benchmark/spread.py instead.
CARGO_TARGET_DIR=target bash benchmark/run.sh --workload serve-read --trace 0 --seconds 1 > /dev/null

echo "== benchmark correctness: cluster-write through strided-router =="
# Exits nonzero when an acknowledged merge is lost, the two replicas
# diverge, or any request fails.
CARGO_TARGET_DIR=target bash benchmark/run.sh --workload cluster-write --trace 0 --seconds 1 > /dev/null
# The traced run also replays the request stream through Router::handle
# over two in-process Servers and checks every answer: the replica
# fan-out inside one process.
CARGO_TARGET_DIR=target bash benchmark/run.sh --workload cluster-write --trace 1 --seconds 1 > /dev/null

echo "== smoke: metrics snapshot byte-identical across --jobs =="
m1=$(mktemp)
m8=$(mktemp)
cargo run --release -q -p stride-bench --bin repro -- \
    --scale test --jobs 1 --metrics-json "$m1" > /dev/null
cargo run --release -q -p stride-bench --bin repro -- \
    --scale test --jobs 8 --metrics-json "$m8" > /dev/null
cmp "$m1" "$m8" || { echo "metrics snapshot differs between --jobs 1 and 8" >&2; exit 1; }
rm -f "$m1" "$m8"

echo "== fault campaign (faultsim, paper scale) vs its committed report =="
fs_out=$(mktemp)
cargo run --release -q -p stride-bench --bin faultsim -- --seed 42 --jobs 2 > "$fs_out"
diff faultsim_output.txt "$fs_out" \
    || { echo "fault campaign report differs from faultsim_output.txt" >&2; exit 1; }
rm -f "$fs_out"

echo "== smoke: repro partial results under injected failure =="
inject_out=$(mktemp)
cargo run --release -q -p stride-bench --bin repro -- \
    --figure 16 --scale test --jobs 2 --inject 'seed=3;fuel=100@181.mcf' \
    > "$inject_out"
grep -q '^!! 181.mcf' "$inject_out" \
    || { echo "expected a structured !! diagnostic for 181.mcf" >&2; exit 1; }
rm -f "$inject_out"

echo "== smoke: strided daemon round trips =="
db_dir=$(mktemp -d)
srv_out=$(mktemp)
entry_file=$(mktemp)
cargo run --release -q -p stride-server --bin strided -- \
    serve --addr 127.0.0.1:0 --db "$db_dir" --workers 2 > "$srv_out" &
srv_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$srv_out")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "strided did not report its address" >&2; kill "$srv_pid"; exit 1; }
ctl() { cargo run --release -q -p stride-bench --bin stridectl -- --addr "$addr" "$@"; }
submit_out=$(ctl submit mcf --builtin mcf --scale test)
echo "$submit_out" | grep -q '^module ' || { echo "submit failed: $submit_out" >&2; exit 1; }
train=$(echo "$submit_out" | sed -n 's/^built-in [^ ]* train=\([^ ]*\) .*/\1/p')
ref=$(echo "$submit_out" | sed -n 's/.* ref=\(.*\)$/\1/p')
ctl profile mcf --variant edge-check --args "$train" | grep -q '^# profdb v1' \
    || { echo "profile round trip failed" >&2; exit 1; }
ctl classify mcf --variant edge-check --args "$train" | grep -q '^loads ' \
    || { echo "classify round trip failed" >&2; exit 1; }
ctl prefetch mcf --variant edge-check --train "$train" --ref "$ref" | grep -q '^speedup ' \
    || { echo "prefetch round trip failed" >&2; exit 1; }
ctl get-profile mcf > "$entry_file"
grep -q '^runs ' "$entry_file" || { echo "get-profile round trip failed" >&2; exit 1; }
# One merge is one fsync: the log append. Entry files are written back
# without fsync and flushed only before the log is truncated.
fsyncs() { ctl stats | sed -n 's/^counter profdb.fsyncs //p'; }
fsyncs_before=$(fsyncs)
ctl merge-profile --file "$entry_file" | grep -q 'run(s)' \
    || { echo "merge-profile round trip failed" >&2; exit 1; }
fsyncs_after=$(fsyncs)
[ -n "$fsyncs_before" ] && [ "$((fsyncs_after - fsyncs_before))" -eq 1 ] \
    || { echo "merge-profile issued $fsyncs_before -> $fsyncs_after fsyncs, want exactly 1" >&2; exit 1; }
ctl stats | grep -q '^counter server.req.stats ' || { echo "stats round trip failed" >&2; exit 1; }
ctl stats | grep -Ev '^(counter|gauge|histogram|trace) ' \
    && { echo "stats body has a line outside the registry vocabulary" >&2; exit 1; }
ctl stats | grep -q '^counter server.req.profile ' \
    || { echo "stats body lacks structured metrics" >&2; exit 1; }
ctl top | grep -q '== counters (by value) ==' \
    || { echo "top round trip failed" >&2; exit 1; }
ctl shutdown | grep -q 'shutting down' || { echo "shutdown round trip failed" >&2; exit 1; }
wait "$srv_pid" || { echo "strided exited non-zero" >&2; exit 1; }
grep -q 'shut down cleanly' "$srv_out" \
    || { echo "strided did not shut down cleanly" >&2; exit 1; }
rm -rf "$db_dir" "$srv_out" "$entry_file"

echo "== smoke: crash recovery (SIGKILL, restart, integrity audit) =="
db2=$(mktemp -d)
srv2_out=$(mktemp)
cargo run --release -q -p stride-server --bin strided -- \
    serve --addr 127.0.0.1:0 --db "$db2" --workers 2 > "$srv2_out" &
srv2_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$srv2_out")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "strided did not report its address" >&2; kill "$srv2_pid"; exit 1; }
submit_out=$(ctl submit mcf --builtin mcf --scale test)
train=$(echo "$submit_out" | sed -n 's/^built-in [^ ]* train=\([^ ]*\) .*/\1/p')
ctl profile mcf --variant edge-check --args "$train" > /dev/null
ctl profile mcf --variant edge-check --args "$train" > /dev/null
kill -9 "$srv2_pid"
wait "$srv2_pid" 2>/dev/null || true
# The killed store must audit as healthy (a pending WAL tail is fine)...
cargo run --release -q -p stride-profdb --bin profdb -- check --db "$db2" \
    | grep -q '^verdict: ok' || { echo "killed store failed its audit" >&2; exit 1; }
# ...and gc must refuse until recovery has applied the tail.
if cargo run --release -q -p stride-profdb --bin profdb -- gc --db "$db2" --keep mcf >/dev/null 2>&1; then
    gc_refused=no
else
    gc_refused=yes
fi
# (refusal only triggers when the kill left WAL entries pending; either
# way the dry-run listing must work after an explicit recover)
cargo run --release -q -p stride-profdb --bin profdb -- recover --db "$db2" \
    | grep -q '^recovery: ' || { echo "profdb recover failed" >&2; exit 1; }
cargo run --release -q -p stride-profdb --bin profdb -- gc --db "$db2" --keep mcf --dry-run \
    > /dev/null || { echo "gc --dry-run failed after recovery" >&2; exit 1; }
echo "   (gc-before-recovery refused: $gc_refused)"
# Restart on the same directory: both acknowledged merges must survive.
srv3_out=$(mktemp)
cargo run --release -q -p stride-server --bin strided -- \
    serve --addr 127.0.0.1:0 --db "$db2" --workers 2 > "$srv3_out" &
srv3_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$srv3_out")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "restarted strided did not report its address" >&2; kill "$srv3_pid"; exit 1; }
ctl submit mcf --builtin mcf --scale test > /dev/null
ctl get-profile mcf | grep -q '^runs 2$' \
    || { echo "acked merges lost across SIGKILL + restart" >&2; exit 1; }
ctl profile mcf --variant edge-check --args "$train" > /dev/null
ctl get-profile mcf | grep -q '^runs 3$' \
    || { echo "recovered store does not accumulate" >&2; exit 1; }
ctl shutdown | grep -q 'shutting down' || { echo "recovered daemon shutdown failed" >&2; exit 1; }
wait "$srv3_pid" || { echo "recovered strided exited non-zero" >&2; exit 1; }
rm -rf "$db2" "$srv2_out" "$srv3_out"

echo "== smoke: service crash-recovery campaign (two seeds, jobs-invariant) =="
svc_a=$(mktemp)
svc_b=$(mktemp)
cargo run --release -q -p stride-bench --bin faultsim -- --service --seed 42 --jobs 2 > "$svc_a"
cargo run --release -q -p stride-bench --bin faultsim -- --service --seed 7 --jobs 4 > /dev/null
cargo run --release -q -p stride-bench --bin faultsim -- --service --seed 42 --jobs 4 > "$svc_b"
diff "$svc_a" "$svc_b" \
    || { echo "service campaign report differs across --jobs" >&2; exit 1; }
diff faultsim_service_output.txt "$svc_a" \
    || { echo "service campaign report differs from faultsim_service_output.txt" >&2; exit 1; }
rm -f "$svc_a" "$svc_b"

echo "== smoke: sharded cluster — routing, typed shedding, recovery, convergence =="
cl_root=$(mktemp -d)
declare -a shard_addr shard_pid shard_out
for k in 0 1 2; do
    shard_out[$k]=$(mktemp)
    cargo run --release -q -p stride-server --bin strided -- \
        serve --addr 127.0.0.1:0 --db "$cl_root/s$k" --workers 2 > "${shard_out[$k]}" &
    shard_pid[$k]=$!
done
for k in 0 1 2; do
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^listening on //p' "${shard_out[$k]}")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "cluster shard $k did not report its address" >&2; exit 1; }
    shard_addr[$k]=$addr
done
rt_out=$(mktemp)
cargo run --release -q -p stride-server --bin strided-router -- \
    serve --addr 127.0.0.1:0 --workers 2 \
    --shard "${shard_addr[0]}" --shard "${shard_addr[1]}" --shard "${shard_addr[2]}" \
    > "$rt_out" &
rt_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$rt_out")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "strided-router did not report its address" >&2; exit 1; }
rctl() { cargo run --release -q -p stride-bench --bin stridectl -- --addr "$addr" --retries 1 "$@"; }
# Seed an entry through the router (submit + profile route to mcf's
# owning shard), then fan five keys across the shard map.
submit_out=$(rctl submit mcf --builtin mcf --scale test)
train=$(echo "$submit_out" | sed -n 's/^built-in [^ ]* train=\([^ ]*\) .*/\1/p')
rctl profile mcf --variant edge-check --args "$train" > /dev/null
rctl get-profile mcf > "$cl_root/entry.mcf"
for i in 0 1 2 3 4; do
    sed "s/^workload .*/workload wl$i/" "$cl_root/entry.mcf" > "$cl_root/entry.wl$i"
    rctl merge-profile --file "$cl_root/entry.wl$i" > /dev/null \
        || { echo "healthy-cluster merge wl$i failed" >&2; exit 1; }
done
# SIGKILL shard 1: its key range sheds with a typed error naming the
# shard; every other range keeps serving.
kill -9 "${shard_pid[1]}"
wait "${shard_pid[1]}" 2>/dev/null || true
dead_keys=""
live=0
for i in 0 1 2 3 4; do
    if out=$(rctl merge-profile --file "$cl_root/entry.wl$i" 2>&1); then
        live=$((live + 1))
    else
        echo "$out" | grep -q 'server error \[unavailable\] (shard 1)' \
            || { echo "dead-shard merge wl$i lacked typed unavailable: $out" >&2; exit 1; }
        dead_keys="$dead_keys $i"
    fi
done
[ -n "$dead_keys" ] || { echo "no key routed to the killed shard" >&2; exit 1; }
[ "$live" -gt 0 ] || { echo "live shards stopped serving during the outage" >&2; exit 1; }
# Restart the victim on a fresh port (startup recovery replays its WAL)
# and re-point the router. The shed merges were applied nowhere, so the
# client resends them (fresh ids), as DESIGN.md §13's client rule says.
shard_out[1]=$(mktemp)
cargo run --release -q -p stride-server --bin strided -- \
    serve --addr 127.0.0.1:0 --db "$cl_root/s1" --workers 2 > "${shard_out[1]}" &
shard_pid[1]=$!
new_addr=""
for _ in $(seq 1 100); do
    new_addr=$(sed -n 's/^listening on //p' "${shard_out[1]}")
    [ -n "$new_addr" ] && break
    sleep 0.1
done
[ -n "$new_addr" ] || { echo "restarted shard 1 did not report its address" >&2; exit 1; }
rctl route-update --shard 1 --replica 0 --to "$new_addr" | grep -q '^routed shard=1' \
    || { echo "route-update failed" >&2; exit 1; }
for i in $dead_keys; do
    rctl merge-profile --file "$cl_root/entry.wl$i" > /dev/null \
        || { echo "resend of shed merge wl$i failed" >&2; exit 1; }
done
# One more merge round, then every key — shed or not — must have
# converged to the same three applied merges.
for i in 0 1 2 3 4; do
    rctl merge-profile --file "$cl_root/entry.wl$i" > /dev/null \
        || { echo "post-recovery merge wl$i failed" >&2; exit 1; }
    rctl submit "wl$i" --builtin mcf --scale test > /dev/null
    rctl get-profile "wl$i" | grep -q '^runs 3$' \
        || { echo "wl$i did not converge to 3 merges (acked merge lost or resend double-counted)" >&2; exit 1; }
done
rctl health | grep -qx '1 0 alive' \
    || { echo "revived shard 1 is not alive in the health table" >&2; exit 1; }
rctl repair | grep -q '^repair shard=1 divergent=false' \
    || { echo "revived shard 1 still diverges after route-update" >&2; exit 1; }
rctl stats | grep -Ev '^(counter|gauge|histogram|trace) |^== .* ==$' \
    && { echo "router stats adds more than section headers to the registry lines" >&2; exit 1; }
rctl stats --json | python3 -c '
import json, sys
d = json.load(sys.stdin)
assert len(d["shards"]) == 3, d["shards"]
assert d["aggregate"]["gauge.profdb.entries"] == 6, d["aggregate"]
assert d["router"]["counter.router.shed_unavailable"] > 0, d["router"]
'
rctl shutdown | grep -q 'shutting down' || { echo "cluster shutdown failed" >&2; exit 1; }
wait "$rt_pid" || { echo "strided-router exited non-zero" >&2; exit 1; }
for k in 0 1 2; do
    wait "${shard_pid[$k]}" || { echo "cluster shard $k exited non-zero" >&2; exit 1; }
done
cargo run --release -q -p stride-profdb --bin profdb -- check --db "$cl_root/s1" \
    | grep -q '^verdict: ok' || { echo "recovered shard store failed its audit" >&2; exit 1; }
rm -rf "$cl_root" "$rt_out" "${shard_out[@]}"

echo "== smoke: unattended failover — replica SIGKILL mid-traffic, self-announce revival, zero operator verbs =="
uf_root=$(mktemp -d)
# A scratch single daemon supplies a real profile entry for the merge traffic.
scratch_out=$(mktemp)
cargo run --release -q -p stride-server --bin strided -- \
    serve --addr 127.0.0.1:0 --db "$uf_root/scratch" --workers 2 > "$scratch_out" &
scratch_pid=$!
saddr=""
for _ in $(seq 1 100); do
    saddr=$(sed -n 's/^listening on //p' "$scratch_out")
    [ -n "$saddr" ] && break
    sleep 0.1
done
[ -n "$saddr" ] || { echo "scratch daemon did not report its address" >&2; exit 1; }
sctl() { cargo run --release -q -p stride-bench --bin stridectl -- --addr "$saddr" --retries 1 "$@"; }
submit_out=$(sctl submit mcf --builtin mcf --scale test)
train=$(echo "$submit_out" | sed -n 's/^built-in [^ ]* train=\([^ ]*\) .*/\1/p')
sctl profile mcf --variant edge-check --args "$train" > /dev/null
sctl get-profile mcf > "$uf_root/entry.mcf"
sctl shutdown > /dev/null
wait "$scratch_pid" || true
# One shard, three replicas; the third is never touched by the fault and
# doubles as the uninterrupted reference store for the byte-compare.
declare -a uf_pid uf_out
for r in 0 1 2; do
    uf_out[$r]=$(mktemp)
    cargo run --release -q -p stride-server --bin strided -- \
        serve --addr 127.0.0.1:0 --db "$uf_root/r$r" --workers 2 > "${uf_out[$r]}" &
    uf_pid[$r]=$!
done
replicas=""
for r in 0 1 2; do
    a=""
    for _ in $(seq 1 100); do
        a=$(sed -n 's/^listening on //p' "${uf_out[$r]}")
        [ -n "$a" ] && break
        sleep 0.1
    done
    [ -n "$a" ] || { echo "failover replica $r did not report its address" >&2; exit 1; }
    replicas="$replicas${replicas:+,}$a"
done
ufrt_out=$(mktemp)
cargo run --release -q -p stride-server --bin strided-router -- \
    serve --addr 127.0.0.1:0 --workers 2 --shard "$replicas" > "$ufrt_out" &
ufrt_pid=$!
ufaddr=""
for _ in $(seq 1 100); do
    ufaddr=$(sed -n 's/^listening on //p' "$ufrt_out")
    [ -n "$ufaddr" ] && break
    sleep 0.1
done
[ -n "$ufaddr" ] || { echo "failover router did not report its address" >&2; exit 1; }
ufctl() { cargo run --release -q -p stride-bench --bin stridectl -- --addr "$ufaddr" --retries 1 "$@"; }
for i in 0 1 2; do
    sed "s/^workload .*/workload fo$i/" "$uf_root/entry.mcf" > "$uf_root/entry.fo$i"
    ufctl merge-profile --file "$uf_root/entry.fo$i" > /dev/null \
        || { echo "pre-fault merge fo$i failed" >&2; exit 1; }
done
# Mid-traffic SIGKILL of replica 0: its siblings keep acking while it
# misses its share. Nobody runs route-update from here on.
kill -9 "${uf_pid[0]}"
wait "${uf_pid[0]}" 2>/dev/null || true
for i in 0 1 2; do
    ufctl merge-profile --file "$uf_root/entry.fo$i" > /dev/null \
        || { echo "merge fo$i during replica outage failed (siblings must keep acking)" >&2; exit 1; }
done
# Restart the victim with --announce: it re-registers itself on a fresh
# port; the router's revival re-runs repair, which catches it up.
uf_out[0]=$(mktemp)
cargo run --release -q -p stride-server --bin strided -- \
    serve --addr 127.0.0.1:0 --db "$uf_root/r0" --workers 2 \
    --announce "$ufaddr/0/0" > "${uf_out[0]}" &
uf_pid[0]=$!
healed=""
for _ in $(seq 1 100); do
    if ufctl health 2>/dev/null | grep -qx '0 0 alive' \
        && ufctl repair 2>/dev/null | grep -q '^repair shard=0 divergent=false'; then
        healed=yes
        break
    fi
    sleep 0.2
done
[ -n "$healed" ] || { echo "cluster did not self-heal after --announce (no operator verbs issued)" >&2; exit 1; }
ufctl health | grep -c ' alive$' | grep -qx 3 \
    || { echo "not every replica reports alive after revival" >&2; exit 1; }
ufctl repair | grep -q 'divergent=false' \
    || { echo "post-revival repair round still reports divergence" >&2; exit 1; }
ufctl shutdown | grep -q 'shutting down' || { echo "failover cluster shutdown failed" >&2; exit 1; }
wait "$ufrt_pid" || { echo "failover router exited non-zero" >&2; exit 1; }
for r in 0 1 2; do
    wait "${uf_pid[$r]}" || { echo "failover replica $r exited non-zero" >&2; exit 1; }
done
# Every store byte-identical to the uninterrupted replica 2.
n=$(ls "$uf_root"/r2/*.profdb 2>/dev/null | wc -l)
[ "$n" -eq 3 ] || { echo "uninterrupted reference store has $n entries, want 3" >&2; exit 1; }
for r in 0 1; do
    for f in "$uf_root"/r2/*.profdb; do
        cmp -s "$f" "$uf_root/r$r/$(basename "$f")" \
            || { echo "replica $r store diverged from the uninterrupted reference: $(basename "$f")" >&2; exit 1; }
    done
done
rm -rf "$uf_root" "$scratch_out" "$ufrt_out" "${uf_out[@]}"

echo "== smoke: cluster chaos campaign (two seeds, jobs-invariant) =="
cl_a=$(mktemp)
cl_b=$(mktemp)
cargo run --release -q -p stride-bench --bin faultsim -- --cluster --seed 42 --jobs 1 > "$cl_a"
cargo run --release -q -p stride-bench --bin faultsim -- --cluster --seed 7 --jobs 4 > /dev/null
cargo run --release -q -p stride-bench --bin faultsim -- --cluster --seed 42 --jobs 4 > "$cl_b"
diff "$cl_a" "$cl_b" \
    || { echo "cluster campaign report differs across --jobs" >&2; exit 1; }
diff faultsim_cluster_output.txt "$cl_a" \
    || { echo "cluster campaign report differs from faultsim_cluster_output.txt" >&2; exit 1; }
rm -f "$cl_a" "$cl_b"

echo "== smoke: generator determinism (two seeds x two --jobs, byte-identical) =="
gw() { cargo run --release -q -p stride-genwork --bin genwork -- "$@"; }
gw_root=$(mktemp -d)
for seed in 42 0xfeedbeef; do
    gw gen --out "$gw_root/corpus-$seed-j1" --seed "$seed" --count 32 --jobs 1 > /dev/null
    gw gen --out "$gw_root/corpus-$seed-j4" --seed "$seed" --count 32 --jobs 4 > /dev/null
    diff -r "$gw_root/corpus-$seed-j1" "$gw_root/corpus-$seed-j4" \
        || { echo "generated corpus differs across --jobs (seed $seed)" >&2; exit 1; }
    gw campaign --seed "$seed" --count 48 --jobs 1 --out "$gw_root/camp-$seed-j1" > /dev/null
    gw campaign --seed "$seed" --count 48 --jobs 4 --out "$gw_root/camp-$seed-j4" > /dev/null
    cmp "$gw_root/camp-$seed-j1" "$gw_root/camp-$seed-j4" \
        || { echo "campaign report differs across --jobs (seed $seed)" >&2; exit 1; }
done
cmp -s "$gw_root/camp-42-j1" "$gw_root/camp-0xfeedbeef-j1" \
    && { echo "different seeds produced identical campaign reports" >&2; exit 1; }
rm -rf "$gw_root"

echo "== smoke: oracle campaign at acceptance scale (200 workloads) =="
gw campaign --seed 42 --count 200 --jobs 4 | head -1

echo "== smoke: replay driver vs single daemon (obs budgets, no acked-merge loss) =="
rp_db=$(mktemp -d)
rp_out=$(mktemp)
rp_report=$(mktemp)
cargo run --release -q -p stride-server --bin strided -- \
    serve --addr 127.0.0.1:0 --db "$rp_db" --workers 4 > "$rp_out" &
rp_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$rp_out")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "replay daemon did not report its address" >&2; kill "$rp_pid"; exit 1; }
cargo run --release -q -p stride-bench --bin stridectl -- --addr "$addr" replay \
    --clients 64 --requests 4000 --threads 8 --workloads 4 --merge-pct 20 \
    --max-shed-frac 0.01 --report "$rp_report" \
    || { echo "replay invariants violated" >&2; exit 1; }
python3 - "$rp_report" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["violations"] == [], d["violations"]
assert d["totals"]["ok"] == d["config"]["requests"], d["totals"]
lat = d["latency_us"]
assert lat["merge"]["count"] + lat["read"]["count"] == d["config"]["requests"], lat
assert all(w["runs"] >= w["acked"] for w in d["workloads"]), d["workloads"]
EOF
ctl shutdown | grep -q 'shutting down' || { echo "replay daemon shutdown failed" >&2; exit 1; }
wait "$rp_pid" || { echo "replay daemon exited non-zero" >&2; exit 1; }
rm -rf "$rp_db" "$rp_out" "$rp_report"

echo "ci.sh: all checks passed"
