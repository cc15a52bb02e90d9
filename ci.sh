#!/bin/sh
# Minimal CI: build everything, run the full test suite, then a
# fixed-seed differential-fuzz smoke: a clean campaign must find no
# crashes, and a campaign with a planted miscompile must catch it
# (--expect-crash inverts the exit code).  Both smokes run with
# --jobs 4 — reports are byte-identical to sequential, so this also
# exercises the domain pool.  Finally a timed bench subset guards the
# evaluation harness against performance regressions.
set -eu
cd "$(dirname "$0")"
dune build @all
dune runtest
corpus="$(mktemp -d)"
trap 'rm -rf "$corpus"' EXIT
dune exec bin/bitspecc.exe -- fuzz --seed 1 --trials 25 --corpus "$corpus" \
  --jobs 4
dune exec bin/bitspecc.exe -- fuzz --seed 1 --trials 25 --corpus "$corpus" \
  --jobs 4 --fault miscompile:f --expect-crash

# Observability smoke: a traced compile must produce well-formed Chrome
# trace JSON with balanced begin/end events, the remark stream must
# contain the known CRC32 squeeze decisions and be byte-identical at
# --jobs 1 and --jobs 4, and the misspec histogram total must match the
# simulator's counter.
obs="$(mktemp -d)"
trap 'rm -rf "$corpus" "$obs"' EXIT
dune exec bin/bitspecc.exe -- bench CRC32 --trace "$obs/trace.json" \
  > /dev/null
dune exec bin/bitspecc.exe -- bench CRC32 --remarks --jobs 1 > "$obs/j1.out"
dune exec bin/bitspecc.exe -- bench CRC32 --remarks --jobs 4 > "$obs/j4.out"
b=$(grep -c '"ph":"B"' "$obs/trace.json")
e=$(grep -c '"ph":"E"' "$obs/trace.json")
if [ "$b" -eq 0 ] || [ "$b" -ne "$e" ]; then
  echo "trace smoke: unbalanced events (B=$b E=$e)" >&2
  exit 1
fi
grep -q '"traceEvents"' "$obs/trace.json"
grep -q 'squeezed .*: i32 -> i8 at crc_' "$obs/j1.out"
if ! cmp -s "$obs/j1.out" "$obs/j4.out"; then
  echo "remark smoke: --jobs 1 and --jobs 4 output differ" >&2
  diff "$obs/j1.out" "$obs/j4.out" >&2 || true
  exit 1
fi
dune exec bin/bitspecc.exe -- bench CRC32 --why-misspec \
  | awk '/^misspecs/ { c = $3 } /^misspeculation sites/ { gsub(/[():]/, "", $4); t = $4 }
         END { if (c == "" || t != c) { print "misspec smoke: histogram total " t " != counter " c; exit 1 } }'
echo "observability smoke: OK (trace $b/$e events, remarks jobs-invariant)"

# Intermittent-power smoke: a seeded harvest campaign is deterministic
# (pinned mean restore count) and byte-identical at --jobs 1 vs --jobs 4;
# a power-model injection campaign replays identically run to run; and
# --strict on a clean campaign exits 0.
pw="$(mktemp -d)"
trap 'rm -rf "$corpus" "$obs" "$pw"' EXIT
dune exec bin/bitspecc.exe -- harvest bitcount --trials 10 --dist exp:2000 \
  --seed 3 --jobs 1 > "$pw/h1.out"
dune exec bin/bitspecc.exe -- harvest bitcount --trials 10 --dist exp:2000 \
  --seed 3 --jobs 4 > "$pw/h4.out"
grep -q 'means per trial: 509.1 restores, 2051.0 checkpoints' "$pw/h1.out"
grep -q '^restored  *10$' "$pw/h1.out"
if ! cmp -s "$pw/h1.out" "$pw/h4.out"; then
  echo "harvest smoke: --jobs 1 and --jobs 4 output differ" >&2
  diff "$pw/h1.out" "$pw/h4.out" >&2 || true
  exit 1
fi
dune exec bin/bitspecc.exe -- inject bitcount --model power --strict \
  --trials 8 --seed 5 --dist periodic:1000 > "$pw/p1.out"
dune exec bin/bitspecc.exe -- inject bitcount --model power --strict \
  --trials 8 --seed 5 --dist periodic:1000 > "$pw/p2.out"
if ! cmp -s "$pw/p1.out" "$pw/p2.out"; then
  echo "inject power smoke: runs differ" >&2
  exit 1
fi
grep -q '^restored  *8$' "$pw/p1.out"
# the power reproducers replay into their recorded buckets
dune exec bin/bitspecc.exe -- reduce --check \
  test/corpus/power-restored-hotpc40-seed7.mc > /dev/null
dune exec bin/bitspecc.exe -- reduce --check \
  test/corpus/power-reexec-livelock-hotpc40-seed7.mc > /dev/null
echo "intermittent-power smoke: OK (harvest jobs-invariant, inject deterministic)"

# Engine-differencing smoke: the three dispatch engines (classic /
# threaded / jit) must be observably identical, so a fixed-seed fuzz
# campaign run under classic at --jobs 1 and under jit at --jobs 4 must
# produce byte-identical reports, and every corpus reproducer must
# replay into its recorded bucket under the trace-JIT.
eng="$(mktemp -d)"
trap 'rm -rf "$corpus" "$obs" "$pw" "$eng"' EXIT
dune exec bin/bitspecc.exe -- fuzz --seed 2 --trials 15 --corpus "$eng" \
  --jobs 1 --engine classic > "$eng/classic.out"
dune exec bin/bitspecc.exe -- fuzz --seed 2 --trials 15 --corpus "$eng" \
  --jobs 4 --engine jit > "$eng/jit.out"
if ! cmp -s "$eng/classic.out" "$eng/jit.out"; then
  echo "engine smoke: classic/jobs-1 and jit/jobs-4 reports differ" >&2
  diff "$eng/classic.out" "$eng/jit.out" >&2 || true
  exit 1
fi
for f in test/corpus/*.mc; do
  dune exec bin/bitspecc.exe -- reduce --check --engine jit "$f" > /dev/null
done
echo "engine smoke: OK (fuzz report engine- and jobs-invariant, corpus replays under jit)"

# Interpreter-engine smoke: the closure-compiled interpreter must be
# observably identical to the tree-walker through the whole fuzz
# pipeline — a fixed-seed campaign under each interp engine produces
# byte-identical reports (at different job counts, for good measure) —
# and every corpus reproducer must replay into its recorded bucket with
# the compiled engine serving as the differential reference.
ieng="$(mktemp -d)"
trap 'rm -rf "$corpus" "$obs" "$pw" "$eng" "$ieng"' EXIT
dune exec bin/bitspecc.exe -- fuzz --seed 2 --trials 15 --corpus "$ieng" \
  --jobs 1 --interp-engine tree > "$ieng/tree.out"
dune exec bin/bitspecc.exe -- fuzz --seed 2 --trials 15 --corpus "$ieng" \
  --jobs 4 --interp-engine compiled > "$ieng/compiled.out"
if ! cmp -s "$ieng/tree.out" "$ieng/compiled.out"; then
  echo "interp-engine smoke: tree and compiled fuzz reports differ" >&2
  diff "$ieng/tree.out" "$ieng/compiled.out" >&2 || true
  exit 1
fi
for f in test/corpus/*.mc; do
  dune exec bin/bitspecc.exe -- reduce --check --interp-engine compiled "$f" \
    > /dev/null
done
echo "interp-engine smoke: OK (fuzz report interp-engine-invariant, corpus replays under compiled)"

# Compile-service smoke: start the daemon with a persistent cache, run
# the same seeded zipfian burst twice (the second pass must be served
# almost entirely from the cache layers), kill the server dead
# mid-burst, restart it on the same cache directory and verify the
# store reopened clean (no quarantined entries), then shut down
# gracefully.  Uses the built binary directly: the daemon must not
# hold the dune lock while the client invocations run.
srv="$(mktemp -d)"
serve_pid=
trap 'rm -rf "$corpus" "$obs" "$pw" "$eng" "$srv"; [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true' EXIT
BS=./_build/default/bin/bitspecc.exe
sock="$srv/bs.sock"
"$BS" serve --socket "$sock" --cache-dir "$srv/cache" --jobs 4 \
  --deadline-ms 30000 > "$srv/serve.log" 2>&1 &
serve_pid=$!
i=0
while [ ! -S "$sock" ]; do
  i=$((i + 1))
  [ "$i" -gt 100 ] && { echo "serve smoke: socket never appeared" >&2; exit 1; }
  sleep 0.1
done
"$BS" client --socket "$sock" ping > /dev/null
"$BS" loadgen --socket "$sock" --seed 7 --requests 120 --clients 4 \
  --crash-every 11 --log "$srv/log-pass1.txt" > "$srv/pass1.out"
"$BS" loadgen --socket "$sock" --seed 7 --requests 120 --clients 4 \
  --crash-every 11 --log "$srv/log-pass2.txt" \
  --out "$srv/summary.json" > "$srv/pass2.out"
# the canonical log is independent of scheduling: same seed, same log
if ! cmp -s "$srv/log-pass1.txt" "$srv/log-pass2.txt"; then
  echo "serve smoke: canonical logs of identical passes differ" >&2
  diff "$srv/log-pass1.txt" "$srv/log-pass2.txt" >&2 || true
  exit 1
fi
# second pass over a warm cache: >= 90% of successful compiles cached
hit=$(awk -F'cache hit rate = ' '/cache hit rate/ { print $2 }' "$srv/pass2.out")
awk "BEGIN { exit !($hit >= 0.90) }" || {
  echo "serve smoke: warm-cache hit rate $hit < 0.90" >&2
  exit 1
}
# kill the server dead mid-burst: clients may fail, the store must not
"$BS" loadgen --socket "$sock" --seed 8 --requests 200 --clients 4 \
  > /dev/null 2>&1 &
burst_pid=$!
sleep 0.5
kill -9 "$serve_pid" 2>/dev/null || true
wait "$burst_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
# kill -9 leaves a stale socket file; clear it so the wait loop below
# sees the NEW server's socket, not the corpse's
rm -f "$sock"
# restart on the same cache directory: it must reopen clean
"$BS" serve --socket "$sock" --cache-dir "$srv/cache" --jobs 2 \
  > "$srv/serve2.log" 2>&1 &
serve_pid=$!
i=0
while [ ! -S "$sock" ]; do
  i=$((i + 1))
  [ "$i" -gt 100 ] && { echo "serve smoke: no socket after restart" >&2; exit 1; }
  sleep 0.1
done
"$BS" client --socket "$sock" bench CRC32 > /dev/null
"$BS" client --socket "$sock" stats > "$srv/stats.json"
grep -q '"cache_quarantined":0' "$srv/stats.json" || {
  echo "serve smoke: quarantined entries after kill -9 + restart" >&2
  cat "$srv/stats.json" >&2
  exit 1
}
"$BS" client --socket "$sock" shutdown > /dev/null
wait "$serve_pid" 2>/dev/null || true
serve_pid=
# the loadgen summary must carry the latency/hit-rate guards
grep -q '"p99_ms"' "$srv/summary.json" || {
  echo "serve smoke: loadgen summary is missing p99_ms" >&2
  exit 1
}
grep -q '"cache_hit_rate"' "$srv/summary.json" || {
  echo "serve smoke: loadgen summary is missing cache_hit_rate" >&2
  exit 1
}
echo "serve smoke: OK (warm hit rate $hit, kill -9 recovery clean)"

# Telemetry smoke: a fresh server must agree with the load generator
# about every latency it reports — loadgen --check-server compares the
# request count exactly and p50/p99 to within one histogram bucket,
# recording both views in the loadgen summary — answer health ok, dump a
# Prometheus exposition on SIGUSR1 and again on graceful shutdown, and
# produce byte-identical deterministic counter/gauge snapshot sections
# for the same seeded mix at --jobs 1 and --jobs 4.
tel="$(mktemp -d)"
trap 'rm -rf "$corpus" "$obs" "$pw" "$eng" "$ieng" "$srv" "$tel"; [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true' EXIT
tsock="$tel/bs.sock"
"$BS" serve --socket "$tsock" --cache-dir "$tel/cache" --jobs 4 \
  --metrics-out "$tel/metrics.prom" > "$tel/serve.log" 2>&1 &
serve_pid=$!
i=0
while [ ! -S "$tsock" ]; do
  i=$((i + 1))
  [ "$i" -gt 100 ] && { echo "telemetry smoke: socket never appeared" >&2; exit 1; }
  sleep 0.1
done
"$BS" loadgen --socket "$tsock" --seed 9 --requests 80 --clients 4 \
  --crash-every 13 --check-server --out "$tel/summary.json" > "$tel/load.out"
grep -q 'server count   = .* \[exact\]' "$tel/load.out" || {
  echo "telemetry smoke: server/client request counts disagree" >&2
  cat "$tel/load.out" >&2
  exit 1
}
grep -q 'server p50/p99 = .* \[within bucket\]' "$tel/load.out" || {
  echo "telemetry smoke: server/client percentiles disagree" >&2
  cat "$tel/load.out" >&2
  exit 1
}
"$BS" client --socket "$tsock" health > "$tel/health.json"
grep -q '"ok":true' "$tel/health.json" || {
  echo "telemetry smoke: health not ok after a clean burst" >&2
  cat "$tel/health.json" >&2
  exit 1
}
# a live Prometheus snapshot on SIGUSR1, and another on shutdown
kill -USR1 "$serve_pid"
i=0
while [ ! -s "$tel/metrics.prom" ]; do
  i=$((i + 1))
  [ "$i" -gt 50 ] && { echo "telemetry smoke: no exposition after SIGUSR1" >&2; exit 1; }
  sleep 0.1
done
grep -q '^# TYPE serve_request_ms histogram$' "$tel/metrics.prom"
rm -f "$tel/metrics.prom"
"$BS" client --socket "$tsock" shutdown > /dev/null
wait "$serve_pid" 2>/dev/null || true
serve_pid=
grep -q '^serve_requests_total{outcome="ok"} [1-9]' "$tel/metrics.prom" || {
  echo "telemetry smoke: shutdown exposition missing request counters" >&2
  exit 1
}
# the loadgen summary carries both latency views and the passed cross-check
for key in '"client_p99_ms"' '"server_p99_ms"' '"count_ok":true' '"ok":true'; do
  grep -q "$key" "$tel/summary.json" || {
    echo "telemetry smoke: loadgen summary is missing $key" >&2
    exit 1
  }
done
# deterministic sections are jobs-invariant: same seeded mix against a
# 1-worker and a 4-worker server, byte-identical counters + gauges
for j in 1 4; do
  "$BS" serve --socket "$tel/s$j.sock" --jobs "$j" > "$tel/serve$j.log" 2>&1 &
  serve_pid=$!
  i=0
  while [ ! -S "$tel/s$j.sock" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "telemetry smoke: no socket (--jobs $j)" >&2; exit 1; }
    sleep 0.1
  done
  "$BS" loadgen --socket "$tel/s$j.sock" --seed 11 --requests 60 --clients 4 \
    --crash-every 9 > /dev/null
  sleep 0.3   # let workers finish post-response bookkeeping (gauges -> 0)
  "$BS" client --socket "$tel/s$j.sock" stats > "$tel/stats$j.json"
  "$BS" client --socket "$tel/s$j.sock" shutdown > /dev/null
  wait "$serve_pid" 2>/dev/null || true
  serve_pid=
  grep -o '"counters":\[[^]]*\]' "$tel/stats$j.json" > "$tel/det$j.txt"
  grep -o '"gauges":\[[^]]*\]' "$tel/stats$j.json" >> "$tel/det$j.txt"
done
if ! cmp -s "$tel/det1.txt" "$tel/det4.txt"; then
  echo "telemetry smoke: deterministic sections differ between --jobs 1 and --jobs 4" >&2
  diff "$tel/det1.txt" "$tel/det4.txt" >&2 || true
  exit 1
fi
echo "telemetry smoke: OK (cross-check exact, health ok, counters jobs-invariant)"

# Timed bench subset: fig8 + table2 (the regression-anchored sections).
# Recorded single-job baseline on the reference container: ~3400 ms
# with the trace-JIT machine engine and the closure-compiled
# interpreter.  Fail if the subset takes more than twice that — a
# slowdown of that size means a fast path, the compile cache, the JIT
# or the compiled interpreter broke.
bench_baseline_ms=3400
t0=$(date +%s%3N)
dune exec bench/main.exe -- --jobs 1 fig8 table2 > /dev/null
t1=$(date +%s%3N)
elapsed=$((t1 - t0))
echo "bench subset (fig8 table2): ${elapsed} ms (baseline ${bench_baseline_ms} ms)"
if [ "$elapsed" -gt $((2 * bench_baseline_ms)) ]; then
  echo "bench subset regression: ${elapsed} ms > 2x baseline" >&2
  exit 1
fi

# The bench run above rewrote BENCH_pr9.json: it must report both host
# execution rates (machine simulator and IR interpreter), and the two
# spans the engines exist for must not regress past twice their
# recorded single-job baselines (~1.7 s simulate, ~0.3 s profile on the
# reference container — the profile phase runs the closure-compiled
# interpreter over the memoised training runs).
grep -q '"simulated_mips"' BENCH_pr9.json || {
  echo "bench guard: BENCH_pr9.json is missing simulated_mips" >&2
  exit 1
}
grep -q '"interp_mips"' BENCH_pr9.json || {
  echo "bench guard: BENCH_pr9.json is missing interp_mips" >&2
  exit 1
}
simulate_baseline_ms=1700
simulate_ms=$(awk -F'"seconds": ' '/"experiment:simulate"/ \
  { split($2, a, ","); printf "%d", a[1] * 1000 }' BENCH_pr9.json)
echo "experiment:simulate span: ${simulate_ms} ms (baseline ${simulate_baseline_ms} ms)"
if [ -z "$simulate_ms" ] || [ "$simulate_ms" -gt $((2 * simulate_baseline_ms)) ]; then
  echo "bench guard: simulate span ${simulate_ms:-missing} ms > 2x baseline" >&2
  exit 1
fi
profile_baseline_ms=300
profile_ms=$(awk -F'"seconds": ' '/"name": "profile"/ \
  { split($2, a, ","); printf "%d", a[1] * 1000 }' BENCH_pr9.json)
echo "profile span: ${profile_ms} ms (baseline ${profile_baseline_ms} ms)"
if [ -z "$profile_ms" ] || [ "$profile_ms" -gt $((2 * profile_baseline_ms)) ]; then
  echo "bench guard: profile span ${profile_ms:-missing} ms > 2x baseline" >&2
  exit 1
fi
