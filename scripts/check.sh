#!/bin/sh
# Full local gate: release build, test suite, lint pass, a rustdoc pass
# with warnings (missing_docs among them) promoted to errors, and a
# failure-injection smoke run of the fault-tolerant pipeline.
set -eu
cd "$(dirname "$0")/.."

cargo build --release --workspace
cargo test -q
cargo clippy --workspace --all-targets -q -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Unsafe-code gate: every crate root (workspace and vendored shims)
# must carry #![forbid(unsafe_code)], and no source line may use
# `unsafe` at all — the attribute makes the compiler enforce it, the
# grep catches a root file losing the attribute.
for f in src/lib.rs crates/*/src/lib.rs vendor/*/src/lib.rs; do
    grep -q '#!\[forbid(unsafe_code)\]' "$f" || {
        echo "check.sh: $f is missing #![forbid(unsafe_code)]" >&2
        exit 1
    }
done
if grep -rn --include='*.rs' 'unsafe' src crates vendor | grep -v 'forbid(unsafe_code)'; then
    echo "check.sh: unsafe code found (listed above)" >&2
    exit 1
fi

# Static-analysis gate: every golden check fixture must produce its
# pinned diagnostics (asserted byte-for-byte by the check_golden test
# in `cargo test` above); here, re-assert the exit-code contract over
# the fixtures with the release binary, and lint every doc-embedded
# query.
lint_query=./target/release/cali-query
golden=crates/cli/tests/golden
for fixture in "$golden"/checks/*.calql; do
    q=$(grep -v '^#' "$fixture" | tr '\n' ' ')
    rc=0
    "$lint_query" -q "$q" --check "$golden"/data/rank0.cali "$golden"/data/rank1.cali \
        >/dev/null 2>&1 || rc=$?
    case "$fixture" in
        */clean.calql) want=0 ;;
        */unused-let.calql|*/self-referential-let.calql|*/where-type-mismatch.calql|*/pushdown-ineligible.calql) want=2 ;;
        *) want=1 ;;
    esac
    if [ "$rc" -ne "$want" ]; then
        echo "check.sh: --check on $fixture exited $rc, expected $want" >&2
        exit 1
    fi
done
scripts/lint_doc_queries.sh "$lint_query"

# Failure-injection smoke: a corrupt corpus must be salvageable with
# --lenient (and fatal without), and a killed rank must leave fig4's
# resilient reduction with an honest coverage report (asserted inside
# the harness).
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
printf '__rec=attr,id=0,name=kernel,type=string,prop=default\n__rec=ctx,attr=0,data=ok\n' \
    > "$smoke/good.cali"
printf '__rec=attr,id=0,name=kernel,type=string,prop=default\n__rec=ctx,attr=99,data=broken\n__rec=ctx,attr=0,data=ok\n' \
    > "$smoke/bad.cali"
if cargo run -q --release -p cali-cli --bin cali-query -- \
    -q "AGGREGATE count GROUP BY kernel" "$smoke/good.cali" "$smoke/bad.cali" \
    >/dev/null 2>&1; then
    echo "check.sh: strict read of a corrupt corpus unexpectedly succeeded" >&2
    exit 1
fi
# Lenient over partial data succeeds with the distinct exit code 2.
rc=0
cargo run -q --release -p cali-cli --bin cali-query -- \
    --lenient --max-groups 8 -q "AGGREGATE count GROUP BY kernel" \
    "$smoke/good.cali" "$smoke/bad.cali" > "$smoke/lenient.out" 2>/dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "check.sh: lenient read over partial data exited $rc, expected 2" >&2
    exit 1
fi
grep -q "ok" "$smoke/lenient.out"
cargo run -q --release -p caliper-bench --bin fig4 -- --quick --max-np 8 --kill 3 \
    > /dev/null
# fig4 at np = 1 has no reduction levels; an empty f64 sum is -0.0, so
# the harness must never print a negative zero.
cargo run -q --release -p caliper-bench --bin fig4 -- --quick --max-np 2 \
    > "$smoke/fig4.out" 2>/dev/null
if grep -q -- '-0\.0' "$smoke/fig4.out"; then
    echo "check.sh: fig4 printed a negative zero" >&2
    exit 1
fi

# Engine-agreement gate: every mpi-caliquery run is one ReduceTask
# reduction, so neither the engine, the topology, a straggler, nor
# thousands of empty ranks may change the answer — each run exits 0
# with byte-identical stdout.
mpq=./target/release/mpi-caliquery
for i in 0 1 2 3; do
    { printf '__rec=attr,id=0,name=kernel,type=string,prop=default\n'
      printf '__rec=attr,id=1,name=time.duration,type=double,prop=asvalue\\,aggregatable\n'
      printf '__rec=ctx,attr=0,data=k%s,attr=1,data=%s\n' "$i" "$((i + 1))"
      printf '__rec=ctx,attr=0,data=shared,attr=1,data=%s.5\n' "$i"
    } > "$smoke/agree-in$i.cali"
done
aq="AGGREGATE count, sum(time.duration) GROUP BY kernel ORDER BY kernel"
"$mpq" -q "$aq" "$smoke"/agree-in*.cali > "$smoke/agree-default.out"
"$mpq" --engine event --workers 2 -q "$aq" "$smoke"/agree-in*.cali > "$smoke/agree-event.out"
"$mpq" --engine event --workers 2 --ranks 4096 -q "$aq" "$smoke"/agree-in*.cali \
    > "$smoke/agree-event4096.out"
"$mpq" --nodes 2 -q "$aq" "$smoke"/agree-in*.cali > "$smoke/agree-nodes.out"
"$mpq" --faults 'mpi.delay=at(1,0,20)' -q "$aq" "$smoke"/agree-in*.cali \
    > "$smoke/agree-delay.out"
grep -q "shared" "$smoke/agree-default.out" || {
    echo "check.sh: engine-agreement corpus produced no rows" >&2
    exit 1
}
for run in event event4096 nodes delay; do
    cmp -s "$smoke/agree-default.out" "$smoke/agree-$run.out" || {
        echo "check.sh: mpi-caliquery stdout differs between the default run and '$run'" >&2
        exit 1
    }
done
echo "check.sh: engine agreement: threads/event/4096-rank event/two-level/straggler runs byte-identical"

# Event-engine scale smoke: a 2048-rank resilient tree reduction with a
# seeded kill plan must finish inside a strict wall-clock budget (a
# scheduler regression toward thread-per-rank cost blows it) and be
# byte-identical across runs and across worker-pool sizes.
fig4=./target/release/fig4
scale_start=$(date +%s)
"$fig4" --ranks 2048 --engine event --kills 5 --kill-seed 7 \
    > "$smoke/scale-a.out" 2>/dev/null
"$fig4" --ranks 2048 --engine event --kills 5 --kill-seed 7 \
    > "$smoke/scale-b.out" 2>/dev/null
"$fig4" --ranks 2048 --engine event --kills 5 --kill-seed 7 --workers 4 \
    > "$smoke/scale-c.out" 2>/dev/null
scale_elapsed=$(( $(date +%s) - scale_start ))
cmp -s "$smoke/scale-a.out" "$smoke/scale-b.out" \
    && cmp -s "$smoke/scale-a.out" "$smoke/scale-c.out" || {
    echo "check.sh: 2048-rank event-engine output differs across runs/workers" >&2
    exit 1
}
grep -q "^sched_events," "$smoke/scale-a.out" || {
    echo "check.sh: event-engine smoke reported no scheduler stats" >&2
    exit 1
}
if [ "$scale_elapsed" -gt 30 ]; then
    echo "check.sh: event-engine scale smoke took ${scale_elapsed}s (budget 30s)" >&2
    exit 1
fi
echo "check.sh: event-engine smoke: 2048 ranks, seeded kills, deterministic in ${scale_elapsed}s"

# Crash-recovery smoke: run the journaling CleverLeaf demo, SIGKILL it
# mid-run, and verify (a) the torn journal is a byte prefix of a clean
# run's (pacing never changes the data), (b) cali-recover salvages it,
# and (c) aggregating the salvage is identical for every --threads N.
demo=./target/release/journal_demo
query=./target/release/cali-query
recover=./target/release/cali-recover
"$demo" --journal "$smoke/clean-journal.cali" --timesteps 6 2>/dev/null
"$demo" --journal "$smoke/torn-journal.cali" --timesteps 6 --pace 0.5 2>/dev/null &
demo_pid=$!
sleep 2
kill -9 "$demo_pid" 2>/dev/null || {
    echo "check.sh: paced journal_demo finished before the kill; raise --pace" >&2
    exit 1
}
wait "$demo_pid" 2>/dev/null || true
torn_bytes=$(wc -c < "$smoke/torn-journal.cali")
if [ "$torn_bytes" -eq 0 ]; then
    echo "check.sh: killed run journaled nothing; lower --pace" >&2
    exit 1
fi
head -c "$torn_bytes" "$smoke/clean-journal.cali" | cmp -s - "$smoke/torn-journal.cali" || {
    echo "check.sh: torn journal is not a byte prefix of the clean run's" >&2
    exit 1
}
rc=0
"$recover" -o "$smoke/recovered.cali" "$smoke/torn-journal.cali" 2>"$smoke/recover.err" || rc=$?
if [ "$rc" -ne 0 ] && [ "$rc" -ne 2 ]; then
    cat "$smoke/recover.err" >&2
    echo "check.sh: cali-recover exited $rc" >&2
    exit 1
fi
grep -q "salvaged" "$smoke/recover.err"
for n in 1 2 4; do
    "$query" --threads "$n" \
        -q "AGGREGATE count, sum(time.duration) GROUP BY kernel ORDER BY kernel" \
        "$smoke/recovered.cali" > "$smoke/agg-$n.out" 2>/dev/null
done
cmp -s "$smoke/agg-1.out" "$smoke/agg-2.out" && cmp -s "$smoke/agg-1.out" "$smoke/agg-4.out" || {
    echo "check.sh: recovered aggregation differs across --threads" >&2
    exit 1
}
echo "check.sh: crash-recovery smoke: salvaged $(grep -c . "$smoke/agg-1.out") aggregation rows from a SIGKILLed run"

# Self-instrumentation smoke (the golden-file + property conformance
# suites themselves ride on `cargo test` above): the --stats block must
# be sorted, non-trivial, and byte-identical for every --threads N, and
# --stats=json must stay parseable with the core schema keys present.
for n in 1 2 4; do
    "$query" --threads "$n" --stats \
        -q "AGGREGATE count, sum(time.duration) GROUP BY kernel ORDER BY kernel" \
        "$smoke/recovered.cali" >/dev/null 2>"$smoke/stats-$n.out"
done
LC_ALL=C sort -c "$smoke/stats-1.out" || {
    echo "check.sh: --stats block is not sorted by metric name" >&2
    exit 1
}
grep -q "^format.reader.records=[1-9]" "$smoke/stats-1.out" || {
    echo "check.sh: --stats block is missing reader record counts" >&2
    exit 1
}
cmp -s "$smoke/stats-1.out" "$smoke/stats-2.out" && cmp -s "$smoke/stats-1.out" "$smoke/stats-4.out" || {
    echo "check.sh: --stats block differs across --threads" >&2
    exit 1
}
"$query" --threads 2 --stats=json \
    -q "AGGREGATE count GROUP BY kernel" "$smoke/recovered.cali" \
    >/dev/null 2>"$smoke/stats.json"
grep -q '"query.aggregator.records"' "$smoke/stats.json" || {
    echo "check.sh: --stats=json is missing aggregator metrics" >&2
    exit 1
}
echo "check.sh: self-instrumentation smoke: --stats stable across thread counts"

# Columnar-encoding smoke: cali-pack must rewrite the golden corpus as
# CALB v2 (and back to v1), and a selective query must produce
# byte-identical output on the text, v1, and v2 encodings — with the v2
# run actually skipping blocks — for every --threads N.
pack=./target/release/cali-pack
"$pack" -o "$smoke/golden.calb2" --block-records 4 \
    "$golden"/data/rank0.cali "$golden"/data/rank1.cali 2>/dev/null
"$pack" -o "$smoke/golden.calb" --v1 \
    "$golden"/data/rank0.cali "$golden"/data/rank1.cali 2>/dev/null
pq="AGGREGATE count, sum(time.duration) WHERE loop.iteration > 2 GROUP BY function ORDER BY function"
"$query" -q "$pq" "$golden"/data/rank0.cali "$golden"/data/rank1.cali > "$smoke/pq-text.out" 2>/dev/null
for n in 1 2 4; do
    "$query" --threads "$n" -q "$pq" "$smoke/golden.calb" > "$smoke/pq-v1-$n.out" 2>/dev/null
    "$query" --threads "$n" --stats -q "$pq" "$smoke/golden.calb2" \
        > "$smoke/pq-v2-$n.out" 2>"$smoke/pq-v2-$n.stats"
    cmp -s "$smoke/pq-text.out" "$smoke/pq-v1-$n.out" || {
        echo "check.sh: v1 query output differs from text encoding (--threads $n)" >&2
        exit 1
    }
    cmp -s "$smoke/pq-text.out" "$smoke/pq-v2-$n.out" || {
        echo "check.sh: v2 query output differs from text encoding (--threads $n)" >&2
        exit 1
    }
done
grep -q "^format.reader.blocks_skipped=[1-9]" "$smoke/pq-v2-1.stats" || {
    echo "check.sh: v2 selective query skipped no blocks" >&2
    exit 1
}
cmp -s "$smoke/pq-v2-1.stats" "$smoke/pq-v2-2.stats" && cmp -s "$smoke/pq-v2-1.stats" "$smoke/pq-v2-4.stats" || {
    echo "check.sh: v2 --stats block differs across --threads" >&2
    exit 1
}
echo "check.sh: columnar smoke: v1/v2 outputs identical, $(sed -n 's/^format.reader.blocks_skipped=//p' "$smoke/pq-v2-1.stats") blocks skipped"

# Chaos smoke: a typo'd fault spec must be a hard error, transient
# injected faults must be absorbed by retry, a degraded run must be
# byte-identical across --threads and equal a clean run over the
# surviving files, and a seed-mutated corpus must never panic a reader
# (full matrix in crates/cli/tests/chaos.rs; model in docs/CHAOS.md).
for i in 0 1 2; do
    { printf '__rec=attr,id=0,name=kernel,type=string,prop=default\n'
      printf '__rec=ctx,attr=0,data=k%s\n__rec=ctx,attr=0,data=k%s\n' "$i" "$i"
    } > "$smoke/chaos-in$i.cali"
done
cq="AGGREGATE count GROUP BY kernel ORDER BY kernel"
if "$query" --faults "io.read=fail(" -q "$cq" "$smoke/chaos-in0.cali" >/dev/null 2>&1; then
    echo "check.sh: malformed --faults spec was not a hard error" >&2
    exit 1
fi
"$query" -q "$cq" "$smoke"/chaos-in*.cali > "$smoke/chaos-clean.out" 2>/dev/null
"$query" --faults "io.read=fail(2)" -q "$cq" "$smoke"/chaos-in*.cali \
    > "$smoke/chaos-retry.out" 2>/dev/null
cmp -s "$smoke/chaos-clean.out" "$smoke/chaos-retry.out" || {
    echo "check.sh: run with retried transient faults differs from the clean run" >&2
    exit 1
}
"$query" -q "$cq" "$smoke/chaos-in0.cali" "$smoke/chaos-in2.cali" \
    > "$smoke/chaos-survivors.out" 2>/dev/null
for n in 1 2 4; do
    rc=0
    "$query" --threads "$n" --degrade --faults "io.read~chaos-in1=fail(9)" \
        -q "$cq" "$smoke"/chaos-in*.cali \
        > "$smoke/chaos-deg-$n.out" 2> "$smoke/chaos-deg-$n.err" || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "check.sh: degraded chaos run exited $rc, expected 2 (--threads $n)" >&2
        exit 1
    fi
done
cmp -s "$smoke/chaos-deg-1.out" "$smoke/chaos-deg-2.out" \
    && cmp -s "$smoke/chaos-deg-1.out" "$smoke/chaos-deg-4.out" \
    && cmp -s "$smoke/chaos-deg-1.err" "$smoke/chaos-deg-2.err" \
    && cmp -s "$smoke/chaos-deg-1.err" "$smoke/chaos-deg-4.err" || {
    echo "check.sh: degraded chaos output differs across --threads" >&2
    exit 1
}
cmp -s "$smoke/chaos-deg-1.out" "$smoke/chaos-survivors.out" || {
    echo "check.sh: degraded result differs from a clean run over the survivors" >&2
    exit 1
}
"$pack" -o "$smoke/chaos.calb2" --block-records 2 "$smoke"/chaos-in*.cali 2>/dev/null
for seed in 1 2 3; do
    for victim in chaos-in1.cali chaos.calb2; do
        cp "$smoke/$victim" "$smoke/fuzz-$victim"
        "$pack" --mutate bitflip --seed "$seed" "$smoke/fuzz-$victim" 2>/dev/null
        for flags in "strict" "--lenient --degrade"; do
            if [ "$flags" = "strict" ]; then flags=""; fi
            rc=0
            "$query" $flags -q "$cq" "$smoke/fuzz-$victim" \
                >/dev/null 2>"$smoke/fuzz.err" || rc=$?
            if [ "$rc" -gt 2 ] || grep -q "panicked" "$smoke/fuzz.err"; then
                echo "check.sh: fuzzed read of $victim (seed $seed) panicked or crashed" >&2
                exit 1
            fi
        done
    done
done
echo "check.sh: chaos smoke: deterministic degraded reads, fuzzed corpus never panics"

# Resident-daemon smoke (docs/SERVED.md): start cali-served, ingest the
# golden corpus over TCP, query it over HTTP, drain it gracefully
# (exit 0), restart over the same journals, and verify the recovered
# answer byte-identically. Every client call carries a socket timeout,
# so a wedged daemon fails the gate instead of hanging it.
served=./target/release/cali-served
sq="SELECT function, count, sum#time.duration, stream ORDER BY stream, function FORMAT csv"
start_served() {
    rm -f "$smoke/served-ports"
    "$served" --data-dir "$smoke/served-data" --ports-file "$smoke/served-ports" \
        --aggregate "count,sum(time.duration)" --group-by function --fsync \
        > "$smoke/served.log" 2>&1 &
    served_pid=$!
    tries=0
    while [ ! -s "$smoke/served-ports" ]; do
        tries=$((tries + 1))
        if [ "$tries" -gt 100 ]; then
            echo "check.sh: cali-served never wrote its ports file" >&2
            cat "$smoke/served.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    served_http="127.0.0.1:$(sed -n 's/^http=//p' "$smoke/served-ports")"
    served_ingest="127.0.0.1:$(sed -n 's/^ingest=//p' "$smoke/served-ports")"
}
start_served
"$served" --http "$served_http" --timeout-ms 10000 --probe /readyz > /dev/null
"$served" --connect "$served_ingest" --timeout-ms 10000 --stream rank0 \
    "$golden/data/rank0.cali" > /dev/null
"$served" --connect "$served_ingest" --timeout-ms 10000 --stream rank1 \
    "$golden/data/rank1.cali" > /dev/null
"$served" --http "$served_http" --timeout-ms 10000 --client-query "$sq" \
    > "$smoke/served-before.csv"
"$served" --http "$served_http" --timeout-ms 10000 --shutdown > /dev/null
rc=0
wait "$served_pid" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "check.sh: cali-served graceful drain exited $rc, expected 0" >&2
    cat "$smoke/served.log" >&2
    exit 1
fi
start_served
"$served" --http "$served_http" --timeout-ms 10000 --client-query "$sq" \
    > "$smoke/served-after.csv"
"$served" --http "$served_http" --timeout-ms 10000 --shutdown > /dev/null
wait "$served_pid" || {
    echo "check.sh: restarted cali-served drain failed" >&2
    exit 1
}
cmp -s "$smoke/served-before.csv" "$smoke/served-after.csv" || {
    echo "check.sh: cali-served recovered answer differs from pre-restart answer" >&2
    exit 1
}
grep -q "," "$smoke/served-before.csv" || {
    echo "check.sh: cali-served query returned no data" >&2
    exit 1
}
echo "check.sh: served smoke: ingest->query->drain->restart recovered byte-identically"

# Race-analysis gate: the 2048-rank seeded-kill two-level reduction
# must certify race- and deadlock-free, with a certificate that is
# byte-identical across repeat runs and event-engine worker pools; and
# the deliberately faulty demo programs must keep the analyzer's pinned
# exit-code contract (0 clean / 1 warnings denied / 2 errors; model in
# docs/ANALYSIS.md).
race=./target/release/cali-race
"$race" --ranks 2048 --kills 5 --nodes 32 --workers 1 > "$smoke/race-w1.cert"
"$race" --ranks 2048 --kills 5 --nodes 32 --workers 1 > "$smoke/race-w1-again.cert"
"$race" --ranks 2048 --kills 5 --nodes 32 --workers 4 > "$smoke/race-w4.cert"
grep -q "verdict: CLEAN (race-free, deadlock-free)" "$smoke/race-w1.cert" || {
    echo "check.sh: 2048-rank seeded-kill reduction did not certify clean" >&2
    cat "$smoke/race-w1.cert" >&2
    exit 1
}
cmp -s "$smoke/race-w1.cert" "$smoke/race-w1-again.cert" || {
    echo "check.sh: cali-race certificate differs between repeat runs" >&2
    exit 1
}
cmp -s "$smoke/race-w1.cert" "$smoke/race-w4.cert" || {
    echo "check.sh: cali-race certificate differs across --workers 1/4" >&2
    exit 1
}
for demo_want in wildcard-race:2 deadlock:2 straggler:0; do
    demo=${demo_want%:*}
    want=${demo_want#*:}
    rc=0
    "$race" --program "$demo" --ranks 8 > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne "$want" ]; then
        echo "check.sh: cali-race --program $demo exited $rc, expected $want" >&2
        exit 1
    fi
done
rc=0
"$race" --program straggler --ranks 8 --deny-warnings > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "check.sh: cali-race --deny-warnings exited $rc, expected 1" >&2
    exit 1
fi
echo "check.sh: race analysis: 2048-rank certificate clean and deterministic, demo exit codes pinned"
echo "check.sh: all gates passed"
