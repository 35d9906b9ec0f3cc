#!/bin/sh
# Release gate: format check, static analysis, build, vet, full tests,
# full race matrix, smokes, quick benches. Mirrors .github/workflows/ci.yml.
#
#   scripts/check.sh          full gate (includes the chaos + serve suites)
#   scripts/check.sh --chaos  chaos + differential oracle suite only:
#                             two fixed seeds plus one rotating seed,
#                             logged so any failure replays exactly via
#                             MNDMST_TEST_SEED=<seed>
#   scripts/check.sh --serve  job-service suite only: race-checked serve
#                             and mndmst-serve tests (concurrent HTTP
#                             clients, coalescing, admission, SIGTERM
#                             drain) plus a live /metrics smoke
#   scripts/check.sh --bench  perf-regression gate only: the mndmst-bench
#                             record (every core scenario and paper table,
#                             every forest verified) twice, byte-identity
#                             required, validated and compared against
#                             the committed bench.baseline.json
#   scripts/check.sh --coverage
#                             coverage ratchet only (scripts/coverage.sh)
set -eu
cd "$(dirname "$0")/.."

run_bench() {
    # Perf-regression gate: the deterministic record of every modeled
    # figure must (a) be byte-identical across two runs — any
    # nondeterminism voids the exact-diff contract — and (b) match the
    # committed baseline exactly. A drifted metric or table cell is a
    # change to bless by regenerating bench.baseline.json in the same
    # commit.
    echo "== perf-regression harness (sim gate) =="
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    go build -o "$tmp/mndmst-bench" ./cmd/mndmst-bench
    "$tmp/mndmst-bench" -quiet -verify -out "$tmp/run1.json"
    "$tmp/mndmst-bench" -quiet -verify -out "$tmp/run2.json"
    cmp "$tmp/run1.json" "$tmp/run2.json" || {
        echo "bench gate: two sim runs are not byte-identical" >&2
        exit 1
    }
    "$tmp/mndmst-bench" -validate "$tmp/run1.json"
    "$tmp/mndmst-bench" -compare bench.baseline.json -current "$tmp/run1.json" || {
        echo "bench gate: regression vs bench.baseline.json — if intentional, regenerate the baseline:" >&2
        echo "  go run ./cmd/mndmst-bench -verify -out bench.baseline.json" >&2
        exit 1
    }
    trap - EXIT
    rm -rf "$tmp"
}

run_serve() {
    # Job-service suite: the serve package and its binary under the race
    # detector (the HTTP e2e test runs 8 concurrent clients; the smoke
    # test delivers a real SIGTERM), then the live /metrics smoke.
    echo "== serve suite (race) =="
    go test -race -timeout 300s -count=1 ./internal/serve/ ./cmd/mndmst-serve/
    run_metrics_smoke
}

run_metrics_smoke() {
    # Metrics smoke against the real binary: start mndmst-serve, run the
    # same job twice (cold compute, then cache hit), check the cache-hit
    # reply, and require the /metrics exposition to show exactly that —
    # the grep is on full sample lines, so a renamed series or a
    # miscounted increment fails the gate, not just an empty scrape.
    echo "== serve metrics smoke (live /metrics scrape) =="
    tmp=$(mktemp -d)
    trap 'kill "$serve_pid" 2>/dev/null; rm -rf "$tmp"' EXIT
    go build -o "$tmp/mndmst-serve" ./cmd/mndmst-serve
    "$tmp/mndmst-serve" -listen 127.0.0.1:0 -workers 2 > "$tmp/serve.log" 2>&1 &
    serve_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/.*serving on \([0-9.:]*\).*/\1/p' "$tmp/serve.log")
        [ -n "$addr" ] && break
        kill -0 "$serve_pid" 2>/dev/null || { cat "$tmp/serve.log"; exit 1; }
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "mndmst-serve never announced its address" >&2; cat "$tmp/serve.log"; exit 1; }
    body='{"graph":{"profile":"road_usa","scale":0.05},"options":{"nodes":2},"wait":true}'
    curl -sf "http://$addr/v1/jobs" -d "$body" > /dev/null
    curl -sf "http://$addr/v1/jobs" -d "$body" > "$tmp/hit.json"
    # The cache-hit reply is one line of compact JSON: one newline, and
    # it is the last byte.
    if [ "$(wc -l < "$tmp/hit.json")" -ne 1 ] || [ -n "$(tail -c 1 "$tmp/hit.json")" ]; then
        echo "metrics smoke: cache-hit reply is not a single line" >&2
        cat "$tmp/hit.json"
        exit 1
    fi
    for field in '"state":"done"' '"cache_hit":true'; do
        if ! grep -qF "$field" "$tmp/hit.json"; then
            echo "metrics smoke: cache-hit reply lacks $field" >&2
            cat "$tmp/hit.json"
            exit 1
        fi
    done
    curl -sf "http://$addr/metrics" > "$tmp/metrics.txt"
    for line in \
        'mndmst_serve_jobs_total{state="done"} 2' \
        'mndmst_serve_result_cache_misses_total 1' \
        'mndmst_serve_result_cache_hits_total 1' \
        'mndmst_serve_job_seconds_count{cache="cold"} 1' \
        'mndmst_serve_job_seconds_count{cache="hot"} 1' \
        'mndmst_serve_queue_depth 0'; do
        if ! grep -qF "$line" "$tmp/metrics.txt"; then
            echo "metrics smoke: missing exact line: $line" >&2
            cat "$tmp/metrics.txt"
            exit 1
        fi
    done
    grep -q '^mndmst_run_phase_compute_seconds{phase=' "$tmp/metrics.txt" || {
        echo "metrics smoke: no per-phase run gauges" >&2
        cat "$tmp/metrics.txt"
        exit 1
    }
    # Every run measures its phases, in-process ones included.
    awk '$1 == "mndmst_run_phase_wall_seconds{phase=\"indComp\"}" && $2 + 0 > 0 { ok = 1 }
        END { exit !ok }' "$tmp/metrics.txt" || {
        echo "metrics smoke: no non-zero indComp wall gauge" >&2
        cat "$tmp/metrics.txt"
        exit 1
    }
    kill -TERM "$serve_pid"
    wait "$serve_pid" || { echo "mndmst-serve did not drain cleanly on SIGTERM" >&2; cat "$tmp/serve.log"; exit 1; }
    trap - EXIT
    rm -rf "$tmp"
    echo "metrics smoke passed"
}

run_chaos() {
    # Fault-injection suite: deterministic chaos transport + differential
    # MSF oracle, race-checked and deadline-bounded so any reintroduced
    # hang fails fast. Two pinned seeds keep the gate reproducible; the
    # rotating seed walks fresh fault schedules and is printed so a red
    # run can be replayed bit-identically.
    rotating=$(date +%s)
    for seed in 1 20240724 "$rotating"; do
        echo "== chaos + oracle suite (seed $seed; replay with MNDMST_TEST_SEED=$seed) =="
        MNDMST_TEST_SEED="$seed" go test -race -timeout 120s -count=1 ./internal/chaos/
        MNDMST_TEST_SEED="$seed" go test -race -timeout 120s -count=1 -run TestFindMSFDistributed .
    done
}

if [ "${1:-}" = "--chaos" ]; then
    run_chaos
    echo "chaos checks passed"
    exit 0
fi

if [ "${1:-}" = "--serve" ]; then
    run_serve
    echo "serve checks passed"
    exit 0
fi

if [ "${1:-}" = "--bench" ]; then
    run_bench
    echo "bench gate passed"
    exit 0
fi

if [ "${1:-}" = "--coverage" ]; then
    exec scripts/coverage.sh
fi

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "unformatted files:" "$unformatted"
    exit 1
fi

echo "== build =="
go build ./...

echo "== mndmst-lint (project invariants, baseline-gated) =="
# Exit 1 means new findings (fix, justify, or baseline them); exit 2 means
# the analysis itself failed to run — report them differently so a broken
# loader is never mistaken for a dirty tree.
set +e
go run ./cmd/mndmst-lint -baseline lint.baseline.json ./...
lint_status=$?
set -e
case $lint_status in
    0) ;;
    1) echo "mndmst-lint: new findings above — fix them, justify with //lint:<token>, or baseline with -update-baseline" >&2
       exit 1 ;;
    *) echo "mndmst-lint: analysis failed to run (exit $lint_status)" >&2
       exit 1 ;;
esac

echo "== mndmst-lint (self-test: bad corpus must exit 1) =="
set +e
go run ./cmd/mndmst-lint -q ./internal/lint/testdata/src/bad >/dev/null 2>&1
corpus_status=$?
set -e
if [ "$corpus_status" -ne 1 ]; then
    echo "mndmst-lint: known-bad corpus exited $corpus_status, want 1 (findings)" >&2
    exit 1
fi

echo "== vet =="
go vet ./...

echo "== tests =="
go test ./...

echo "== race (full matrix) =="
go test -race ./...

echo "== deadlock regression (race, tight timeout) =="
# The merge-communication deadlock class must stay dead: the legacy
# send-all-then-receive-all schedule wedges over bounded buffers while the
# interleaved engine completes. A tight -timeout turns any reintroduced
# hang into a fast failure instead of a 10-minute stall.
go test -race -timeout 90s \
    -run 'TestLegacyExchangeDeadlocksUnderBoundedBuffers|TestExchangeDeltasBoundedBuffersNoDeadlock|TestExchangeMemTCPSimulatedTimeParity' \
    ./internal/merge/

run_chaos

run_serve

echo "== multi-process smoke (loopback TCP workers) =="
go run ./cmd/mndmst -launch local:4 -profile arabic-2005 -scale 0.05 -verify

echo "== README chaos drill (benign faults over loopback TCP) =="
go run ./cmd/mndmst -launch local:4 -profile road_usa -scale 0.05 -chaos-seed 7 -chaos-dup 0.05 -chaos-reorder 0.05 -verify

echo "== json record smoke (CLI/server shared schema) =="
go run ./cmd/mndmst -profile arabic-2005 -scale 0.05 -verify -json

echo "== benches (smoke) =="
go test -run XXX -bench 'FindMSFHost|FilterKruskalHost|ExchangeComm' -benchtime 1x .
go test -run XXX -bench Kernel -benchtime 1x -benchmem ./internal/boruvka/
go test -run XXX -bench . -benchtime 1x ./internal/merge/
go test -run XXX -bench Host -benchtime 1x ./internal/bsp/ ./internal/apps/

run_bench

echo "all checks passed"
