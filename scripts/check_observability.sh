#!/usr/bin/env bash
# CI job for the observability surface: builds the tree, runs every test
# labelled `observability` (unit tests, the validate_trace smoke check and
# the bench_regression gate), then appends a quick-bench data point to the
# repo-level BENCH_history.json and diffs it against the seed entry so the
# perf trajectory of the synthetic benchmarks is gated on every run.
#
# Usage: scripts/check_observability.sh [BUILD_DIR]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build}"

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}"
cmake --build "${BUILD_DIR}" -j "$(nproc)"

ctest --test-dir "${BUILD_DIR}" -L observability --output-on-failure -j "$(nproc)"

# Perf trajectory against the committed history: each CI run appends one
# commit-stamped quick-bench entry and compares the newest entry with the
# seed (first) entry. The generous threshold tolerates machine variance in
# wall_ms while still catching order-of-magnitude regressions; the
# deterministic count/score metrics gate at the defaults.
"${BUILD_DIR}/tools/bench_history" --quick \
    --bench-dir "${BUILD_DIR}/bench" \
    --out "${REPO_ROOT}/BENCH_history.json"
"${BUILD_DIR}/tools/report_diff" \
    --history "${REPO_ROOT}/BENCH_history.json" --against-seed \
    --threshold 100

# Decision-provenance end to end: a fixed-seed pipeline run writing its
# ledger, structural validation of every event line (util/json_parse via
# validate_ledger), and one explain query resolving a real subject pulled
# from the ledger back to a complete lineage.
LEDGER="${BUILD_DIR}/provenance.jsonl"
"${BUILD_DIR}/tools/ltee_cli" run --scale 0.002 --seed 41 --dedup \
    --provenance-out "${LEDGER}" >/dev/null

"${BUILD_DIR}/tools/validate_ledger" "${LEDGER}"

SUBJECT="$(grep -m1 '"reason":"new_entity"' "${LEDGER}" \
    | sed 's/.*"subject":"\([^"]*\)".*/\1/')"
if [[ -z "${SUBJECT}" ]]; then
    echo "check_observability: FAIL: no accepted new_entity fact in ledger" >&2
    exit 1
fi
EXPLAIN="$("${BUILD_DIR}/tools/ltee_cli" explain "${SUBJECT}" \
    --ledger "${LEDGER}" --first)"
echo "${EXPLAIN}"
if ! grep -q "chain: COMPLETE" <<<"${EXPLAIN}"; then
    echo "check_observability: FAIL: explain '${SUBJECT}' has missing lineage links" >&2
    exit 1
fi

# Serving layer end to end: publish a snapshot from a tiny fixed-seed run,
# serve it on an ephemeral port with request observability on (tracing,
# access log), query the JSON endpoints through the loopback client
# (`ltee_cli get` wraps obsv::HttpGet and validates the body parses as
# JSON), then shut the server down cleanly via SIGTERM.
SNAPSHOT="${BUILD_DIR}/smoke_snapshot.bin"
"${BUILD_DIR}/tools/ltee_cli" run --scale 0.002 --seed 41 \
    --publish-snapshot "${SNAPSHOT}" >/dev/null

SERVE_LOG="${BUILD_DIR}/smoke_serve.log"
SERVE_TRACE="${BUILD_DIR}/smoke_serve_trace.json"
ACCESS_LOG="${BUILD_DIR}/smoke_access.jsonl"
rm -f "${SERVE_TRACE}" "${ACCESS_LOG}"
"${BUILD_DIR}/tools/ltee_cli" serve --snapshot "${SNAPSHOT}" --port 0 \
    --trace-out "${SERVE_TRACE}" --access-log "${ACCESS_LOG}" \
    >"${SERVE_LOG}" 2>&1 &
SERVE_PID=$!
trap 'kill "${SERVE_PID}" 2>/dev/null || true' EXIT

PORT=""
for _ in $(seq 1 100); do
    PORT="$(sed -n 's|.*http://localhost:\([0-9]*\).*|\1|p' "${SERVE_LOG}")"
    [[ -n "${PORT}" ]] && break
    sleep 0.1
done
if [[ -z "${PORT}" ]]; then
    echo "check_observability: FAIL: kb service did not report a port" >&2
    cat "${SERVE_LOG}" >&2
    exit 1
fi

"${BUILD_DIR}/tools/ltee_cli" get --port "${PORT}" \
    --path '/kb/entity?id=0' --expect-json >/dev/null
"${BUILD_DIR}/tools/ltee_cli" get --port "${PORT}" \
    --path '/kb/search?q=the&k=3' --expect-json >/dev/null
"${BUILD_DIR}/tools/ltee_cli" get --port "${PORT}" \
    --path '/kb/snapshot' --expect-json >/dev/null

# Request-scoped observability: send a request with a known traceparent
# and require the server to continue that exact trace — the response
# header carries the id back, and (checked after shutdown below) so do
# the access log and the exported request trace.
TRACE_ID="4bf92f3577b34da6a3ce929d0e0e4736"
"${BUILD_DIR}/tools/ltee_cli" get --port "${PORT}" \
    --path '/kb/entity?id=1' --expect-json \
    --traceparent "00-${TRACE_ID}-00f067aa0ba902b7-01" \
    --show-traceparent >"${BUILD_DIR}/smoke_get.out" \
    2>"${BUILD_DIR}/smoke_get.err"
if ! grep -q "traceparent: 00-${TRACE_ID}-" "${BUILD_DIR}/smoke_get.err"; then
    echo "check_observability: FAIL: response did not continue the sent trace" >&2
    cat "${BUILD_DIR}/smoke_get.err" >&2
    exit 1
fi

# The rolling window behind GET /stats must already report percentiles
# for the traffic above.
STATS="$("${BUILD_DIR}/tools/ltee_cli" get --port "${PORT}" \
    --path '/stats' --expect-json)"
if ! grep -q '"p95"' <<<"${STATS}"; then
    echo "check_observability: FAIL: /stats has no windowed p95: ${STATS}" >&2
    exit 1
fi
if ! grep -q '"qps"' <<<"${STATS}"; then
    echo "check_observability: FAIL: /stats has no windowed qps: ${STATS}" >&2
    exit 1
fi

# The terminal dashboard renders frames off the same endpoint.
TOP_OUT="$("${BUILD_DIR}/tools/ltee_top" --port "${PORT}" \
    --iterations 2 --interval-ms 100 --no-clear)"
if ! grep -q "qps" <<<"${TOP_OUT}"; then
    echo "check_observability: FAIL: ltee_top rendered no stats frame" >&2
    echo "${TOP_OUT}" >&2
    exit 1
fi

kill -TERM "${SERVE_PID}"
if ! wait "${SERVE_PID}"; then
    echo "check_observability: FAIL: kb service exited non-zero" >&2
    cat "${SERVE_LOG}" >&2
    exit 1
fi
trap - EXIT
if ! grep -q "kb service stopped" "${SERVE_LOG}"; then
    echo "check_observability: FAIL: kb service did not shut down cleanly" >&2
    cat "${SERVE_LOG}" >&2
    exit 1
fi

# Post-shutdown artifacts: the access log must contain the trace id we
# propagated, and the exported request trace must validate structurally
# and contain the per-request http.request spans carrying that id.
if ! grep -q "${TRACE_ID}" "${ACCESS_LOG}"; then
    echo "check_observability: FAIL: access log is missing the propagated" \
        "trace id ${TRACE_ID}" >&2
    cat "${ACCESS_LOG}" >&2
    exit 1
fi
"${BUILD_DIR}/tools/validate_trace" --file "${SERVE_TRACE}"
if ! grep -q '"http.request"' "${SERVE_TRACE}"; then
    echo "check_observability: FAIL: request trace has no http.request spans" >&2
    exit 1
fi
if ! grep -q "${TRACE_ID}" "${SERVE_TRACE}"; then
    echo "check_observability: FAIL: request trace is missing the propagated" \
        "trace id ${TRACE_ID}" >&2
    exit 1
fi

# Delta pipeline end to end: the delta-labelled unit tests (equivalence
# gate, ingest-while-serving, state round trips), then a CLI smoke over
# the full promotion path — run the base corpus with --state-out, ingest
# the held-out delta tables, and require the incrementally built snapshot
# to be content-identical to the one-shot full run (snapshot_diff exit 0)
# while genuinely differing from the base (exit 1). The ingest ledger
# must validate like a full run's.
ctest --test-dir "${BUILD_DIR}" -L delta --output-on-failure -j "$(nproc)"

DELTA_DIR="${BUILD_DIR}/delta_smoke"
rm -rf "${DELTA_DIR}"
mkdir -p "${DELTA_DIR}"
"${BUILD_DIR}/tools/ltee_cli" generate --out "${DELTA_DIR}" \
    --scale 0.002 --seed 41 --delta-split 50 >/dev/null

"${BUILD_DIR}/tools/ltee_cli" run --kb "${DELTA_DIR}/kb.tsv" \
    --corpus "${DELTA_DIR}/corpus.tsv" \
    --gs-corpus "${DELTA_DIR}/gs_corpus.tsv" \
    --gold "${DELTA_DIR}/gold.tsv" --seed 41 \
    --publish-snapshot "${DELTA_DIR}/full.bin" --snapshot-version 2 \
    >/dev/null

"${BUILD_DIR}/tools/ltee_cli" run --kb "${DELTA_DIR}/kb.tsv" \
    --corpus "${DELTA_DIR}/corpus_base.tsv" \
    --gs-corpus "${DELTA_DIR}/gs_corpus.tsv" \
    --gold "${DELTA_DIR}/gold.tsv" --seed 41 \
    --state-out "${DELTA_DIR}/state" \
    --publish-snapshot "${DELTA_DIR}/base.bin" --snapshot-version 1 \
    >/dev/null

"${BUILD_DIR}/tools/ltee_cli" ingest --state "${DELTA_DIR}/state" \
    --delta "${DELTA_DIR}/corpus_delta.tsv" \
    --publish-snapshot "${DELTA_DIR}/delta.bin" --snapshot-version 2 \
    --ledger "${DELTA_DIR}/delta_ledger.jsonl"

"${BUILD_DIR}/tools/snapshot_diff" \
    "${DELTA_DIR}/full.bin" "${DELTA_DIR}/delta.bin"
if "${BUILD_DIR}/tools/snapshot_diff" \
    "${DELTA_DIR}/base.bin" "${DELTA_DIR}/delta.bin" >/dev/null; then
    echo "check_observability: FAIL: base and delta snapshots are identical" \
        "(the delta smoke is vacuous)" >&2
    exit 1
fi
"${BUILD_DIR}/tools/validate_ledger" "${DELTA_DIR}/delta_ledger.jsonl"

# Sampling profiler end to end: the profile-labelled unit tests, a
# fixed-seed profiled run whose collapsed stacks must surface the row
# clustering similarity path (the paper's hot loop), analyze-profile over
# the written artifact (text and JSON, with per-span attribution and the
# drop counter), and a live bounded capture through GET /profile while
# the kb service answers queries.
ctest --test-dir "${BUILD_DIR}" -L profile --output-on-failure -j "$(nproc)"

PROFILE="${BUILD_DIR}/smoke_profile.collapsed"
"${BUILD_DIR}/tools/ltee_cli" run --scale 0.002 --seed 41 \
    --profile-out "${PROFILE}" --profile-hz 199 >/dev/null
if ! grep -q "^# ltee-profile hz=199 " "${PROFILE}"; then
    echo "check_observability: FAIL: ${PROFILE} has no profile header" >&2
    exit 1
fi
if ! grep -q -e "RowClusterer" -e "rowcluster" "${PROFILE}"; then
    echo "check_observability: FAIL: collapsed profile never sampled the" \
        "row-clustering path" >&2
    exit 1
fi

ANALYSIS="$("${BUILD_DIR}/tools/ltee_cli" analyze-profile "${PROFILE}")"
if ! grep -q "rowcluster.cluster" <<<"${ANALYSIS}"; then
    echo "check_observability: FAIL: analyze-profile reports no" \
        "rowcluster.cluster span attribution" >&2
    echo "${ANALYSIS}" >&2
    exit 1
fi
ANALYSIS_JSON="$("${BUILD_DIR}/tools/ltee_cli" analyze-profile \
    "${PROFILE}" --json)"
for KEY in '"top_functions"' '"spans"' '"dropped"'; do
    if ! grep -q "${KEY}" <<<"${ANALYSIS_JSON}"; then
        echo "check_observability: FAIL: analyze-profile --json is missing" \
            "${KEY}" >&2
        exit 1
    fi
done
if ! python3 -c 'import json,sys; json.load(sys.stdin)' \
    <<<"${ANALYSIS_JSON}"; then
    echo "check_observability: FAIL: analyze-profile --json is not valid" \
        "JSON" >&2
    exit 1
fi

# Live capture under load: serve the earlier snapshot again, keep a
# query loop running, and require GET /profile to return a well-formed
# collapsed capture of the serving process.
PROF_SERVE_LOG="${BUILD_DIR}/smoke_profile_serve.log"
"${BUILD_DIR}/tools/ltee_cli" serve --snapshot "${SNAPSHOT}" --port 0 \
    >"${PROF_SERVE_LOG}" 2>&1 &
PROF_SERVE_PID=$!
trap 'kill "${PROF_SERVE_PID}" 2>/dev/null || true' EXIT

PROF_PORT=""
for _ in $(seq 1 100); do
    PROF_PORT="$(sed -n 's|.*http://localhost:\([0-9]*\).*|\1|p' \
        "${PROF_SERVE_LOG}")"
    [[ -n "${PROF_PORT}" ]] && break
    sleep 0.1
done
if [[ -z "${PROF_PORT}" ]]; then
    echo "check_observability: FAIL: profile smoke service reported no port" >&2
    cat "${PROF_SERVE_LOG}" >&2
    exit 1
fi

( for _ in $(seq 1 500); do
    "${BUILD_DIR}/tools/ltee_cli" get --port "${PROF_PORT}" \
        --path '/kb/search?q=the&k=3' >/dev/null 2>&1 || break
  done ) &
LOAD_PID=$!
LIVE_PROFILE="$("${BUILD_DIR}/tools/ltee_cli" get --port "${PROF_PORT}" \
    --path '/profile?seconds=1&hz=199')"
kill "${LOAD_PID}" 2>/dev/null || true
wait "${LOAD_PID}" 2>/dev/null || true
if ! grep -q "^# ltee-profile hz=199 " <<<"${LIVE_PROFILE}"; then
    echo "check_observability: FAIL: live /profile returned no collapsed" \
        "capture" >&2
    echo "${LIVE_PROFILE}" >&2
    exit 1
fi

kill -TERM "${PROF_SERVE_PID}"
wait "${PROF_SERVE_PID}" || true
trap - EXIT

# Memory observability end to end: the memory-labelled unit tests
# (allocator counters, span attribution, heap-profile round trips,
# /memory semantics, reconciliation) plus the seeded mb regression gate,
# then a fixed-seed tracked run whose collapsed heap profile must
# attribute live bytes to the row-clustering stage (the paper's dense
# pair cache), analyze-memory over the artifact (text and JSON), and a
# live bounded capture through GET /memory while the kb service answers
# queries.
ctest --test-dir "${BUILD_DIR}" -L memory --output-on-failure -j "$(nproc)"

HEAP="${BUILD_DIR}/smoke_heap.collapsed"
"${BUILD_DIR}/tools/ltee_cli" run --scale 0.002 --seed 41 \
    --heap-profile-out "${HEAP}" --heap-sample-kb 16 >/dev/null
if ! grep -q "^# ltee-profile heap=1 sample_kb=16 " "${HEAP}"; then
    echo "check_observability: FAIL: ${HEAP} has no heap profile header" >&2
    exit 1
fi
if ! grep -q "^# ltee-memtrack-span rowcluster.cluster " "${HEAP}"; then
    echo "check_observability: FAIL: heap profile attributes no bytes to" \
        "the row-clustering stage" >&2
    exit 1
fi

MEM_ANALYSIS="$("${BUILD_DIR}/tools/ltee_cli" analyze-memory "${HEAP}")"
if ! grep -q "rowcluster" <<<"${MEM_ANALYSIS}"; then
    echo "check_observability: FAIL: analyze-memory reports no rowcluster" \
        "span attribution" >&2
    echo "${MEM_ANALYSIS}" >&2
    exit 1
fi
MEM_ANALYSIS_JSON="$("${BUILD_DIR}/tools/ltee_cli" analyze-memory \
    "${HEAP}" --json)"
for KEY in '"top_sites"' '"spans"' '"live_bytes"'; do
    if ! grep -q "${KEY}" <<<"${MEM_ANALYSIS_JSON}"; then
        echo "check_observability: FAIL: analyze-memory --json is missing" \
            "${KEY}" >&2
        exit 1
    fi
done
if ! python3 -c 'import json,sys; json.load(sys.stdin)' \
    <<<"${MEM_ANALYSIS_JSON}"; then
    echo "check_observability: FAIL: analyze-memory --json is not valid" \
        "JSON" >&2
    exit 1
fi

# Live capture under load: serve the earlier snapshot once more, keep a
# query loop running, and require GET /memory to return a well-formed
# collapsed heap capture of the serving process. Out-of-range parameters
# must be rejected with 400 (the client surfaces that as a failure).
MEM_SERVE_LOG="${BUILD_DIR}/smoke_memory_serve.log"
"${BUILD_DIR}/tools/ltee_cli" serve --snapshot "${SNAPSHOT}" --port 0 \
    >"${MEM_SERVE_LOG}" 2>&1 &
MEM_SERVE_PID=$!
trap 'kill "${MEM_SERVE_PID}" 2>/dev/null || true' EXIT

MEM_PORT=""
for _ in $(seq 1 100); do
    MEM_PORT="$(sed -n 's|.*http://localhost:\([0-9]*\).*|\1|p' \
        "${MEM_SERVE_LOG}")"
    [[ -n "${MEM_PORT}" ]] && break
    sleep 0.1
done
if [[ -z "${MEM_PORT}" ]]; then
    echo "check_observability: FAIL: memory smoke service reported no port" >&2
    cat "${MEM_SERVE_LOG}" >&2
    exit 1
fi

( for _ in $(seq 1 500); do
    "${BUILD_DIR}/tools/ltee_cli" get --port "${MEM_PORT}" \
        --path '/kb/search?q=the&k=3' >/dev/null 2>&1 || break
  done ) &
MEM_LOAD_PID=$!
LIVE_HEAP="$("${BUILD_DIR}/tools/ltee_cli" get --port "${MEM_PORT}" \
    --path '/memory?seconds=1&sample_kb=16')"
kill "${MEM_LOAD_PID}" 2>/dev/null || true
wait "${MEM_LOAD_PID}" 2>/dev/null || true
if ! grep -q "^# ltee-profile heap=1 sample_kb=16 " <<<"${LIVE_HEAP}"; then
    echo "check_observability: FAIL: live /memory returned no collapsed" \
        "heap capture" >&2
    echo "${LIVE_HEAP}" >&2
    exit 1
fi
if "${BUILD_DIR}/tools/ltee_cli" get --port "${MEM_PORT}" \
    --path '/memory?seconds=0' >/dev/null 2>&1; then
    echo "check_observability: FAIL: /memory accepted seconds=0" >&2
    exit 1
fi
if "${BUILD_DIR}/tools/ltee_cli" get --port "${MEM_PORT}" \
    --path '/memory?sample_kb=0' >/dev/null 2>&1; then
    echo "check_observability: FAIL: /memory accepted sample_kb=0" >&2
    exit 1
fi

# The windowed /stats payload carries the memory section the dashboard's
# --memory panel reads alongside it.
MEM_STATS="$("${BUILD_DIR}/tools/ltee_cli" get --port "${MEM_PORT}" \
    --path '/stats' --expect-json)"
if ! grep -q '"memory"' <<<"${MEM_STATS}"; then
    echo "check_observability: FAIL: /stats has no memory section" >&2
    echo "${MEM_STATS}" >&2
    exit 1
fi

kill -TERM "${MEM_SERVE_PID}"
wait "${MEM_SERVE_PID}" || true
trap - EXIT

echo "check_observability: OK"
