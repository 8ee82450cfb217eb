#!/usr/bin/env bash
# Tier-1 verification and static-analysis gates, one mode per pass.
# Run `tools/check.sh --help` for the mode table; `all` is the default
# pre-push bundle (lint, plain, strict, asan). The sanitizer and
# thread-safety passes (tsan, tsa) are requested explicitly — CI runs
# them on every push, locally they cost a full extra build each.
set -euo pipefail

cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"

# When ccache is installed (CI caches its dir across runs), route every
# compile through it: the lint/strict/tsan passes rebuild the whole
# tree from scratch and hit the cache on unchanged files.
launcher_args=()
cxx=(c++)
if command -v ccache > /dev/null 2>&1; then
    launcher_args=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
    cxx=(ccache c++)
fi

usage() {
    cat <<'EOF'
usage: tools/check.sh [MODE]

modes:
  all     lint + plain + strict + asan (the default)
  plain   build + ctest + the obs/alloc/sweep/pipeline smokes
  asan    build + ctest under ASan+UBSan (build-asan/)
  tsan    build + `ctest -L threads` under ThreadSanitizer, then the
          4-thread sweep smoke, in build-tsan/ (PROTEUS_SANITIZE=thread;
          includes the WILL_FAIL racy-counter fixture proving the
          sanitizer fires)
  tsa     clang -Wthread-safety (as errors) build in build-tsa/
          (PROTEUS_THREAD_SAFETY=ON; requires clang++)
  lint    proteus_lint over the tree + clang-tidy (if installed)
  strict  -Wshadow -Wconversion -Wextra-semi -Werror builds, default
          (build-strict/) and Release (build-release/)
  obs     observability smoke only (trace + report + bench_diff)
  sweep   parallel sweep smoke only (4-thread vs 1-thread + --stats gate)
  --help  this table

Modes that need tier-1 binaries (plain, obs, sweep) build into build/.
EOF
}

mode="${1:-all}"

case "${mode}" in
    -h|--help|help)
        usage
        exit 0
        ;;
    all|plain|asan|tsan|tsa|lint|strict|obs|sweep) ;;
    *)
        echo "tools/check.sh: unknown mode '${mode}'" >&2
        usage >&2
        exit 2
        ;;
esac

run_pass() {
    local name="$1" dir="$2"
    shift 2
    echo "=== ${name}: configure ==="
    cmake -B "${dir}" -S . "${launcher_args[@]}" "$@"
    echo "=== ${name}: build ==="
    cmake --build "${dir}" -j "${jobs}"
    echo "=== ${name}: ctest ==="
    ctest --test-dir "${dir}" --output-on-failure -j "${jobs}"
}

build_plain() {
    # obs/sweep smokes reuse the plain tree's binaries; build them
    # without rerunning ctest when the smoke is the requested mode.
    echo "=== plain: configure + build (for smokes) ==="
    cmake -B build -S . "${launcher_args[@]}"
    cmake --build build -j "${jobs}"
}

trace_smoke() {
    # End-to-end observability smoke: run one bench binary with span
    # tracing and timeline sampling enabled, make sure the trace
    # analyser and dashboard renderer can read the results back, and
    # that bench_diff accepts a report compared against itself.
    local dir="$1"
    echo "=== obs smoke: fig05_bursty + proteus_trace ==="
    (cd "${dir}" &&
         PROTEUS_TRACE_FILE=trace_smoke.json \
         PROTEUS_TIMELINE_FILE=timeline_smoke.json \
         ./bench/fig05_bursty > /dev/null)
    "${dir}/tools/proteus_trace" "${dir}/trace_smoke.json" > /dev/null
    echo "=== obs smoke: lineage round-trip (critical path + blame) ==="
    "${dir}/tools/proteus_trace" "${dir}/trace_smoke.json" \
        --critical-path --blame-json "${dir}/blame_smoke.json" > /dev/null
    # The blame JSON must carry at least one family row with time
    # attributed (a zero table means the lineage graph fell apart).
    grep -q '"by_family":{"' "${dir}/blame_smoke.json"
    grep -q '"execution_us":' "${dir}/blame_smoke.json"
    echo "=== obs smoke: observability config + proteus_report ==="
    (cd "${dir}" &&
         ./tools/proteus_sim ../config/observability.json --quiet \
             > /dev/null &&
         ./tools/proteus_report observability_timeline.json \
             --trace observability_trace.json \
             --blame blame_smoke.json \
             --out observability_report.html > /dev/null)
    echo "=== obs smoke: bench_diff self-compare ==="
    "${dir}/tools/bench_diff" "${dir}/BENCH_fig05_bursty.json" \
        "${dir}/BENCH_fig05_bursty.json" > /dev/null
    echo "obs smoke OK (${dir}/observability_report.html)"
}

alloc_smoke() {
    # Zero-allocation smoke (ISSUE 6): the allocation bench links the
    # counting operator new and must report allocs_per_query == 0 for
    # the steady-state window; the bench_diff gate against the
    # committed baseline enforces it (LowerBetter, abs 0.01).
    local dir="$1"
    echo "=== alloc smoke: events_per_sec + bench_diff ==="
    (cd "${dir}" && ./bench/events_per_sec)
    "${dir}/tools/bench_diff" \
        bench/baselines/BENCH_events_per_sec.json \
        "${dir}/BENCH_events_per_sec.json"
}

sweep_smoke() {
    # Parallel experiment runner smoke (ISSUE 7): a 2-config x 10-seed
    # matrix on 4 worker threads must produce a merged store
    # byte-identical to the single-threaded run, and the aggregated
    # report must gate through bench_diff --stats (CI-overlap) against
    # the committed baseline.
    local dir="$1"
    echo "=== sweep smoke: proteus_sweep 4-thread vs 1-thread ==="
    "${dir}/tools/proteus_sweep" config/sweep_smoke.json \
        --threads 4 --out "${dir}/sweep_store.jsonl" \
        --report "${dir}/BENCH_sweep_smoke.json" --quiet
    "${dir}/tools/proteus_sweep" config/sweep_smoke.json \
        --threads 1 --out "${dir}/sweep_store_1t.jsonl" --quiet
    cmp "${dir}/sweep_store.jsonl" "${dir}/sweep_store_1t.jsonl"
    echo "=== sweep smoke: bench_diff --stats vs committed baseline ==="
    "${dir}/tools/bench_diff" --stats \
        bench/baselines/BENCH_sweep_smoke.json \
        "${dir}/BENCH_sweep_smoke.json"
}

pipeline_smoke() {
    # Pipeline serving smoke (ISSUE 8): fig12 must reproduce the joint
    # vs per-stage-independent separation (nonzero exit on a flipped
    # shape), and its report must gate against the committed baseline.
    local dir="$1"
    echo "=== pipeline smoke: fig12_pipelines shape check ==="
    (cd "${dir}" && ./bench/fig12_pipelines > /dev/null)
    echo "=== pipeline smoke: bench_diff vs committed baseline ==="
    "${dir}/tools/bench_diff" \
        bench/baselines/BENCH_fig12_pipelines.json \
        "${dir}/BENCH_fig12_pipelines.json"
}

lint_pass() {
    # proteus_lint has no dependencies, so compile it directly: the
    # lint gate must work on machines without GTest/benchmark.
    echo "=== lint: build proteus_lint ==="
    mkdir -p build-lint
    "${cxx[@]}" -std=c++20 -O2 -Wall -Wextra \
        tools/lint/lint.cc tools/lint/index.cc \
        tools/lint/concurrency.cc tools/lint/proteus_lint.cc \
        -o build-lint/proteus_lint
    echo "=== lint: proteus_lint (src bench tools tests) ==="
    build-lint/proteus_lint
    if command -v clang-tidy > /dev/null 2>&1; then
        echo "=== lint: clang-tidy (src/) ==="
        find src -name '*.cc' -print0 |
            xargs -0 -P "${jobs}" -n 4 clang-tidy --quiet \
                -- -std=c++20 -I src
    else
        echo "=== lint: clang-tidy not installed; skipped (CI runs it) ==="
    fi
}

strict_pass() {
    # Build-only: the point is that the tree compiles warning-free at
    # the raised baseline; plain/asan passes already run the tests.
    # The Release build repeats it at -O3, where gcc's middle-end
    # warnings (-Wrestrict, -Warray-bounds, ...) see inlined code the
    # default RelWithDebInfo build does not.
    echo "=== strict: configure (PROTEUS_STRICT_WARNINGS + -Werror) ==="
    cmake -B build-strict -S . "${launcher_args[@]}" \
        -DPROTEUS_STRICT_WARNINGS=ON -DPROTEUS_WERROR=ON
    echo "=== strict: build ==="
    cmake --build build-strict -j "${jobs}"
    echo "=== strict: configure Release (-Werror) ==="
    cmake -B build-release -S . "${launcher_args[@]}" \
        -DCMAKE_BUILD_TYPE=Release -DPROTEUS_STRICT_WARNINGS=ON \
        -DPROTEUS_WERROR=ON
    echo "=== strict: build Release ==="
    cmake --build build-release -j "${jobs}"
}

tsan_pass() {
    # ThreadSanitizer over the threaded suites (labeled "threads" in
    # tests/CMakeLists.txt: the seed-sweep harness users plus the sweep
    # runner) and the deliberately-racy WILL_FAIL fixture, then the
    # 4-thread sweep smoke under instrumentation. Full per-test ctest
    # under tsan would multiply process spawns for suites that never
    # touch a thread; -L threads spends the sanitizer budget where the
    # races could be.
    echo "=== tsan: configure (PROTEUS_SANITIZE=thread) ==="
    cmake -B build-tsan -S . "${launcher_args[@]}" \
        -DPROTEUS_SANITIZE=thread
    echo "=== tsan: build ==="
    cmake --build build-tsan -j "${jobs}"
    echo "=== tsan: ctest -L threads ==="
    ctest --test-dir build-tsan --output-on-failure -L threads
    echo "=== tsan: 4-thread sweep smoke ==="
    "build-tsan/tools/proteus_sweep" config/sweep_smoke.json \
        --threads 4 --out "build-tsan/sweep_store.jsonl" --quiet
    echo "tsan pass OK"
}

tsa_pass() {
    # Clang thread-safety analysis over the PROTEUS_GUARDED_BY /
    # PROTEUS_REQUIRES annotations (src/common/annotations.h). The
    # attributes are no-ops under gcc, so this build must use clang.
    if ! command -v clang++ > /dev/null 2>&1; then
        echo "tools/check.sh tsa: clang++ not found; the thread-safety" >&2
        echo "attributes only fire under clang (CI runs this pass)." >&2
        exit 2
    fi
    echo "=== tsa: configure (clang + PROTEUS_THREAD_SAFETY) ==="
    cmake -B build-tsa -S . "${launcher_args[@]}" \
        -DCMAKE_CXX_COMPILER=clang++ -DPROTEUS_THREAD_SAFETY=ON
    echo "=== tsa: build ==="
    cmake --build build-tsa -j "${jobs}"
    echo "tsa pass OK"
}

if [[ "${mode}" == "all" || "${mode}" == "lint" ]]; then
    lint_pass
fi

if [[ "${mode}" == "all" || "${mode}" == "plain" ]]; then
    run_pass "plain" build
    trace_smoke build
    alloc_smoke build
    sweep_smoke build
    pipeline_smoke build
fi

if [[ "${mode}" == "obs" ]]; then
    build_plain
    trace_smoke build
fi

if [[ "${mode}" == "sweep" ]]; then
    build_plain
    sweep_smoke build
fi

if [[ "${mode}" == "all" || "${mode}" == "strict" ]]; then
    strict_pass
fi

if [[ "${mode}" == "all" || "${mode}" == "asan" ]]; then
    run_pass "asan+ubsan" build-asan \
        -DPROTEUS_SANITIZE=address,undefined
fi

if [[ "${mode}" == "tsan" ]]; then
    tsan_pass
fi

if [[ "${mode}" == "tsa" ]]; then
    tsa_pass
fi

echo "=== all requested passes OK ==="
