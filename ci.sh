#!/usr/bin/env bash
# CI entry point.
#
#   ci.sh            — tier-1 verify (configure, build, ctest) plus
#                      format + header checks, a microbenchmark
#                      baseline (BENCH_seed.json), a perf-harness
#                      smoke run, and the benchmark's own smoke test
#                      (perf-smoke).
#   ci.sh format     — clang-format --dry-run -Werror over src/,
#                      tests/, bench/, examples/ (skipped with a
#                      warning when clang-format is not installed).
#   ci.sh headers    — header self-sufficiency: compiles every public
#                      header under src/ as a standalone translation
#                      unit with -Wall -Wextra -Werror, so no header
#                      silently depends on its includer's includes.
#   ci.sh analyze    — static analysis (DESIGN.md §14). Three legs:
#                      (1) tools/lint_invariants.py (self-test, then
#                      the full src/ sweep) — python3-only, so it runs
#                      everywhere; (2) clang++ -Wthread-safety
#                      -Werror=thread-safety syntax-only sweep over
#                      every src/ TU, plus a negative harness proving
#                      the annotations fire on a deliberately broken
#                      sample (tools/analyze/); (3) clang-tidy with
#                      the repo .clang-tidy over src/, plus its own
#                      negative harness. Legs 2 and 3 are tool-gated
#                      like `format`: skipped with a warning when
#                      clang/clang-tidy are not installed. Runs in the
#                      default flow.
#   ci.sh sanitize   — the same test suite built with
#                      -fsanitize=address,undefined,float-cast-overflow,
#                      with per-test timeouts; leak- and UB-checks the
#                      exchange rounds, drain loops and coalescing
#                      paths of the distributed engines,
#                      the mmap open/storage-view suites (test_storage,
#                      test_kdtree_io — out-of-bounds reads through
#                      mapped spans), and the external-build spill
#                      pipeline (test_external_build). GCC's
#                      `undefined` group leaves float-cast-overflow
#                      out, so it is named on its own: the batch
#                      order's Morton key (core/batch_order.cpp)
#                      quantises coordinates with exactly that
#                      float-to-int conversion, and the BatchOrder
#                      tests feed it NaN, ±Inf and ±FLT_MAX.
#   ci.sh crash      — the crash-safety suites (DESIGN.md §13):
#                      test_crash_recovery re-execs itself as child
#                      processes killed at armed failpoints mid-commit
#                      and verifies acked-write durability; test_wal,
#                      test_checksum, test_kdtree_io, and test_storage
#                      pin the CRC formats, torn-tail replay, and the
#                      corruption matrices.
#   ci.sh stress [N] — the tier-1 suite repeated under CPU contention:
#                      ctest --repeat until-fail:N (default 20) while
#                      busy loops (one per two cores) load the host, so
#                      a test whose outcome depends on thread
#                      scheduling fails here instead of passing by
#                      luck. Opt-in: not part of the default flow.
#   ci.sh native     — the full tier-1 suite built with -DPANDA_NATIVE=ON
#                      (-march=native plus LTO) into build-native/, so
#                      a machine-tuned build is held to the same
#                      bit-exact oracles as the portable one (the FMA
#                      contraction -march=native would allow is off in
#                      every target). Opt-in: not part of the default
#                      flow.
#   ci.sh tsan       — the concurrency suites (MPMC ring, serving
#                      frontend, thread pool, mutable index, kd-tree
#                      build across pool sizes, distributed all-KNN and
#                      routed KNN) built with -fsanitize=thread:
#                      data-race checks the lock-free admission ring, its
#                      batching workers, snapshot swap, shared pool, the
#                      distributed index session, both KNN engines'
#                      per-rank stages 2 and 4 on the rank pools, and
#                      the mutable
#                      tier's merge thread + COW snapshot publishing
#                      (readers and self-joins racing
#                      insert/erase/seal/merge).
#   ci.sh bench-smoke — Release build of the perf harnesses
#                      (bench_hotpath, bench_serve, bench_mmap,
#                      bench_mutable) run at tiny sizes from the build
#                      directory (no checked-in JSON is touched), so the
#                      harnesses themselves cannot rot (the facade's
#                      digest gate against direct engine calls is a
#                      test_index case, FacadeLocal.*); bench_mmap
#                      digest-gates mapped-index queries against the
#                      owned build and gates the unverified open under
#                      an owned KdTree::load of the same v4 file;
#                      bench_mutable digest-gates the live forest
#                      against a from-scratch build and gates the
#                      no-rebuild-stall + bounded-merge-interference
#                      contract. Runs automatically at the end of the
#                      default mode.
#   ci.sh perf-smoke — the benchmark's own tests
#                      (perfbench/test_perfbench.py): the ledger
#                      arithmetic on synthetic traces, then a Release
#                      build of perfbench (into .bench_build/) that runs
#                      every workload at smoke size, traced and
#                      untraced, and fails on any oracle mismatch or
#                      missing metric. Needs only python3; skipped with
#                      a warning without it, like the invariant lint.
#                      Runs last in the default mode.
set -euo pipefail
cd "$(dirname "$0")"

MODE="${1:-default}"

check_format() {
  if ! command -v clang-format >/dev/null 2>&1; then
    echo "ci.sh: clang-format not installed — format check skipped"
    return 0
  fi
  local files
  files=$(find src tests bench examples -name '*.hpp' -o -name '*.cpp')
  # shellcheck disable=SC2086
  clang-format --dry-run -Werror $files
  echo "ci.sh: format OK"
}

check_headers() {
  local cxx="${CXX:-c++}"
  local tmpdir
  tmpdir=$(mktemp -d)
  trap 'rm -rf "$tmpdir"' RETURN
  local failed=0
  while IFS= read -r header; do
    printf '#include "%s"\n' "${header#src/}" > "$tmpdir/tu.cpp"
    if ! "$cxx" -std=c++20 -fsyntax-only -Wall -Wextra -Werror -Isrc \
        "$tmpdir/tu.cpp"; then
      echo "ci.sh: header not self-sufficient: $header"
      failed=1
    fi
  done < <(find src -name '*.hpp' | sort)
  if [[ "$failed" != 0 ]]; then
    echo "ci.sh: headers FAILED" >&2
    return 1
  fi
  echo "ci.sh: headers OK"
}

check_analyze() {
  # Leg 1: the invariant linter needs only python3 (present wherever
  # the tests run). Self-test first so a bug in the linter itself
  # cannot silently pass the tree.
  if command -v python3 >/dev/null 2>&1; then
    python3 tools/lint_invariants.py --self-test
    python3 tools/lint_invariants.py
  else
    echo "ci.sh: python3 not installed — invariant lint skipped"
  fi

  # Leg 2: clang thread-safety analysis. The annotations in
  # common/thread_annotations.hpp only expand under clang, so this leg
  # is tool-gated; GCC-only hosts rely on the annotations being
  # exercised by any clang CI runner.
  if command -v clang++ >/dev/null 2>&1; then
    local failed=0
    while IFS= read -r tu; do
      if ! clang++ -std=c++20 -fsyntax-only -Isrc \
          -Wthread-safety -Werror=thread-safety "$tu"; then
        echo "ci.sh: thread-safety analysis FAILED: $tu"
        failed=1
      fi
    done < <(find src -name '*.cpp' | sort)
    if [[ "$failed" != 0 ]]; then
      echo "ci.sh: analyze (thread-safety) FAILED" >&2
      return 1
    fi
    # Negative harness: the deliberately broken sample MUST fail, or
    # the annotations have gone inert (wrong flag, macro misdefined).
    if clang++ -std=c++20 -fsyntax-only -Isrc \
        -Wthread-safety -Werror=thread-safety \
        tools/analyze/thread_safety_negative.cpp 2>/dev/null; then
      echo "ci.sh: analyze FAILED — thread_safety_negative.cpp was" \
           "accepted; -Wthread-safety is not firing" >&2
      return 1
    fi
    echo "ci.sh: thread-safety analysis OK (negative harness fired)"
  else
    echo "ci.sh: clang++ not installed — thread-safety analysis skipped"
  fi

  # Leg 3: clang-tidy with the curated repo profile (.clang-tidy has
  # the per-check rationale). WarningsAsErrors is set in the profile,
  # so any finding fails the sweep.
  if command -v clang-tidy >/dev/null 2>&1; then
    local files
    files=$(find src -name '*.cpp' | sort)
    # shellcheck disable=SC2086
    clang-tidy --quiet $files -- -std=c++20 -Isrc
    # Negative harness: the use-after-move sample MUST be rejected.
    if clang-tidy --quiet tools/analyze/tidy_negative.cpp -- \
        -std=c++20 -Isrc >/dev/null 2>&1; then
      echo "ci.sh: analyze FAILED — tidy_negative.cpp passed clang-tidy;" \
           "the check profile is not enforcing" >&2
      return 1
    fi
    echo "ci.sh: clang-tidy OK (negative harness fired)"
  else
    echo "ci.sh: clang-tidy not installed — clang-tidy check skipped"
  fi
  echo "ci.sh: analyze OK"
}

if [[ "$MODE" == "format" ]]; then
  check_format
  exit 0
fi

if [[ "$MODE" == "analyze" ]]; then
  check_analyze
  exit 0
fi

if [[ "$MODE" == "headers" ]]; then
  check_headers
  exit 0
fi

if [[ "$MODE" == "sanitize" ]]; then
  SAN_FLAGS="-fsanitize=address,undefined,float-cast-overflow -fno-sanitize-recover=all -fno-omit-frame-pointer"
  cmake -B build-sanitize -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="${SAN_FLAGS}" \
    -DCMAKE_EXE_LINKER_FLAGS="${SAN_FLAGS}"
  cmake --build build-sanitize -j
  # Sanitized binaries run several times slower; a generous per-test
  # timeout still catches genuine hangs in the pipelined drain loops.
  (cd build-sanitize && ctest --output-on-failure -j --timeout 900)
  echo "ci.sh: sanitize OK"
  exit 0
fi

if [[ "$MODE" == "crash" ]]; then
  cmake -B build -S .
  cmake --build build -j --target test_crash_recovery test_wal \
    test_checksum test_kdtree_io test_storage test_mutable_index
  (cd build && ctest --output-on-failure \
    -R '^(test_crash_recovery|test_wal|test_checksum|test_kdtree_io|test_storage|test_mutable_index)$' \
    --timeout 900)
  echo "ci.sh: crash OK"
  exit 0
fi

if [[ "$MODE" == "stress" ]]; then
  REPEAT="${2:-20}"
  if [[ ! "$REPEAT" =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: ci.sh stress [N]  (N = repeats, a positive integer)" >&2
    exit 1
  fi
  cmake -B build -S .
  cmake --build build -j
  LOADERS=()
  trap 'kill "${LOADERS[@]}" 2>/dev/null || true' EXIT
  for ((i = 0; i < ($(nproc) + 1) / 2; ++i)); do
    (while :; do :; done) &
    LOADERS+=("$!")
  done
  (cd build && ctest --output-on-failure -j "$(nproc)" \
    --repeat "until-fail:${REPEAT}" --timeout 900)
  echo "ci.sh: stress OK (${REPEAT} repeats under ${#LOADERS[@]} busy loops)"
  exit 0
fi

if [[ "$MODE" == "native" ]]; then
  cmake -B build-native -S . -DCMAKE_BUILD_TYPE=Release -DPANDA_NATIVE=ON
  cmake --build build-native -j
  (cd build-native && ctest --output-on-failure -j --timeout 900)
  echo "ci.sh: native OK"
  exit 0
fi

if [[ "$MODE" == "tsan" ]]; then
  TSAN_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="${TSAN_FLAGS}" \
    -DCMAKE_EXE_LINKER_FLAGS="${TSAN_FLAGS}"
  cmake --build build-tsan -j --target test_mpmc_queue test_serve \
    test_parallel test_neighbor_table test_index test_mutable_index \
    test_wal test_kdtree test_all_knn test_dist_query
  # TSan serializes heavily on this container's core count; the mpmc /
  # serve / parallel suites are the ones whose bugs would be data
  # races (test_mpmc_queue hammers the Vyukov ring's release/acquire
  # protocol, test_serve the ring admission, its workers, and the swap
  # paths),
  # test_neighbor_table drives > 64-query batches through the parallel
  # flat-table kernels (concurrent row writes, per-thread workspaces,
  # chunk-stealing loops), test_index covers the dist-index
  # session handoff (facade thread <-> rank 0 <-> peer ranks), and
  # test_mutable_index races query batches against the mutable tier's
  # insert/erase/background-merge machinery — now including the
  # durable mode's WAL appends and rotations on the seal/merge threads
  # (the serve ingest tests in test_serve drive the same paths through
  # QueryService) — and test_wal covers the log's own append/sync
  # surface. test_kdtree builds trees on pools of up to 8 threads:
  # phase-1 batches and phase-2 subtrees run split selection (its
  # stack-held sampling state, each pool thread's select_kth buffer and
  # the partition's scatter into scratch) concurrently on disjoint
  # index ranges.
  # test_all_knn drives the Dist all-KNN engine across ranks, whose
  # local pass is the packed-leaf self-join (query_self_batch: scattered
  # row writes with a one-ahead prefetch) on every rank's pool at once;
  # test_dist_query drives the routed engine, which answers each
  # round's owned block with the same stages 2-5, so its batched local
  # pass and stage-4 answers fan out on every rank's pool too
  # (MultiThreadedRanksProduceSameAnswers runs 3-thread ranks);
  # test_mutable_index runs the forest's self-join against a writer.
  # tsan.supp silences one libstdc++-internal report (the GCC 12
  # atomic<shared_ptr> lock-bit protocol — see the file); our own code
  # is still fully race-checked.
  (cd build-tsan && TSAN_OPTIONS="suppressions=$(pwd)/../tsan.supp" \
    ctest --output-on-failure \
    -R '^(test_mpmc_queue|test_serve|test_parallel|test_neighbor_table|test_index|test_mutable_index|test_wal|test_kdtree|test_all_knn|test_dist_query)$' \
    --timeout 900)
  echo "ci.sh: tsan OK"
  exit 0
fi

bench_smoke() {
  cmake -B build -S .
  cmake --build build -j --target bench_hotpath bench_serve bench_mmap \
    bench_mutable
  # Run inside build/ so smoke outputs (bench_serve writes
  # BENCH_serve.json to its cwd) never clobber the checked-in
  # baselines; bench_hotpath --smoke writes no JSON at all.
  # bench_serve's run includes the admission microbench (mpmc ring vs
  # mutex+condvar) and the saturation sweep over {1, 2, 4} workers,
  # whose closed-loop digests must match, so multi-worker serving gets
  # a smoke run here too.
  (cd build && ./bench_hotpath --smoke 20000 1024)
  (cd build && ./bench_serve 20000 8 20)
  # bench_mmap writes its smoke BENCH_mmap.json into build/ (the
  # checked-in one at the repo root is the full-size run) and exits
  # nonzero on a digest mismatch or an open-latency regression.
  (cd build && ./bench_mmap --smoke)
  # bench_mutable likewise smokes into build/: exits nonzero if forest
  # answers are not digest-identical to a from-scratch build, if any
  # insert call stalled a full-rebuild's worth, if query p99 during
  # background merges exceeds 2x the quiesced p99, or if the
  # group-committed WAL drops ingest below half the WAL-off rate.
  (cd build && ./bench_mutable --smoke)
  echo "ci.sh: bench-smoke OK"
}

if [[ "$MODE" == "bench-smoke" ]]; then
  bench_smoke
  exit 0
fi

perf_smoke() {
  if ! command -v python3 >/dev/null 2>&1; then
    echo "ci.sh: python3 not installed — perf-smoke skipped"
    return 0
  fi
  python3 perfbench/test_perfbench.py
  echo "ci.sh: perf-smoke OK"
}

if [[ "$MODE" == "perf-smoke" ]]; then
  perf_smoke
  exit 0
fi

if [[ "$MODE" != "default" ]]; then
  echo "usage: ci.sh [format|analyze|headers|sanitize|crash|stress [N]|native|tsan|bench-smoke|perf-smoke]" >&2
  exit 1
fi

check_format
check_analyze
check_headers

cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j --timeout 900)

# Perf baseline: only when bench_micro was built (needs the system
# google-benchmark) and a baseline does not already exist.
if [[ -x build/bench_micro && ! -f BENCH_seed.json ]]; then
  ./build/bench_micro --benchmark_format=json \
    --benchmark_out=BENCH_seed.json --benchmark_out_format=json
  echo "wrote BENCH_seed.json"
fi

# Perf-harness smoke: tiny-size runs of the hot-path, serving, and
# facade benches so the harnesses stay buildable and runnable.
bench_smoke
# The benchmark's own oracle checks at smoke size.
perf_smoke
echo "ci.sh: OK"
