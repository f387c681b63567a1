#!/usr/bin/env bash
# CI entry point: the tier-1 line (build + full ctest) and, unless skipped,
# a sanitizer pass (asan+ubsan preset) over the same test suite. The preset
# runs with leak checking off; the pipeline test binaries then run again
# with it on, so a pipeline State kept alive by its own closures (a
# reference cycle) fails CI.
#
#   tools/ci.sh            # tier-1 + sanitizers
#   tools/ci.sh tsan       # ThreadSanitizer over the sre_core test label
#                          # (scheduler, speculation, dispatch concurrency,
#                          # block-parallel decode in stream_format_test
#                          # and fast_decoder_test), then a quick
#                          # micro_dispatch sweep (1..16
#                          # workers, flat and chain shapes) under TSan
#   tools/ci.sh torture    # speculation torture harness under TSan: the
#                          # fixed seed set plus one time-boxed random-seed
#                          # sweep (prints the seed to replay on failure)
#   tools/ci.sh serve      # serving-layer tests + a bounded load smoke:
#                          # serve_load --smoke must shed nothing at low
#                          # rate and drain the shared runtime clean
#   tools/ci.sh flight     # flight-recorder tests + the overhead gate
#                          # (recorder armed on the sharded executor) + the
#                          # post-mortem smoke inside serve_load --smoke
#   tools/ci.sh kernels    # data-plane kernel gate: the differential suite
#                          # plus codec/histogram/io tests under asan+ubsan
#                          # with TVS_SIMD forced to every dispatch level
#   tools/ci.sh dist       # distributed-serving gate: net/dist unit tests
#                          # (frame/wire hostile-input, protocol codecs,
#                          # router e2e) plus dist_load --smoke — a real
#                          # router over two tvsc served subprocesses on
#                          # loopback asserting byte-identity and
#                          # spill-before-shed
#   tools/ci.sh sim <ref-build-dir>
#                          # sim identity gate: runs fig3..fig9,
#                          # applications_summary, headline_summary and
#                          # ablation_adaptive (the one bench whose runs take
#                          # the adaptive-restart path after a rollback) from
#                          # build/ and from a build of the reference commit,
#                          # and fails on any byte difference in their stdout;
#                          # then runs trace_dump txt and bmp from both and
#                          # fails if their .chrome.json or .dfg.dot differ
#                          # (the task graph: names, classes, depths, edges)
#   tools/ci.sh repeat [N] # flake hunt: the sre_core label N times (default
#                          # 10) under the asan+ubsan preset at 2 x nproc
#                          # concurrency; prints every failing case with its
#                          # pass number and fails if there was any
#   TVS_SKIP_ASAN=1 tools/ci.sh   # tier-1 only (fast pre-push check)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

if [[ "${1:-}" == "sim" ]]; then
  REF="${2:?usage: tools/ci.sh sim <ref-build-dir>}"
  echo "== sim: bench stdout identity, build/ vs ${REF} =="
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS"
  OUT="$(mktemp -d)"
  trap 'rm -rf "$OUT"' EXIT
  status=0
  # The simulator is deterministic: any byte difference is a behaviour change.
  for b in fig3_x86_policies fig4_cell_policies fig5_step_size \
           fig6_verification fig7_socket fig8_cpu_scaling fig9_tolerance \
           applications_summary headline_summary ablation_adaptive; do
    ./build/bench/"$b" >"$OUT/$b.new"
    "$REF/bench/$b" >"$OUT/$b.ref"
    if cmp -s "$OUT/$b.ref" "$OUT/$b.new"; then
      echo "  $b: identical"
    else
      echo "!! $b: stdout differs from the reference" >&2
      diff "$OUT/$b.ref" "$OUT/$b.new" | head -20 >&2 || true
      status=1
    fi
  done
  # The figures are aggregates, so also compare the task graph itself: the
  # timeline and DFG of a TXT run and of a BMP run (which rolls back, then
  # runs a speculative chain and the natural pass). Names, classes, depths,
  # edges and times must all match.
  for s in txt bmp; do
    ./build/tools/trace_dump "$s" "$OUT/$s.new" >/dev/null
    "$REF/tools/trace_dump" "$s" "$OUT/$s.ref" >/dev/null
    for ext in chrome.json dfg.dot; do
      if cmp -s "$OUT/$s.ref.$ext" "$OUT/$s.new.$ext"; then
        echo "  trace_dump $s .$ext: identical"
      else
        echo "!! trace_dump $s: .$ext differs from the reference" >&2
        status=1
      fi
    done
  done
  if [[ "$status" != 0 ]]; then exit "$status"; fi
  echo "== sim identical =="
  exit 0
fi

if [[ "${1:-}" == "repeat" ]]; then
  N="${2:-10}"
  PAR=$((2 * JOBS))
  echo "== repeat: sre_core label x${N} under asan+ubsan at -j${PAR} (build-asan/) =="
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j"$JOBS"
  LOG="$(mktemp)"
  trap 'rm -f "$LOG"' EXIT
  fails=0
  for ((i = 1; i <= N; i++)); do
    if ctest --preset asan -L sre_core -j"$PAR" >"$LOG" 2>&1; then
      echo "  pass ${i}/${N}: green"
      continue
    fi
    # ctest lists each failing case under this heading, one per line.
    cases="$(sed -n '/The following tests FAILED:/,$p' "$LOG" |
             grep -E '^[[:space:]]+[0-9]+ - ' || true)"
    if [[ -z "$cases" ]]; then
      echo "!! pass ${i}/${N}: ctest failed without a failing case:" >&2
      tail -20 "$LOG" >&2
      fails=$((fails + 1))
      continue
    fi
    while IFS= read -r c; do
      echo "!! pass ${i}/${N}: ${c#"${c%%[![:space:]]*}"}"
      fails=$((fails + 1))
    done <<<"$cases"
  done
  echo "== repeat: ${fails} failing case(s) in ${N} passes =="
  [[ "$fails" == 0 ]]
  exit
fi

if [[ "${1:-}" == "tsan" ]]; then
  echo "== tsan: sre_core label under ThreadSanitizer (build-tsan/) =="
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j"$JOBS"
  ctest --preset tsan -j"$JOBS"
  # The dispatch path end to end, up to 16 workers on the chain shape.
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    ./build-tsan/bench/micro_dispatch --quick --out "$(mktemp)"
  echo "== tsan green =="
  exit 0
fi

if [[ "${1:-}" == "torture" ]]; then
  echo "== torture: speculation chaos suites under ThreadSanitizer (build-tsan/) =="
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j"$JOBS"

  echo "-- fixed seed set (deterministic regressions + seeds 1..200) --"
  ./build-tsan/tests/chaos_regression_test
  ./build-tsan/tests/harness_test
  ./build-tsan/tests/speculator_torture_test
  ./build-tsan/tests/wait_buffer_torture_test

  # One extra sweep from a fresh base seed, time-boxed so a pathological
  # schedule cannot wedge CI. On failure the gtest message already carries
  # the seed and a shrunk reproducer; echo the replay line again regardless.
  RANDOM_SEED="${TVS_TORTURE_RANDOM_SEED:-$(( $(date +%s) % 1000000 + 1000 ))}"
  echo "-- random sweep: TVS_TORTURE_BASE_SEED=${RANDOM_SEED} TVS_TORTURE_SEEDS=50 --"
  if ! timeout "${TVS_TORTURE_TIMEBOX_S:-300}" env \
      TVS_TORTURE_BASE_SEED="$RANDOM_SEED" TVS_TORTURE_SEEDS=50 \
      ./build-tsan/tests/speculator_torture_test; then
    echo "!! random torture sweep failed (or timed out); replay with:" >&2
    echo "!!   TVS_TORTURE_BASE_SEED=${RANDOM_SEED} TVS_TORTURE_SEEDS=50 ./build-tsan/tests/speculator_torture_test" >&2
    exit 1
  fi
  if ! timeout "${TVS_TORTURE_TIMEBOX_S:-300}" env \
      TVS_TORTURE_BASE_SEED="$RANDOM_SEED" TVS_TORTURE_SEEDS=50 \
      ./build-tsan/tests/wait_buffer_torture_test; then
    echo "!! random torture sweep failed (or timed out); replay with:" >&2
    echo "!!   TVS_TORTURE_BASE_SEED=${RANDOM_SEED} TVS_TORTURE_SEEDS=50 ./build-tsan/tests/wait_buffer_torture_test" >&2
    exit 1
  fi
  echo "== torture green =="
  exit 0
fi

if [[ "${1:-}" == "serve" ]]; then
  echo "== serve: serving-layer tests + bounded load smoke (build/) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS"
  ctest --test-dir build --output-on-failure -j"$JOBS" \
    -R 'ShedPolicy|Admission\.|SessionManager|MultiSessionTorture'
  # Open-loop smoke, time-boxed: at ~0.25x of measured capacity the service
  # must accept and finish every session (zero sheds) and drain clean. A
  # hang here means admission/drain deadlocked — fail rather than wedge CI.
  timeout "${TVS_SERVE_SMOKE_TIMEBOX_S:-10}" ./build/bench/serve_load --smoke
  echo "== serve green =="
  exit 0
fi

if [[ "${1:-}" == "flight" ]]; then
  echo "== flight: recorder tests + overhead gate + post-mortem smoke (build/) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS"
  ctest --test-dir build --output-on-failure -j"$JOBS" -R Flight
  # Overhead gate: flight recorder armed on the threaded sharded executor.
  # The bench enforces 3% on machines that can host the worker fleet and
  # widens its own budget on oversubscribed ones (scheduler churn swamps the
  # ~0.2% true recorder cost there); TVS_FLIGHT_OVERHEAD_MAX_PCT overrides
  # either default and passes straight through.
  ./build/bench/overhead_flight
  # serve_load --smoke also asserts a forced-Failed session leaves a
  # post-mortem dump on disk.
  timeout "${TVS_SERVE_SMOKE_TIMEBOX_S:-10}" ./build/bench/serve_load --smoke
  echo "== flight green =="
  exit 0
fi

if [[ "${1:-}" == "dist" ]]; then
  echo "== dist: distributed serving gate (build/) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS"
  # Transport + protocol hardening and the in-process router e2e suite
  # (loopback identity, kill-a-node, spill-before-shed) — the `dist` ctest
  # label covers exactly the net/ and dist/ binaries.
  ctest --test-dir build --output-on-failure -j"$JOBS" -L dist
  # Multi-process smoke, time-boxed: an in-process router over two real
  # `tvsc served` subprocesses must produce byte-identical output to a
  # local SessionManager and spill Bulk to the roomy node instead of
  # shedding. A hang here means drain/heartbeat teardown wedged — fail
  # rather than block CI.
  timeout "${TVS_DIST_SMOKE_TIMEBOX_S:-30}" ./build/bench/dist_load --smoke \
    --tvsc=./build/tools/tvsc
  echo "== dist green =="
  exit 0
fi

if [[ "${1:-}" == "kernels" ]]; then
  echo "== kernels: SIMD differential gate under asan+ubsan (build-asan/) =="
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j"$JOBS"
  # The differential suite sweeps every level in-process via force(); running
  # it once per TVS_SIMD value additionally pins the env-dispatch path (the
  # one production uses) at each level, all under the sanitizers.
  for level in 0 1 2; do
    echo "-- kernel_diff_test with TVS_SIMD=${level} --"
    TVS_SIMD="$level" ./build-asan/tests/kernel_diff_test
  done
  # Codec, histogram, and zero-copy I/O suites at the scalar reference level
  # and at the best level the host supports: both must be bit-exact.
  for level in 0 2; do
    echo "-- codec/histogram/io/arena suites with TVS_SIMD=${level} --"
    TVS_SIMD="$level" ./build-asan/tests/histogram_test
    TVS_SIMD="$level" ./build-asan/tests/codec_test
    TVS_SIMD="$level" ./build-asan/tests/stream_format_test
    TVS_SIMD="$level" ./build-asan/tests/io_test
    TVS_SIMD="$level" ./build-asan/tests/arena_test
  done
  echo "== kernels green =="
  exit 0
fi

echo "== tier 1: configure + build + ctest (build/) =="
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"
ctest --test-dir build --output-on-failure -j"$JOBS"

if [[ "${TVS_SKIP_ASAN:-0}" == "1" ]]; then
  echo "== sanitizer pass skipped (TVS_SKIP_ASAN=1) =="
  exit 0
fi

echo "== sanitizers: asan+ubsan preset (build-asan/) =="
cmake --preset asan >/dev/null
cmake --build --preset asan -j"$JOBS"
ctest --preset asan -j"$JOBS"

echo "-- pipeline tests with LeakSanitizer on --"
for t in huffman_pipeline_test filter_pipeline_test kmeans_pipeline_test \
         anneal_test multi_pipeline_test; do
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    "./build-asan/tests/$t"
done

echo "== CI green =="
