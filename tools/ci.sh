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
#   tools/ci.sh control    # adaptive-control-plane gate: controller logic,
#                          # delta-view, serving integration and retune-race
#                          # tests, then the ablation A/B in --smoke mode
#                          # (adaptive must match best static, beat worst,
#                          # stay bit-identical when disabled, <2% overhead)
#   tools/ci.sh dist       # distributed-serving gate: net/dist unit tests
#                          # (frame/wire hostile-input, protocol codecs,
#                          # router e2e) plus dist_load --smoke — a real
#                          # router over two tvsc served subprocesses on
#                          # loopback asserting byte-identity and
#                          # spill-before-shed
#   tools/ci.sh sim <ref-build-dir>
#                          # sim identity gate: runs fig3..fig9,
#                          # applications_summary and headline_summary from
#                          # build/ and from a build of the reference commit,
#                          # and fails on any byte difference in their stdout
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
           applications_summary headline_summary; do
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
  if [[ "$status" != 0 ]]; then exit "$status"; fi
  echo "== sim identical =="
  exit 0
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

if [[ "${1:-}" == "control" ]]; then
  echo "== control: adaptive control plane gate (build/) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS"
  # Decision logic (bands/dwell/bounds), signal derivation, the serving
  # integration (retunes reaching live sessions), and the retune-vs-worker
  # race suite that the tsan label also covers.
  ctest --test-dir build --output-on-failure -j"$JOBS" \
    -R 'Classify|KnobTest|SpecTunerTest|AdmissionTunerTest|ControllerTest|DeltaView|ControlIntegration|RetuneRace'
  # Deterministic virtual-time A/B: adaptive vs static arms on a spliced
  # phase-changing corpus, plus the bit-identical-when-disabled and
  # sampling-overhead gates (TVS_ABLATION_TOL_PCT / TVS_OVERHEAD_MAX_PCT
  # override the budgets).
  timeout "${TVS_CONTROL_SMOKE_TIMEBOX_S:-120}" ./build/bench/ablation_control --smoke
  echo "== control green =="
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
