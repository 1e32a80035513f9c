#!/usr/bin/env bash
# CI sanitizer matrix: configure + build + ctest under {plain, thread,
# address, undefined} in separate build-<config>/ trees, with per-config
# logs. The thread leg is what validates the parallel pipeline's
# race-freedom contract; seg-lint runs inside every leg as a tier-1 test.
#
# Usage:
#   tools/ci_matrix.sh [config ...]   # default: plain thread address undefined lint-diff obs oocore ingest
#
# The lint-diff leg runs seg-lint v3 in whole-program diff mode against
# origin/main (falls back to HEAD outside a clone with that ref): CI fails
# only on findings *introduced* by the change under test, and a SARIF
# artifact lands in ${LOG_DIR}/seg-lint.sarif for code-scanning upload.
# The leg also checks the checker's own determinism contract — the SARIF
# document must be byte-identical at SEG_THREADS=1 and SEG_THREADS=8 — and
# archives the --diff-base analysis-cache hit statistics; both land under
# ${LOG_DIR}/lint-determinism/.
#
# The obs leg runs the two-day CLI example with --trace-out/--metrics-out/
# --run-report, validates the artifacts with `segugio validate-obs`, and
# archives them under ${LOG_DIR}/obs/ (load the trace in Perfetto when a
# perf regression needs triage; see docs/observability.md). It then streams
# a 4-day session with --journal at SEG_THREADS=1 and 8 (the journal and
# the classify output must be byte-identical, and journal-on must match
# journal-off), validates the journal, renders `segugio status --journal`,
# soaks the health sampler under tsan, and archives the obs-overhead
# benchmark section (SEG_BENCH_OBS_ONLY=1).
#
# The oocore leg reuses the asan tree and re-runs the pipeline, graph, and
# mmap-backing suites with SEG_GRAPH_BACKING=mmap, so the zero-copy
# GraphView path (mapping lifetime, varint decode bounds, classify parity)
# gets sanitizer coverage; see docs/graph-format.md.
#
# The ingest leg covers the streaming front end (docs/ingestion.md): a
# tsan soak of the queue and stream-determinism suites (repeated, so the
# producer/consumer interleavings actually vary), the malformed-wire
# corpus under asan (where "never UB" is checked, not assumed), the
# decoders' allocation contract (wire_alloc_test, plain tree: it counts
# operator new, which the sanitizers replace), and the replay benchmark
# (SEG_BENCH_INGEST_ONLY=1), whose BENCH_pipeline.json "ingest" section is
# archived under ${LOG_DIR}/ingest/.
#
# Environment:
#   SEG_CI_JOBS     parallel build/test jobs (default: nproc)
#   SEG_CI_LOG_DIR  where per-config logs land (default: build-logs/)
#
# Exit status is non-zero if any requested config fails; the summary at the
# end lists each config's result either way.
set -u

cd "$(dirname "$0")/.."

CONFIGS=("$@")
if [ ${#CONFIGS[@]} -eq 0 ]; then
  CONFIGS=(plain thread address undefined lint-diff obs oocore ingest)
fi

JOBS="${SEG_CI_JOBS:-$(nproc 2>/dev/null || echo 2)}"
LOG_DIR="${SEG_CI_LOG_DIR:-build-logs}"
mkdir -p "${LOG_DIR}"

declare -A RESULTS
FAILED=0

run_lint_diff() {
  local log="${LOG_DIR}/lint-diff.log"
  local build_dir="build-plain"
  : > "${log}"
  mkdir -p "${LOG_DIR}/lint-determinism"

  echo "=== [lint-diff] build seg_lint (${build_dir}) ==="
  if ! cmake -B "${build_dir}" -S . >> "${log}" 2>&1 ||
     ! cmake --build "${build_dir}" -j "${JOBS}" --target seg_lint >> "${log}" 2>&1; then
    echo "    seg_lint build FAILED (see ${log})"
    return 1
  fi
  local seg_lint="${build_dir}/tools/seg_lint"

  local base="origin/main"
  if ! git rev-parse --verify --quiet "${base}" > /dev/null; then
    base="HEAD"
  fi

  echo "=== [lint-diff] seg_lint --diff-base ${base} (json gate + sarif artifact) ==="
  "${seg_lint}" --format=sarif --layers tools/layers.toml \
    src tools bench tests examples > "${LOG_DIR}/seg-lint.sarif" 2>> "${log}"
  if ! "${seg_lint}" --error-exit --format=json --diff-base "${base}" \
       --layers tools/layers.toml --baseline tools/lint-baseline.json \
       src tools bench tests examples > "${LOG_DIR}/seg-lint-diff.json" \
       2> "${LOG_DIR}/lint-determinism/cache-stats.txt"; then
    echo "    new lint findings vs ${base} (see ${LOG_DIR}/seg-lint-diff.json)"
    cat "${LOG_DIR}/seg-lint-diff.json" >> "${log}"
    return 1
  fi
  cat "${LOG_DIR}/lint-determinism/cache-stats.txt" >> "${log}"

  echo "=== [lint-diff] SARIF determinism: SEG_THREADS=1 vs SEG_THREADS=8 ==="
  local det_dir="${LOG_DIR}/lint-determinism"
  SEG_THREADS=1 "${seg_lint}" --format=sarif --layers tools/layers.toml \
    src tools bench tests examples > "${det_dir}/seg-lint-serial.sarif" 2>> "${log}"
  SEG_THREADS=8 "${seg_lint}" --format=sarif --layers tools/layers.toml \
    src tools bench tests examples > "${det_dir}/seg-lint-parallel.sarif" 2>> "${log}"
  if ! cmp "${det_dir}/seg-lint-serial.sarif" "${det_dir}/seg-lint-parallel.sarif" \
       >> "${log}" 2>&1; then
    echo "    SARIF output differs between 1 and 8 threads (see ${det_dir}/)"
    return 1
  fi
  echo "    byte-identical at 1 and 8 threads; artifacts in ${det_dir}/"
  return 0
}

run_obs() {
  local log="${LOG_DIR}/obs.log"
  local build_dir="build-plain"
  local obs_dir="${LOG_DIR}/obs"
  : > "${log}"
  mkdir -p "${obs_dir}"

  echo "=== [obs] build segugio (${build_dir}) ==="
  if ! cmake -B "${build_dir}" -S . >> "${log}" 2>&1 ||
     ! cmake --build "${build_dir}" -j "${JOBS}" --target segugio >> "${log}" 2>&1; then
    echo "    segugio build FAILED (see ${log})"
    return 1
  fi
  local cli="${build_dir}/tools/segugio"

  local data_dir
  data_dir="$(mktemp -d)"
  # shellcheck disable=SC2064
  trap "rm -rf '${data_dir}'" RETURN

  echo "=== [obs] two-day example with trace/metrics/run-report ==="
  if ! "${cli}" simgen --out "${data_dir}" --days 2 --isp 0 --format binlog >> "${log}" 2>&1; then
    echo "    simgen FAILED (see ${log})"
    return 1
  fi
  if ! "${cli}" train --input "${data_dir}/day0.bin" \
       --blacklist "${data_dir}/blacklist-day0.txt" \
       --whitelist "${data_dir}/whitelist.txt" \
       --activity "${data_dir}/activity.txt" --pdns "${data_dir}/pdns.txt" \
       --model "${data_dir}/model.txt" --trees 20 \
       --trace-out "${obs_dir}/train-trace.json" \
       --metrics-out "${obs_dir}/train-metrics.prom" \
       --run-report "${obs_dir}/train-report.json" >> "${log}" 2>&1; then
    echo "    train FAILED (see ${log})"
    return 1
  fi
  if ! "${cli}" classify --input "${data_dir}/day1.bin" \
       --model "${data_dir}/model.txt" \
       --blacklist "${data_dir}/blacklist-day1.txt" \
       --whitelist "${data_dir}/whitelist.txt" \
       --activity "${data_dir}/activity.txt" --pdns "${data_dir}/pdns.txt" \
       --threshold 0.5 \
       --trace-out "${obs_dir}/classify-trace.json" \
       --metrics-out "${obs_dir}/classify-metrics.prom" \
       --run-report "${obs_dir}/classify-report.json" >> "${log}" 2>&1; then
    echo "    classify FAILED (see ${log})"
    return 1
  fi

  echo "=== [obs] validate-obs over the archived artifacts ==="
  local leg
  for leg in train classify; do
    if ! "${cli}" validate-obs --trace "${obs_dir}/${leg}-trace.json" \
         --run-report "${obs_dir}/${leg}-report.json" \
         --metrics "${obs_dir}/${leg}-metrics.prom" >> "${log}" 2>&1; then
      echo "    validate-obs FAILED for ${leg} (see ${log})"
      return 1
    fi
  done

  echo "=== [obs] multi-day journal: 4-day streamed session, 1 vs 8 threads ==="
  local jdata_dir
  jdata_dir="$(mktemp -d)"
  # shellcheck disable=SC2064
  trap "rm -rf '${data_dir}' '${jdata_dir}'" RETURN
  if ! "${cli}" simgen --out "${jdata_dir}" --days 4 --isp 0 --format binlog \
       >> "${log}" 2>&1; then
    echo "    simgen (journal leg) FAILED (see ${log})"
    return 1
  fi
  cat "${jdata_dir}"/day0.bin "${jdata_dir}"/day1.bin \
      "${jdata_dir}"/day2.bin "${jdata_dir}"/day3.bin > "${jdata_dir}/stream.bin"
  if ! "${cli}" train --input "${jdata_dir}/day0.bin" \
       --blacklist "${jdata_dir}/blacklist-day0.txt" \
       --whitelist "${jdata_dir}/whitelist.txt" \
       --activity "${jdata_dir}/activity.txt" --pdns "${jdata_dir}/pdns.txt" \
       --model "${jdata_dir}/model.txt" --trees 20 >> "${log}" 2>&1; then
    echo "    train (journal leg) FAILED (see ${log})"
    return 1
  fi
  # The journal (and the health sampler riding along) must be deterministic
  # across thread counts and invisible in the classify output.
  local journal_classify=(classify --input "${jdata_dir}/stream.bin"
    --model "${jdata_dir}/model.txt"
    --blacklist "${jdata_dir}/blacklist-day3.txt"
    --whitelist "${jdata_dir}/whitelist.txt"
    --activity "${jdata_dir}/activity.txt" --pdns "${jdata_dir}/pdns.txt"
    --threshold 0.5)
  if ! SEG_THREADS=1 "${cli}" "${journal_classify[@]}" \
       --journal "${obs_dir}/journal-serial.jsonl" \
       --metrics-out "${obs_dir}/stream-metrics.prom" --health-interval 50 \
       > "${obs_dir}/stream-scores-serial.txt" 2>> "${log}"; then
    echo "    journaled classify (1 thread) FAILED (see ${log})"
    return 1
  fi
  if ! SEG_THREADS=8 "${cli}" "${journal_classify[@]}" \
       --journal "${obs_dir}/journal-parallel.jsonl" --health-interval 50 \
       > "${obs_dir}/stream-scores-parallel.txt" 2>> "${log}"; then
    echo "    journaled classify (8 threads) FAILED (see ${log})"
    return 1
  fi
  if ! cmp "${obs_dir}/journal-serial.jsonl" "${obs_dir}/journal-parallel.jsonl" \
       >> "${log}" 2>&1; then
    echo "    journal differs between 1 and 8 threads (see ${obs_dir}/)"
    return 1
  fi
  if ! cmp "${obs_dir}/stream-scores-serial.txt" "${obs_dir}/stream-scores-parallel.txt" \
       >> "${log}" 2>&1; then
    echo "    classify output differs between 1 and 8 threads (see ${obs_dir}/)"
    return 1
  fi
  if ! "${cli}" "${journal_classify[@]}" > "${obs_dir}/stream-scores-plain.txt" \
       2>> "${log}"; then
    echo "    journal-off classify FAILED (see ${log})"
    return 1
  fi
  if ! cmp "${obs_dir}/stream-scores-plain.txt" "${obs_dir}/stream-scores-serial.txt" \
       >> "${log}" 2>&1; then
    echo "    journal-on classify output differs from journal-off (see ${obs_dir}/)"
    return 1
  fi
  if ! "${cli}" validate-obs --journal "${obs_dir}/journal-serial.jsonl" \
       --metrics "${obs_dir}/stream-metrics.prom" >> "${log}" 2>&1; then
    echo "    validate-obs --journal FAILED (see ${log})"
    return 1
  fi
  if ! "${cli}" status --journal "${obs_dir}/journal-serial.jsonl" \
       > "${obs_dir}/status.txt" 2>> "${log}"; then
    echo "    status --journal FAILED (see ${log})"
    return 1
  fi
  if ! grep -q "day" "${obs_dir}/status.txt"; then
    echo "    status --journal printed no day table (see ${obs_dir}/status.txt)"
    return 1
  fi
  echo "    journal byte-identical at 1 and 8 threads; classify output unperturbed"

  echo "=== [obs] health sampler under tsan ==="
  if ! cmake -B build-tsan -S . -DSEG_SANITIZE=thread >> "${log}" 2>&1 ||
     ! cmake --build build-tsan -j "${JOBS}" --target util_test >> "${log}" 2>&1; then
    echo "    tsan build FAILED (see ${log})"
    return 1
  fi
  if ! build-tsan/tests/util_test --gtest_filter='Health*' --gtest_repeat=5 \
       >> "${log}" 2>&1; then
    echo "    health sampler FAILED under tsan (see ${log})"
    return 1
  fi

  echo "=== [obs] overhead benchmark (SEG_BENCH_OBS_ONLY=1) ==="
  if ! cmake --build "${build_dir}" -j "${JOBS}" --target bench_perf_efficiency \
       >> "${log}" 2>&1; then
    echo "    bench build FAILED (see ${log})"
    return 1
  fi
  # The bench exits non-zero when the obs-on session perturbs scores or
  # writes an invalid journal — the acceptance gate on real bench data.
  if ! (cd "${build_dir}" && SEG_BENCH_OBS_ONLY=1 ./bench/bench_perf_efficiency) \
       >> "${log}" 2>&1; then
    echo "    obs overhead benchmark FAILED (see ${log})"
    return 1
  fi
  cp "${build_dir}/BENCH_pipeline.json" "${obs_dir}/BENCH_pipeline.json"
  echo "    artifacts archived in ${obs_dir}/"
  return 0
}

run_oocore() {
  local log="${LOG_DIR}/oocore.log"
  local build_dir="build-asan"
  : > "${log}"

  echo "=== [oocore] build core/graph tests (${build_dir}, SEG_SANITIZE='address') ==="
  if ! cmake -B "${build_dir}" -S . -DSEG_SANITIZE=address >> "${log}" 2>&1 ||
     ! cmake --build "${build_dir}" -j "${JOBS}" --target core_test graph_test \
         >> "${log}" 2>&1; then
    echo "    build FAILED (see ${log})"
    return 1
  fi

  echo "=== [oocore] pipeline + mmap-backing + graph suites with SEG_GRAPH_BACKING=mmap ==="
  if ! SEG_GRAPH_BACKING=mmap "${build_dir}/tests/core_test" \
       --gtest_filter='Pipeline*:MmapBacking*' >> "${log}" 2>&1; then
    echo "    core suites FAILED under mmap backing (see ${log})"
    return 1
  fi
  if ! SEG_GRAPH_BACKING=mmap "${build_dir}/tests/graph_test" \
       --gtest_filter='GraphCompressed*:OutOfCore*:Varint*' >> "${log}" 2>&1; then
    echo "    graph suites FAILED under mmap backing (see ${log})"
    return 1
  fi
  return 0
}

run_ingest() {
  local log="${LOG_DIR}/ingest.log"
  local ingest_dir="${LOG_DIR}/ingest"
  : > "${log}"
  mkdir -p "${ingest_dir}"

  echo "=== [ingest] build tsan + asan test trees ==="
  if ! cmake -B build-tsan -S . -DSEG_SANITIZE=thread >> "${log}" 2>&1 ||
     ! cmake --build build-tsan -j "${JOBS}" --target util_test core_test >> "${log}" 2>&1; then
    echo "    tsan build FAILED (see ${log})"
    return 1
  fi
  if ! cmake -B build-asan -S . -DSEG_SANITIZE=address >> "${log}" 2>&1 ||
     ! cmake --build build-asan -j "${JOBS}" --target dns_test >> "${log}" 2>&1; then
    echo "    asan build FAILED (see ${log})"
    return 1
  fi

  echo "=== [ingest] tsan soak: queue stress + stream determinism (x5) ==="
  if ! build-tsan/tests/util_test --gtest_filter='IngestQueue*' \
       --gtest_repeat=5 >> "${log}" 2>&1; then
    echo "    ingest queue soak FAILED under tsan (see ${log})"
    return 1
  fi
  if ! build-tsan/tests/core_test --gtest_filter='PipelineStream*' \
       --gtest_repeat=5 >> "${log}" 2>&1; then
    echo "    pipeline stream soak FAILED under tsan (see ${log})"
    return 1
  fi

  echo "=== [ingest] asan: malformed wire corpus ==="
  if ! build-asan/tests/dns_test --gtest_filter='WireTest*' >> "${log}" 2>&1; then
    echo "    wire corpus FAILED under asan (see ${log})"
    return 1
  fi

  echo "=== [ingest] allocation contract + replay benchmark (plain tree) ==="
  if ! cmake -B build-plain -S . >> "${log}" 2>&1 ||
     ! cmake --build build-plain -j "${JOBS}" --target wire_alloc_test bench_perf_efficiency \
         >> "${log}" 2>&1; then
    echo "    plain build FAILED (see ${log})"
    return 1
  fi
  # Decoding into a reused record must not touch the heap once its buffers
  # have grown to fit the stream.
  if ! build-plain/tests/wire_alloc_test >> "${log}" 2>&1; then
    echo "    wire allocation contract FAILED (see ${log})"
    return 1
  fi
  # The bench writes BENCH_pipeline.json into its cwd and exits non-zero
  # if the blocking queue ever dropped a batch.
  if ! (cd build-plain && SEG_BENCH_INGEST_ONLY=1 ./bench/bench_perf_efficiency) \
       >> "${log}" 2>&1; then
    echo "    ingest benchmark FAILED (see ${log})"
    return 1
  fi
  cp build-plain/BENCH_pipeline.json "${ingest_dir}/BENCH_pipeline.json"
  echo "    bench section archived in ${ingest_dir}/BENCH_pipeline.json"
  return 0
}

run_config() {
  local config="$1"
  local build_dir log sanitize
  case "${config}" in
    plain)     build_dir="build-plain";     sanitize="" ;;
    thread)    build_dir="build-tsan";      sanitize="thread" ;;
    address)   build_dir="build-asan";      sanitize="address" ;;
    undefined) build_dir="build-ubsan";     sanitize="undefined" ;;
    lint-diff) run_lint_diff; return $? ;;
    obs)       run_obs; return $? ;;
    oocore)    run_oocore; return $? ;;
    ingest)    run_ingest; return $? ;;
    *)
      echo "ci_matrix: unknown config '${config}' (plain|thread|address|undefined|lint-diff|obs|oocore|ingest)" >&2
      return 2
      ;;
  esac
  log="${LOG_DIR}/${config}.log"
  : > "${log}"

  echo "=== [${config}] configure (${build_dir}, SEG_SANITIZE='${sanitize}') ==="
  if ! cmake -B "${build_dir}" -S . -DSEG_SANITIZE="${sanitize}" >> "${log}" 2>&1; then
    echo "    configure FAILED (see ${log})"
    return 1
  fi
  echo "=== [${config}] build ==="
  if ! cmake --build "${build_dir}" -j "${JOBS}" >> "${log}" 2>&1; then
    echo "    build FAILED (see ${log})"
    return 1
  fi
  echo "=== [${config}] ctest ==="
  if ! ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}" >> "${log}" 2>&1; then
    echo "    tests FAILED (see ${log})"
    return 1
  fi
  if [ "${config}" = "thread" ]; then
    # The streaming pipeline and sharded stores parallelize internally
    # (query_batch, sharded build, parallel classify); run their suites
    # explicitly under tsan so a filtered ctest invocation can't skip the
    # race-contract coverage.
    echo "=== [${config}] streaming pipeline + sharded store suites ==="
    if ! "${build_dir}/tests/core_test" --gtest_filter='Pipeline*' >> "${log}" 2>&1; then
      echo "    pipeline tests FAILED under tsan (see ${log})"
      return 1
    fi
    if ! "${build_dir}/tests/dns_test" --gtest_filter='Sharded*' >> "${log}" 2>&1; then
      echo "    sharded store tests FAILED under tsan (see ${log})"
      return 1
    fi
  fi
  return 0
}

# Every leg archives whatever BENCH_pipeline.json its build trees hold, so
# the machine-readable perf trajectory survives the run no matter which leg
# produced it (ingest/obs write fresh numbers; other legs re-archive the
# tree's last run).
archive_bench_json() {
  local config="$1" d
  for d in build-plain build-tsan build-asan build-ubsan; do
    if [ -f "${d}/BENCH_pipeline.json" ]; then
      mkdir -p "${LOG_DIR}/${config}"
      cp "${d}/BENCH_pipeline.json" \
         "${LOG_DIR}/${config}/BENCH_pipeline-${d#build-}.json"
    fi
  done
}

for config in "${CONFIGS[@]}"; do
  if run_config "${config}"; then
    RESULTS[${config}]="ok"
  else
    RESULTS[${config}]="FAILED"
    FAILED=1
  fi
  archive_bench_json "${config}"
done

echo
echo "=== ci_matrix summary ==="
for config in "${CONFIGS[@]}"; do
  printf '  %-10s %s  (log: %s/%s.log)\n' "${config}" "${RESULTS[${config}]}" \
    "${LOG_DIR}" "${config}"
done
exit "${FAILED}"
