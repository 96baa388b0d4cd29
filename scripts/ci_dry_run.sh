#!/usr/bin/env bash
# Local dry-run of .github/workflows/ci.yml: runs each CI job's commands with
# whatever toolchain this machine has, and *skips* (rather than fails) jobs
# whose tools are missing — clang, ccache, clang-format and clang-tidy are
# present on the CI image but not necessarily here. Exit code is nonzero only
# when a job that could run failed.
#
# Usage: scripts/ci_dry_run.sh [--quick]
#   --quick   gcc Release only (skip the Debug leg and the sanitizers)

set -u
cd "$(dirname "$0")/.."

QUICK=0
[ "${1:-}" = "--quick" ] && QUICK=1

FAILED=()
SKIPPED=()

note() { printf '\n=== %s ===\n' "$*"; }

run_job() {  # run_job <name> <cmd...>
  local name=$1
  shift
  note "$name"
  if "$@"; then
    echo "[$name] OK"
  else
    echo "[$name] FAILED"
    FAILED+=("$name")
  fi
}

skip_job() {
  note "$1 — SKIPPED ($2)"
  SKIPPED+=("$1")
}

have() { command -v "$1" >/dev/null 2>&1; }

JOBS="$(nproc 2>/dev/null || echo 2)"

build_and_test() {  # build_and_test <dir> <cc> <cxx> <build_type> [extra cmake args...]
  local dir=$1 cc=$2 cxx=$3 type=$4
  shift 4
  CC=$cc CXX=$cxx cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE="$type" "$@" &&
    cmake --build "$dir" -j"$JOBS" &&
    ctest --test-dir "$dir" -j"$JOBS" --timeout 300 --output-on-failure
  local rc=$?
  # Mirror the CI jobs' trailing ccache-stats step (informational only).
  have ccache && ccache -s
  return $rc
}

# --- build-test matrix -------------------------------------------------------
LAUNCHER=()
if have ccache; then
  LAUNCHER=(-DCMAKE_C_COMPILER_LAUNCHER=ccache -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

run_job "gcc Release" build_and_test build-ci-gcc-release gcc g++ Release "${LAUNCHER[@]}"
if [ "$QUICK" = 0 ]; then
  run_job "gcc Debug" build_and_test build-ci-gcc-debug gcc g++ Debug "${LAUNCHER[@]}"
  if have clang++; then
    run_job "clang Release" build_and_test build-ci-clang-release clang clang++ Release "${LAUNCHER[@]}"
    run_job "clang Debug" build_and_test build-ci-clang-debug clang clang++ Debug "${LAUNCHER[@]}"
  else
    skip_job "clang matrix" "clang++ not installed"
  fi
fi

# --- sanitizers --------------------------------------------------------------
if [ "$QUICK" = 0 ]; then
  run_job "ASan+UBSan" build_and_test build-ci-asan gcc g++ Debug \
    -DPCTAGG_SANITIZE=address,undefined
  note "TSan"
  if CC=gcc CXX=g++ cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=Debug \
       -DPCTAGG_SANITIZE=thread &&
     cmake --build build-ci-tsan -j"$JOBS" &&
     ctest --test-dir build-ci-tsan --timeout 600 --output-on-failure \
       -R "_tsan$|MetricsTest|MetricsRegistryTest"; then
    echo "[TSan] OK"
  else
    echo "[TSan] FAILED"
    FAILED+=("TSan")
  fi
else
  skip_job "sanitizers" "--quick"
fi

# --- bench smoke matrix ------------------------------------------------------
# Same bench/baseline/env-prefix rows as the bench-smoke matrix in ci.yml.
bench_smoke() {  # bench_smoke <binary> <baseline> <env_prefix>
  cmake --build build-ci-gcc-release -j"$JOBS" --target "$1" &&
    python3 scripts/bench_smoke.py \
      --binary "build-ci-gcc-release/bench/$1" \
      --baseline "$2" \
      --env-prefix "$3" \
      --json-name "$2" \
      --out bench-artifacts \
      --max-regression-pct 25
}

run_job "bench smoke (parallel)" bench_smoke bench_parallel_scaling BENCH_parallel.json PCTAGG_PARALLEL_BENCH
run_job "bench smoke (dictionary)" bench_smoke bench_dictionary BENCH_dictionary.json PCTAGG_DICT_BENCH
run_job "bench smoke (append)" bench_smoke bench_append_delta BENCH_append.json PCTAGG_APPEND_BENCH
run_job "bench smoke (fused)" bench_smoke bench_fused BENCH_fused.json PCTAGG_FUSED_BENCH
run_job "bench smoke (persistence)" bench_smoke bench_persistence BENCH_persistence.json PCTAGG_PERSISTENCE
run_job "bench smoke (lattice)" bench_smoke bench_lattice BENCH_lattice.json PCTAGG_LATTICE_BENCH
run_job "bench smoke (shard)" bench_smoke bench_shard BENCH_shard.json PCTAGG_SHARD_BENCH
run_job "bench smoke (mqo)" bench_smoke bench_mqo BENCH_mqo.json PCTAGG_MQO_BENCH

# --- EXPLAIN ANALYZE samples -------------------------------------------------
note "EXPLAIN ANALYZE samples"
# One file per sample, so every assert reads one plan, with the sample's
# plain EXPLAIN beside it (mirrors ci.yml). The third argument is the table's
# rows (default 100,000).
explain_sample() {
  printf '.gen sales sales %s\nEXPLAIN ANALYZE %s;\n.quit\n' "${3:-100000}" "$2" |
    build-ci-gcc-release/tools/pctagg_shell > "bench-artifacts/explain_$1.txt"
  printf '.gen sales sales %s\nEXPLAIN %s;\n.quit\n' "${3:-100000}" "$2" |
    build-ci-gcc-release/tools/pctagg_shell > "bench-artifacts/plain_explain_$1.txt"
}
explain_scan() { grep -o "fused-scan: [^']*" "$1"; }
explain_samples_ok() {
  local s
  for s in vpct hpct cube filtered; do
    [ "$(grep -c 'fused-scan:' "bench-artifacts/explain_$s.txt")" -eq 1 ] || return 1
  done
  [ "$(grep -c 'lattice-rollup:' bench-artifacts/explain_cube.txt)" -eq 7 ] &&
    [ "$(cat bench-artifacts/explain_*.txt | grep -c 'fused mask')" -eq 1 ] &&
    [ "$(cat bench-artifacts/explain_*.txt | grep -cE "^' *filter' *$")" -eq 0 ] ||
    return 1
  # Plain EXPLAIN prints the plan that runs: one scan line per sample, whose
  # partial SELECT is the executed fused scan's, and the CUBE's 7 rollups.
  for s in vpct hpct cube filtered; do
    [ "$(grep -c 'fused-scan:' "bench-artifacts/plain_explain_$s.txt")" -eq 1 ] &&
      [ "$(explain_scan "bench-artifacts/plain_explain_$s.txt")" = \
        "$(explain_scan "bench-artifacts/explain_$s.txt")" ] || return 1
  done
  [ "$(grep -c 'lattice-rollup:' bench-artifacts/plain_explain_cube.txt)" -eq 7 ] &&
    grep -q 'strategy: Fj-from-' bench-artifacts/explain_script.txt || return 1
  # Every sample's plain EXPLAIN prints one line per step EXPLAIN ANALYZE
  # ran: as many as its top-level plan nodes.
  for s in vpct hpct cube filtered script; do
    [ "$(grep -c "^'[^-]" "bench-artifacts/plain_explain_$s.txt")" -eq \
      "$(grep -c "^'  [^ []" "bench-artifacts/explain_$s.txt")" ] || return 1
  done
}
# CREATE TABLE AS through the embedded shell: the derived table holds one
# row per day of the week (mirrors ci.yml).
ctas_sample_ok() {
  printf '.gen sales s 30000\nCREATE TABLE byweek AS SELECT dweek, sum(salesAmt) AS s FROM s GROUP BY dweek;\nSELECT count(*) AS n FROM byweek;\n.quit\n' |
    build-ci-gcc-release/tools/pctagg_shell > bench-artifacts/ctas.txt &&
    [ "$(grep -c '^error:' bench-artifacts/ctas.txt)" -eq 0 ] &&
    [ "$(grep -cxE '7 *' bench-artifacts/ctas.txt)" -eq 1 ]
}
if cmake --build build-ci-gcc-release -j"$JOBS" --target pctagg_shell &&
   mkdir -p bench-artifacts &&
   explain_sample vpct 'SELECT state, Vpct(salesAmt BY state) FROM sales GROUP BY state' &&
   explain_sample hpct 'SELECT state, Hpct(salesAmt BY dweek) FROM sales GROUP BY state' &&
   explain_sample cube 'SELECT monthNo, dweek, store, Vpct(salesAmt BY dweek) AS pct, sum(salesAmt) AS s FROM sales GROUP BY CUBE(monthNo, dweek, store)' &&
   explain_sample filtered 'SELECT state, sum(salesAmt) AS s, count(*) AS n FROM sales WHERE monthNo <= 6 GROUP BY state' &&
   explain_sample script 'SELECT state, Vpct(salesAmt BY state) FROM sales GROUP BY state' 30000 &&
   explain_samples_ok &&
   ctas_sample_ok; then
  echo "[explain samples] OK (one fused scan per partial sample; the CUBE's feeds all 7 rollup levels; the filtered GROUP BY is one fused mask scan; the 30,000-row sample runs the paper's script; plain EXPLAIN lists the same scan and rollups, and as many steps as EXPLAIN ANALYZE ran; an embedded CREATE TABLE AS makes its 7-row table)"
else
  echo "[explain samples] FAILED"
  FAILED+=("explain samples")
fi

# --- recovery smoke ----------------------------------------------------------
note "recovery smoke (kill -9)"
if cmake --build build-ci-gcc-release -j"$JOBS" --target pctagg_server_bin pctagg_client &&
   scripts/recovery_smoke.sh build-ci-gcc-release; then
  echo "[recovery smoke] OK"
else
  echo "[recovery smoke] FAILED"
  FAILED+=("recovery smoke")
fi

# --- shard smoke -------------------------------------------------------------
note "shard smoke (2 workers + coordinator)"
if cmake --build build-ci-gcc-release -j"$JOBS" --target pctagg_server_bin pctagg_client &&
   scripts/shard_smoke.sh build-ci-gcc-release; then
  echo "[shard smoke] OK"
else
  echo "[shard smoke] FAILED"
  FAILED+=("shard smoke")
fi

# --- format ------------------------------------------------------------------
if have clang-format; then
  note "clang-format (changed files vs HEAD~1)"
  files=$(git diff --name-only --diff-filter=d HEAD~1 -- '*.cc' '*.h')
  if [ -z "$files" ]; then
    echo "no C++ files changed"
  elif echo "$files" | xargs clang-format --dry-run -Werror; then
    echo "[format] OK"
  else
    echo "[format] FAILED"
    FAILED+=("format")
  fi
else
  skip_job "clang-format" "clang-format not installed"
fi

# --- clang-tidy --------------------------------------------------------------
# Mirrors the tidy job: diff-only over changed sources, curated checks from
# the repo-root .clang-tidy with WarningsAsErrors, against the Release
# compile commands.
if have clang-tidy; then
  note "clang-tidy (changed files vs HEAD~1)"
  files=$(git diff --name-only --diff-filter=d HEAD~1 -- \
    'src/*.cc' 'tests/*.cc' 'bench/*.cc')
  if [ -z "$files" ]; then
    echo "no C++ sources changed"
  elif cmake -B build-ci-gcc-release -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null &&
       echo "$files" | xargs clang-tidy -p build-ci-gcc-release --quiet; then
    echo "[tidy] OK"
  else
    echo "[tidy] FAILED"
    FAILED+=("tidy")
  fi
else
  skip_job "clang-tidy" "clang-tidy not installed"
fi

# --- cmake lint --------------------------------------------------------------
# -Wno-error=restrict: gcc 12 raises a bogus -Wrestrict inside libstdc++'s
# char_traits.h on std::string ops at -O2+ (gcc PR105651).
run_job "cmake lint (-Werror)" bash -c "
  cmake --warn-uninitialized -B build-ci-lint -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS='-Werror -Wno-error=restrict' &&
  cmake --build build-ci-lint -j$JOBS"

# --- summary -----------------------------------------------------------------
note "summary"
echo "skipped: ${SKIPPED[*]:-none}"
if [ "${#FAILED[@]}" -gt 0 ]; then
  echo "FAILED: ${FAILED[*]}"
  exit 1
fi
echo "all runnable jobs passed"
