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
  run_job "ASan" build_and_test build-ci-asan gcc g++ Debug -DPCTAGG_SANITIZE=address
  note "TSan"
  if CC=gcc CXX=g++ cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=Debug \
       -DPCTAGG_SANITIZE=thread &&
     cmake --build build-ci-tsan -j"$JOBS" &&
     ctest --test-dir build-ci-tsan --timeout 600 --output-on-failure \
       -R "server_smoke_tsan|parallel_ops_tsan|lattice_tsan|dist_tsan|mqo_tsan|table_stats_tsan|MetricsTest|MetricsRegistryTest"; then
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
if cmake --build build-ci-gcc-release -j"$JOBS" --target pctagg_shell &&
   mkdir -p bench-artifacts &&
   printf '.gen sales sales 100000\nEXPLAIN ANALYZE SELECT state, Vpct(salesAmt BY state) FROM sales GROUP BY state;\nEXPLAIN ANALYZE SELECT state, Hpct(salesAmt BY dweek) FROM sales GROUP BY state;\nEXPLAIN ANALYZE SELECT monthNo, dweek, store, Vpct(salesAmt BY dweek) AS pct, sum(salesAmt) AS s FROM sales GROUP BY CUBE(monthNo, dweek, store);\n.quit\n' \
     | build-ci-gcc-release/tools/pctagg_shell > bench-artifacts/explain_analyze_samples.txt &&
   [ "$(grep -c 'fused-scan:' bench-artifacts/explain_analyze_samples.txt)" -eq 1 ] &&
   [ "$(grep -c 'lattice-rollup:' bench-artifacts/explain_analyze_samples.txt)" -eq 7 ]; then
  echo "[explain samples] OK (one fused scan feeds all 7 rollup levels)"
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
