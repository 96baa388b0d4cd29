#ifndef PCTAGG_ENGINE_PARALLEL_H_
#define PCTAGG_ENGINE_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace pctagg {

// Morsel-driven intra-operator parallelism. An operator splits its input
// into fixed-size row ranges ("morsels"), workers claim morsels dynamically
// from a shared counter, and each worker accumulates into thread-local state
// that the operator merges afterwards. Workers come from the process-wide
// SharedThreadPool(); the dispatching thread itself acts as worker 0 and can
// drain every morsel alone, so a dispatch never waits for a pool slot — the
// property that makes it safe to run morsels from inside a pool task (e.g. a
// query submitted to the same pool by QueryExecutor).

// Default morsel granularity. Small enough that 1M–2.5M-row inputs split
// into plenty of morsels for 8 workers, big enough that the per-morsel
// bookkeeping (one mutex acquisition) is noise.
inline constexpr size_t kDefaultMorselRows = 65536;

// Bounds for MorselPlan::Auto's adaptive sizing. The lower bound keeps the
// per-morsel bookkeeping amortized; the upper bound keeps enough morsels in
// flight that dynamic claiming can still balance skewed workers.
inline constexpr size_t kMinAdaptiveMorselRows = 16384;
inline constexpr size_t kMaxAdaptiveMorselRows = 262144;

// Number of CPUs actually available to this process (sched_getaffinity on
// Linux, hardware_concurrency otherwise), cached after the first call and
// never less than 1. Requesting more workers than this only adds context
// switches, never throughput — BENCH_parallel.json's dop=4-slower-than-dop=1
// row was exactly this effect on a small host.
size_t AvailableParallelism();

// The degree of parallelism in effect for the current thread; kernels read
// this when their `dop` argument is 0. Defaults to 1 (serial). Pool workers
// running morsels always see 1, so nested dispatch degenerates to serial
// execution instead of oversubscribing the pool.
size_t CurrentDop();

// Scoped override of CurrentDop() for the calling thread. PctDatabase wraps
// query execution in one of these, resolved from QueryOptions, so the knob
// reaches the engine kernels without threading a parameter through every
// planner helper. `dop` of 0 means "auto": the shared pool's thread count.
class ScopedParallelism {
 public:
  explicit ScopedParallelism(size_t dop);
  ~ScopedParallelism();

  ScopedParallelism(const ScopedParallelism&) = delete;
  ScopedParallelism& operator=(const ScopedParallelism&) = delete;

 private:
  size_t previous_;
};

// How `num_rows` input rows split into morsels for `dop` workers. A plan
// with num_workers <= 1 is executed serially on the calling thread.
struct MorselPlan {
  size_t num_rows = 0;
  size_t morsel_rows = kDefaultMorselRows;
  size_t num_morsels = 0;
  size_t num_workers = 1;

  static MorselPlan For(size_t num_rows, size_t dop,
                        size_t morsel_rows = kDefaultMorselRows);

  // Adaptive variant used by the fused operators: clamps the worker count to
  // AvailableParallelism() (oversubscription is pure overhead) and sizes
  // morsels so each effective worker claims ~4 of them, bounded to
  // [kMinAdaptiveMorselRows, kMaxAdaptiveMorselRows]. A serial plan
  // (effective dop 1) keeps kDefaultMorselRows so accumulation scratch stays
  // cache-resident.
  static MorselPlan Auto(size_t num_rows, size_t dop);

  size_t Begin(size_t morsel) const { return morsel * morsel_rows; }
  size_t End(size_t morsel) const {
    size_t e = (morsel + 1) * morsel_rows;
    return e < num_rows ? e : num_rows;
  }
};

// Runs `fn(worker, begin, end)` over every morsel in `plan`. `worker` is a
// stable id in [0, plan.num_workers) identifying which thread-local partial
// state to use; `begin`/`end` bound the morsel's row range.
//
// Workers claim morsels dynamically, and the calling thread participates as
// worker 0: if the shared pool is saturated (or shutting down), the caller
// simply claims and runs every morsel itself, and the helper tasks find
// nothing left to do whenever they eventually run. RunMorsels therefore
// never deadlocks on pool capacity, and returns only after every morsel has
// completed — with all worker writes visible to the caller.
//
// `fn` must not block on other pool tasks (leaf work only) and must not
// throw. Calls with plan.num_workers <= 1 run entirely on the calling
// thread, in morsel order.
//
// Returns how many workers ran at least one morsel: at most
// plan.num_workers, and fewer when the pool was too busy for some helpers
// to start before the morsels ran out (0 for a plan with no morsels).
size_t RunMorsels(const MorselPlan& plan,
                  const std::function<void(size_t, size_t, size_t)>& fn);

// Convenience: partition-parallel loop over `count` independent items (used
// for the partitioned merge phase of two-phase aggregation). Runs
// `fn(item)` for item in [0, count) across min(dop, count) workers.
void RunPartitions(size_t count, size_t dop,
                   const std::function<void(size_t)>& fn);

}  // namespace pctagg

#endif  // PCTAGG_ENGINE_PARALLEL_H_
