#include "engine/parallel.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/thread_pool.h"

namespace pctagg {

namespace {

thread_local size_t tls_dop = 1;

// State shared between the dispatching thread and its helper tasks. Helpers
// hold a shared_ptr so a task that only gets scheduled after the dispatch
// already finished (every morsel claimed by others) still has valid memory
// to look at — it observes `next >= num_morsels` and exits without ever
// touching `fn`, whose captures die when RunMorsels returns.
struct MorselRun {
  MorselPlan plan;
  const std::function<void(size_t, size_t, size_t)>* fn = nullptr;
  std::atomic<size_t> next{0};
  std::atomic<size_t> participants{0};  // workers that ran >= 1 morsel

  std::mutex mutex;
  std::condition_variable cv;
  size_t done = 0;  // completed morsels

  // Claims morsels until none remain. Returns after this worker can claim
  // nothing more; other workers may still be mid-morsel.
  void Drain(size_t worker) {
    bool ran = false;
    for (;;) {
      size_t m = next.fetch_add(1, std::memory_order_relaxed);
      if (m >= plan.num_morsels) return;
      // Counted before the morsel's `done` increment, so the dispatcher
      // reads the final count once WaitAllDone returns.
      if (!ran) participants.fetch_add(1, std::memory_order_relaxed);
      ran = true;
      (*fn)(worker, plan.Begin(m), plan.End(m));
      bool all = false;
      {
        std::lock_guard<std::mutex> lock(mutex);
        all = ++done == plan.num_morsels;
      }
      if (all) cv.notify_all();
    }
  }

  void WaitAllDone() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return done == plan.num_morsels; });
  }
};

size_t ProbeAvailableParallelism() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
#endif
  unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? n : 1;
}

}  // namespace

size_t AvailableParallelism() {
  static const size_t cpus = ProbeAvailableParallelism();
  return cpus;
}

size_t CurrentDop() { return tls_dop; }

ScopedParallelism::ScopedParallelism(size_t dop) : previous_(tls_dop) {
  if (dop == 0) dop = SharedThreadPool().num_threads();
  tls_dop = dop < 1 ? 1 : dop;
}

ScopedParallelism::~ScopedParallelism() { tls_dop = previous_; }

MorselPlan MorselPlan::For(size_t num_rows, size_t dop, size_t morsel_rows) {
  MorselPlan plan;
  plan.num_rows = num_rows;
  plan.morsel_rows = morsel_rows < 1 ? 1 : morsel_rows;
  plan.num_morsels = (num_rows + plan.morsel_rows - 1) / plan.morsel_rows;
  if (dop < 1) dop = 1;
  plan.num_workers = dop < plan.num_morsels ? dop : plan.num_morsels;
  if (plan.num_workers < 1) plan.num_workers = 1;
  return plan;
}

MorselPlan MorselPlan::Auto(size_t num_rows, size_t dop) {
  if (dop < 1) dop = 1;
  size_t effective = dop < AvailableParallelism() ? dop : AvailableParallelism();
  if (effective <= 1) return For(num_rows, 1);
  // ~4 morsels per effective worker keeps dynamic claiming able to balance
  // skew without paying per-morsel overhead on every 64K rows.
  size_t target = (num_rows + effective * 4 - 1) / (effective * 4);
  if (target < kMinAdaptiveMorselRows) target = kMinAdaptiveMorselRows;
  if (target > kMaxAdaptiveMorselRows) target = kMaxAdaptiveMorselRows;
  return For(num_rows, effective, target);
}

size_t RunMorsels(const MorselPlan& plan,
                  const std::function<void(size_t, size_t, size_t)>& fn) {
  if (plan.num_morsels == 0) return 0;
  if (plan.num_workers <= 1) {
    for (size_t m = 0; m < plan.num_morsels; ++m) {
      fn(0, plan.Begin(m), plan.End(m));
    }
    return 1;
  }
  auto run = std::make_shared<MorselRun>();
  run->plan = plan;
  run->fn = &fn;
  ThreadPool& pool = SharedThreadPool();
  for (size_t w = 1; w < plan.num_workers; ++w) {
    // Helpers run with DOP 1: any kernel they invoke inside a morsel stays
    // serial rather than re-entering the dispatcher.
    pool.Submit([run, w] {
      ScopedParallelism serial(1);
      run->Drain(w);
    });
    // Submit only fails once the process-wide pool is shutting down (exit);
    // worker 0 below picks up the slack either way.
  }
  {
    ScopedParallelism serial(1);
    run->Drain(0);
  }
  run->WaitAllDone();
  // Helpers scheduled late will see every morsel claimed and drop their
  // reference; `fn` is not touched after WaitAllDone returns.
  run->fn = nullptr;
  return run->participants.load(std::memory_order_relaxed);
}

void RunPartitions(size_t count, size_t dop,
                   const std::function<void(size_t)>& fn) {
  MorselPlan plan = MorselPlan::For(count, dop, /*morsel_rows=*/1);
  RunMorsels(plan, [&fn](size_t, size_t begin, size_t) { fn(begin); });
}

}  // namespace pctagg
