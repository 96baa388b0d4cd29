#ifndef PCTAGG_COMMON_THREAD_POOL_H_
#define PCTAGG_COMMON_THREAD_POOL_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pctagg {

// A fixed-size worker pool with a FIFO task queue. The query service uses it
// to decouple connection handling from query execution (connection threads
// enqueue work and wait on a WaitGroup, worker threads run the engine), and
// the engine's morsel dispatcher uses the same pool for intra-query
// parallelism — see SharedThreadPool() below.
//
// Shutdown() (also run by the destructor) stops accepting new tasks, drains
// everything already queued, and joins the workers — so any WaitGroup tied to
// a submitted task is guaranteed to become ready.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues `task`; returns false (without queueing) after Shutdown began.
  bool Submit(std::function<void()> task);

  void Shutdown();

  size_t num_threads() const { return threads_.size(); }

  // Tasks currently waiting in the queue (excludes running ones).
  size_t queued() const;

 private:
  void WorkerLoop();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> threads_;
};

// Counts outstanding units of work and lets one or more threads block until
// the count returns to zero. The usual shape is:
//
//   WaitGroup wg;
//   wg.Add();                      // before handing work to another thread
//   pool.Submit([&] { ...; wg.Done(); });
//   wg.Wait();                     // or WaitFor(deadline) for a bounded wait
//
// Unlike a promise/future pair this supports batches (Add N times, Wait
// once), supports multiple waiters, and is reusable after the count drains.
// Done() must be called exactly once per Add(); the count dropping below
// zero is a programming error.
class WaitGroup {
 public:
  void Add(size_t n = 1);
  void Done();

  // Blocks until the count is zero. Returns immediately if it already is.
  void Wait();

  // Bounded Wait: true if the count reached zero within `timeout`, false on
  // deadline. The count keeps draining in the background either way.
  bool WaitFor(std::chrono::milliseconds timeout);
  bool WaitUntil(std::chrono::steady_clock::time_point deadline);

  int64_t count() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  int64_t count_ = 0;
};

// Process-wide pool shared by the engine's morsel dispatcher, the query
// executor (when ExecutorConfig.worker_threads == 0), and benchmarks. Sized
// to hardware_concurrency (min 2), constructed on first use, never torn down
// before exit. Tasks submitted here must not block indefinitely on other
// tasks in the same queue — the morsel dispatcher guarantees this by letting
// the dispatching thread drain its own morsels (see engine/parallel.h).
ThreadPool& SharedThreadPool();

}  // namespace pctagg

#endif  // PCTAGG_COMMON_THREAD_POOL_H_
