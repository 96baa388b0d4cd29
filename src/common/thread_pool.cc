#include "common/thread_pool.h"

namespace pctagg {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) return false;
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return true;
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      // Second caller (e.g. destructor after explicit Shutdown): workers are
      // already stopping; just fall through to join below.
    }
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

size_t ThreadPool::queued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void WaitGroup::Add(size_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  count_ += static_cast<int64_t>(n);
}

void WaitGroup::Done() {
  // Notify while still holding the mutex: a waiter may only return from
  // Wait() after reacquiring it, which orders this broadcast before any
  // destruction of the WaitGroup on the waiting thread. Notifying after the
  // unlock would let the waiter wake early (spuriously or via a sibling
  // Done), observe zero, and destroy the condition variable mid-broadcast.
  std::lock_guard<std::mutex> lock(mutex_);
  --count_;
  if (count_ <= 0) cv_.notify_all();
}

void WaitGroup::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return count_ <= 0; });
}

bool WaitGroup::WaitFor(std::chrono::milliseconds timeout) {
  return WaitUntil(std::chrono::steady_clock::now() + timeout);
}

bool WaitGroup::WaitUntil(std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_until(lock, deadline, [this] { return count_ <= 0; });
}

int64_t WaitGroup::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

ThreadPool& SharedThreadPool() {
  static ThreadPool* pool = [] {
    size_t hw = std::thread::hardware_concurrency();
    return new ThreadPool(hw > 2 ? hw : 2);  // leaked: outlives static dtors
  }();
  return *pool;
}

}  // namespace pctagg
