// Minimal shared fork-join thread pool.
//
// Serves the harness running independent experiment cells
// (run_experiments_parallel: sweep benches, dardsim --jobs). The simulators
// themselves are single-threaded. The only primitive is run_indexed(): run
// fn(i) for every i in [0, n), caller participates, returns when all n are
// done. Work is distributed by an atomic ticket, so uneven item costs
// balance automatically. There is no task queue and no futures — callers
// that need per-item results write them to disjoint slots of a preallocated
// output array, which keeps the deterministic-merge contract trivial.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dard::common {

class ThreadPool {
 public:
  // `threads` is the total worker count including the calling thread;
  // 0 means hardware_concurrency(). A pool of size 1 spawns no threads and
  // run_indexed degenerates to a serial loop.
  explicit ThreadPool(unsigned threads = 0) {
    if (threads == 0) threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
    workers_.reserve(threads - 1);
    for (unsigned i = 1; i < threads; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ~ThreadPool() {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size() + 1; }

  // Runs fn(i) for every i in [0, n); blocks until every call returned.
  // The calling thread works too, so the pool is usable (serially) even
  // with zero spawned workers. Not reentrant: fn must not call run_indexed
  // on the same pool.
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    if (workers_.empty() || n == 1) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    {
      const std::lock_guard<std::mutex> lk(mu_);
      job_ = &fn;
      job_n_ = n;
      next_.store(0, std::memory_order_relaxed);
      remaining_.store(n, std::memory_order_relaxed);
      ++generation_;
    }
    work_cv_.notify_all();
    drain();
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [this] {
      return remaining_.load(std::memory_order_acquire) == 0;
    });
  }

 private:
  // Claims tickets until the current job is exhausted. Late wakers are
  // safe: once every index is claimed, fetch_add returns >= job_n_ and the
  // job pointer is never dereferenced.
  void drain() {
    while (true) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= job_n_) return;
      (*job_)(i);
      if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        const std::lock_guard<std::mutex> lk(mu_);
        done_cv_.notify_all();
      }
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mu_);
    while (true) {
      work_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      lk.unlock();
      drain();
      lk.lock();
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  std::uint64_t generation_ = 0;  // guarded by mu_

  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t job_n_ = 0;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> remaining_{0};
};

}  // namespace dard::common
