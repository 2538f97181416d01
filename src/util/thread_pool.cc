#include "util/thread_pool.h"

#include <algorithm>
#include <string>

#include "fault/failpoint.h"
#include "obs/trace.h"

namespace esd::util {

unsigned ThreadPool::DefaultThreadCount() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

ThreadPool::ThreadPool(unsigned num_threads) : ThreadPool(num_threads, {}) {}

ThreadPool::ThreadPool(unsigned num_threads, std::string thread_name_prefix)
    : num_threads_(std::max(1u, num_threads)) {
  if (thread_name_prefix.empty()) thread_name_prefix = "esd-pool";
  workers_.reserve(num_threads_ - 1);
  for (unsigned i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this, i, thread_name_prefix] {
      // Names the worker's track in exported Chrome traces (no-op stub
      // under ESD_OBS=OFF). The calling thread stays on its own track —
      // owners that participate (the serve runner) name themselves
      // "<prefix>-0".
      obs::Tracer::Global().SetCurrentThreadName(thread_name_prefix + "-" +
                                                 std::to_string(i + 1));
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::ParallelFor(uint64_t begin, uint64_t end, uint64_t grain,
                             const std::function<void(uint64_t)>& fn) {
  ParallelForChunked(begin, end, grain, [&fn](uint64_t lo, uint64_t hi) {
    for (uint64_t i = lo; i < hi; ++i) fn(i);
  });
}

void ThreadPool::ParallelForChunked(
    uint64_t begin, uint64_t end, uint64_t grain,
    const std::function<void(uint64_t, uint64_t)>& fn) {
  if (begin >= end) return;
  grain = std::max<uint64_t>(1, grain);
  if (num_threads_ == 1 || end - begin <= grain) {
    fn(begin, end);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = fn;
    next_.store(begin, std::memory_order_relaxed);
    end_ = end;
    grain_ = grain;
    ++generation_;
    active_workers_ = static_cast<unsigned>(workers_.size());
  }
  work_ready_.notify_all();

  // The calling thread participates.
  while (true) {
    uint64_t lo = next_.fetch_add(grain, std::memory_order_relaxed);
    if (lo >= end) break;
    fn(lo, std::min(lo + grain, end));
  }

  // Wait for workers to drain their chunks.
  std::unique_lock<std::mutex> lock(mu_);
  work_done_.wait(lock, [this] { return active_workers_ == 0; });
  job_ = nullptr;
}

void ThreadPool::Post(std::function<void()> task) {
  // Scheduling-edge fail point: a delay() spec here stalls the posting
  // thread (admission jitter); error actions are ignored — Post is
  // fire-and-forget and never drops work.
  (void)ESD_FAILPOINT("pool.post");
  if (workers_.empty()) {  // 1-thread pool: no worker will ever drain it
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!shutdown_) {
      tasks_.push_back(std::move(task));
      task = nullptr;
    }
  }
  if (task) {  // lost the race with the destructor: run inline
    task();
    return;
  }
  work_ready_.notify_one();
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  while (true) {
    std::function<void()> task;
    std::function<void(uint64_t, uint64_t)> job;
    uint64_t end = 0, grain = 1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [&] {
        return shutdown_ || !tasks_.empty() ||
               (job_ != nullptr && generation_ != seen_generation);
      });
      if (!tasks_.empty()) {
        // Tasks take priority and are drained even during shutdown, so a
        // refreeze posted just before teardown still publishes.
        task = std::move(tasks_.front());
        tasks_.pop_front();
      } else if (shutdown_) {
        return;
      } else {
        seen_generation = generation_;
        job = job_;
        end = end_;
        grain = grain_;
      }
    }
    if (task) {
      // A delay() spec here simulates a stalled worker — the knob the
      // queue-full/deadline-expiry service tests turn.
      (void)ESD_FAILPOINT("pool.task");
      task();
      continue;
    }
    {
      // One span per worker per ParallelFor: a traced run shows every
      // participating worker on its named track, chunks won or not (a
      // thread's track exists only once it records).
      ESD_TRACE_SPAN("pool.parallel_for");
      while (true) {
        uint64_t lo = next_.fetch_add(grain, std::memory_order_relaxed);
        if (lo >= end) break;
        job(lo, std::min(lo + grain, end));
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--active_workers_ == 0) work_done_.notify_all();
    }
  }
}

}  // namespace esd::util
