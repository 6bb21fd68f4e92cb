#include "util/worker_pool.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace leopard::util {

WorkerPool::WorkerPool(std::size_t lanes) { resize(lanes); }

WorkerPool::~WorkerPool() { stop_workers(); }

void WorkerPool::stop_workers() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
  threads_.clear();
  stop_ = false;
}

void WorkerPool::resize(std::size_t lanes) {
  lanes = std::clamp<std::size_t>(lanes, 1, kMaxLanes);
  if (lanes == lanes_ && threads_.size() == lanes - 1) return;
  stop_workers();
  // Fresh workers start with a seen-epoch of 0: reset the counter (the pool
  // is quiescent here) so they wait for the NEXT dispatch instead of
  // re-running the previous job's stale descriptor.
  epoch_ = 0;
  pending_ = 0;
  job_ = Job{};
  lanes_ = lanes;
  threads_.reserve(lanes - 1);
  for (std::size_t lane = 1; lane < lanes; ++lane) {
    threads_.emplace_back([this, lane] { worker_loop(lane); });
  }
}

std::pair<std::size_t, std::size_t> WorkerPool::chunk_of(std::size_t count, std::size_t align,
                                                         std::size_t lanes, std::size_t lane) {
  if (count == 0 || lanes == 0) return {0, 0};
  if (align == 0) align = 1;
  std::size_t chunk = (count + lanes - 1) / lanes;
  chunk = (chunk + align - 1) / align * align;
  const std::size_t begin = std::min(lane * chunk, count);
  const std::size_t end = std::min(begin + chunk, count);
  return {begin, end};
}

void WorkerPool::worker_loop(std::size_t lane) {
  std::uint64_t seen = 0;
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      job = job_;
    }
    const auto [begin, end] = chunk_of(job.count, job.align, job.lanes, lane);
    if (begin < end) job.fn(job.ctx, lane, begin, end);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }
}

void WorkerPool::run(std::size_t count, std::size_t align, TaskFn fn, void* ctx) {
  expects(fn != nullptr, "WorkerPool::run: null task");
  if (count == 0) return;
  const std::size_t lanes = lanes_;
  // Serial pool, or a single chunk covers everything: run inline with zero
  // synchronization — exactly the pre-pool serial path.
  if (lanes <= 1 || chunk_of(count, align, lanes, 1).first >= count) {
    fn(ctx, 0, 0, count);
    return;
  }
  const std::lock_guard<std::mutex> dispatch(dispatch_mu_);
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = Job{fn, ctx, count, align == 0 ? 1 : align, lanes};
    pending_ = lanes - 1;
    ++epoch_;
  }
  work_cv_.notify_all();
  const auto [begin, end] = chunk_of(count, align, lanes, 0);
  if (begin < end) fn(ctx, 0, begin, end);
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return pending_ == 0; });
}

WorkerPool& WorkerPool::global() {
  static WorkerPool pool(1);
  return pool;
}

}  // namespace leopard::util
