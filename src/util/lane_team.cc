#include "util/lane_team.h"

#include "util/logging.h"
#include "util/thread_pool.h"

namespace hytgraph {

LaneTeam::LaneTeam(int num_lanes) : num_lanes_(num_lanes) {
  HYT_CHECK(num_lanes >= 1) << "LaneTeam needs at least one lane";
  if (num_lanes == 1) return;  // 1-lane teams run inline in Run()
  threads_.reserve(num_lanes);
  for (int lane = 0; lane < num_lanes; ++lane) {
    threads_.emplace_back([this, lane] { LaneLoop(lane); });
  }
}

LaneTeam::~LaneTeam() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void LaneTeam::LaneLoop(int lane) {
  // Lane threads count as pool workers: kernel ParallelFor inside a lane
  // runs serially instead of contending for the shared pool.
  ThreadPool::MarkWorkerThread();
  uint64_t seen_epoch = 0;
  while (true) {
    const std::function<void(int)>* fn = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || (fn_ != nullptr && epoch_ != seen_epoch);
      });
      if (shutdown_) return;
      seen_epoch = epoch_;
      fn = fn_;
    }
    (*fn)(lane);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--remaining_ == 0) done_cv_.notify_all();
    }
  }
}

void LaneTeam::Run(const std::function<void(int lane)>& fn) {
  if (num_lanes_ == 1) {
    // Inline on the caller: a 1-lane team adds no threads and no signaling,
    // and the caller keeps its pool-worker status (kernels shard over the
    // pool unless the caller is itself a worker).
    fn(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    remaining_ = num_lanes_;
    ++epoch_;
  }
  work_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return remaining_ == 0; });
    fn_ = nullptr;
  }
}

}  // namespace hytgraph
