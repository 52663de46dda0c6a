#include "steal_monitor.h"

#include <algorithm>
#include <chrono>

#include "span_recorder.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kPeriodMs = 50;

}  // namespace

StealMonitor::StealMonitor() {
  TakeSample();
  thread_ = std::thread([this] { Loop(); });
}

StealMonitor::~StealMonitor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

void StealMonitor::TakeSample() {
  const CpuTicks ticks = ReadCpuTicks();
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  samples_.push_back({now, ticks.steal, ticks.total});
}

void StealMonitor::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!wake_.wait_for(lock, std::chrono::milliseconds(kPeriodMs),
                         [this] { return stop_; })) {
    lock.unlock();
    TakeSample();
    lock.lock();
  }
}

double StealMonitor::StealShare(int64_t from_ns, int64_t to_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.empty()) return 0.0;
  // The last sample at or before `from_ns`, and the first at or after
  // `to_ns` (or the nearest ones the run has).
  auto after = std::upper_bound(
      samples_.begin(), samples_.end(), from_ns,
      [](int64_t t, const Sample& s) { return t < s.time_ns; });
  const Sample& a = after == samples_.begin() ? samples_.front() : *(after - 1);
  auto b_it = std::lower_bound(
      samples_.begin(), samples_.end(), to_ns,
      [](const Sample& s, int64_t t) { return s.time_ns < t; });
  const Sample& b = b_it == samples_.end() ? samples_.back() : *b_it;
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

std::vector<size_t> QuietHalf(
    const StealMonitor& monitor,
    const std::vector<std::pair<int64_t, int64_t>>& intervals) {
  std::vector<std::pair<double, size_t>> ranked;
  for (size_t i = 0; i < intervals.size(); ++i) {
    ranked.emplace_back(
        monitor.StealShare(intervals[i].first, intervals[i].second), i);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  std::vector<size_t> out;
  for (size_t k = 0; k < (ranked.size() + 1) / 2; ++k) {
    out.push_back(ranked[k].second);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench
