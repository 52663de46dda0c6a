// Steal monitor: tells which operations ran while the hypervisor gave this
// VM's CPU time to other guests.
//
// On a shared host, other guests' load comes and goes in bursts, and a burst
// slows whatever runs during it by an amount that has nothing to do with the
// program. A background thread samples the VM's CPU tick counters from
// /proc/stat every kPeriodMs, so the steal share of any interval of a run can
// be looked up afterwards. The workloads rank their timed operations by it
// and compute their timings over the quieter half (see QuietHalf).
#ifndef PERFBENCH_STEAL_MONITOR_H_
#define PERFBENCH_STEAL_MONITOR_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

class StealMonitor {
 public:
  StealMonitor();
  ~StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  /// Share of the VM's CPU time stolen over [from_ns, to_ns] (NowNs()
  /// times), from the samples that bracket the interval; 0 when /proc/stat
  /// is unavailable.
  double StealShare(int64_t from_ns, int64_t to_ns) const;

 private:
  struct Sample {
    int64_t time_ns = 0;
    int64_t steal = 0;
    int64_t total = 0;
  };
  void TakeSample();
  void Loop();

  mutable std::mutex mu_;  // Guards samples_ and stop_.
  std::condition_variable wake_;
  std::vector<Sample> samples_;
  bool stop_ = false;
  std::thread thread_;  // Last: starts after the members it uses.
};

/// Indices, in ascending order, of the half (rounded up) of the `intervals`
/// ([start_ns, end_ns] each) with the least steal; ties keep the earlier.
std::vector<size_t> QuietHalf(
    const StealMonitor& monitor,
    const std::vector<std::pair<int64_t, int64_t>>& intervals);

}  // namespace perfbench

#endif  // PERFBENCH_STEAL_MONITOR_H_
