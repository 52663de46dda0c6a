// Shared declarations of the benchmark's workloads: the command-line
// arguments they receive, the result they return, and small statistics and
// timing helpers.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "span_recorder.h"

namespace smm {}

namespace perfbench {

// The workloads call into every layer of the program.
using namespace ::smm;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

/// What one workload run reports. `attempted`/`failed` count rounds; a
/// round whose output check fails counts as failed. Metric units are fixed
/// by the metric lists in main.cc.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Human-readable notes, printed to stderr (never part of the JSON).
  std::vector<std::string> notes;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  /// Records a failed output check: the run is no longer correct.
  void Fail(const std::string& what);
  void Note(const std::string& what) { notes.push_back(what); }
};

Result RunFlTrainSmm(const Args& args);
Result RunSumMaskedSmm(const Args& args);
Result RunTcpRounds(const Args& args);

// ---- Helpers (bench_util.cc) ----------------------------------------------

/// Seconds on the steady clock.
double NowSeconds();

/// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Minor page faults this process has taken so far.
int64_t MinorFaults();

/// CPU time the hypervisor gave to other guests (steal) and total CPU time,
/// in clock ticks since boot, from /proc/stat; {0, 0} where unavailable.
struct CpuTicks {
  int64_t steal = 0;
  int64_t total = 0;
};
CpuTicks ReadCpuTicks();

/// Worker threads for the pooled workloads: the host's hardware threads.
int BenchThreads();

/// Runs `op` (which returns its own wall seconds, or a negative value on
/// failure) untimed until its time is steady: at least `min_seconds` have
/// passed and the last three times lie within 10% of their median, or
/// `max_seconds` have passed. Returns the warm-up's wall seconds.
double WarmUp(const std::function<double()>& op, double min_seconds,
              double max_seconds);

/// True when both vectors hold the same bits.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b);

/// The output check on a decoded sum of n contributions: its per-dimension
/// MSE lies within the Skellam variance n * 2 * lambda plus the
/// stochastic-rounding variance (between 0 and n / 4), over gamma^2,
/// widened by six standard errors of a mean of `dim` squared errors.
/// Records the check in `result`.
bool CheckMse(double mse, double n, double lambda, double gamma, size_t dim,
              Result& result);

class StealMonitor;

/// Timings of one closed-loop run over the quieter half of its operations.
struct QuietStats {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double rate_median = 0.0;  ///< Median of `rates` over the quiet half.
  double ops_per_s = 0.0;    ///< Quiet operations over their summed time.
};
/// Ranks the operations (wall `times` in seconds over `intervals`) by the
/// steal each saw and computes the timings over the quieter half (see
/// steal_monitor.h); notes both that and the all-operations median.
QuietStats QuietTimes(const StealMonitor& steal,
                      const std::vector<std::pair<int64_t, int64_t>>& intervals,
                      const std::vector<double>& times,
                      const std::vector<double>& rates, Result& result);

/// Summed duration, in seconds, of the spans named `name`.
double SpanSeconds(const std::vector<Span>& spans, const char* name);

/// Adds the breakdown's self-time table (share of traced wall per span
/// name) to the run's notes.
void AddBreakdownNotes(const Breakdown& b, Result& result);

/// Derives an independent 64-bit seed for one purpose from the run seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t purpose);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
