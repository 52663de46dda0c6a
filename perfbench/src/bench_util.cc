#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "steal_monitor.h"
#include "workloads.h"

namespace perfbench {

void Result::Fail(const std::string& what) {
  correct = false;
  notes.push_back("CHECK FAILED: " + what);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

int64_t MinorFaults() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<int64_t>(usage.ru_minflt);
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  // cpu user nice system idle iowait irq softirq steal
  if (std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    ticks.steal = v[7];
    for (long long x : v) ticks.total += x;
  }
  std::fclose(f);
  return ticks;
}

int BenchThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

double WarmUp(const std::function<double()>& op, double min_seconds,
              double max_seconds) {
  const double start = NowSeconds();
  std::vector<double> times;
  while (true) {
    const double t = op();
    if (t < 0.0) break;
    times.push_back(t);
    if (times.size() >= 3 && NowSeconds() - start >= min_seconds) {
      const std::vector<double> last(times.end() - 3, times.end());
      const double mid = Median(last);
      const auto [lo, hi] = std::minmax_element(last.begin(), last.end());
      if (*hi - *lo <= 0.1 * mid) break;
    }
    if (NowSeconds() - start >= max_seconds) break;
  }
  return NowSeconds() - start;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool CheckMse(double mse, double n, double lambda, double gamma, size_t dim,
              Result& result) {
  const double g2 = gamma * gamma;
  const double slack = 6.0 * std::sqrt(2.0 / static_cast<double>(dim));
  const double lo = n * 2.0 * lambda / g2 * (1.0 - slack);
  const double hi = n * (2.0 * lambda + 0.25) / g2 * (1.0 + slack);
  char line[200];
  std::snprintf(line, sizeof(line),
                "lambda/participant %.6g; mse_per_dim %.6g in [%.6g, %.6g] "
                "for n = %g",
                lambda, mse, lo, hi, n);
  result.Note(line);
  if (mse >= lo && mse <= hi) return true;
  result.Fail("mse_per_dim outside its variance bounds");
  return false;
}

QuietStats QuietTimes(const StealMonitor& steal,
                      const std::vector<std::pair<int64_t, int64_t>>& intervals,
                      const std::vector<double>& times,
                      const std::vector<double>& rates, Result& result) {
  QuietStats q;
  std::vector<double> quiet_ms;
  std::vector<double> quiet_rates;
  double quiet_s = 0.0;
  for (size_t i : QuietHalf(steal, intervals)) {
    quiet_ms.push_back(times[i] * 1e3);
    quiet_rates.push_back(rates[i]);
    quiet_s += times[i];
  }
  q.p50_ms = Quantile(quiet_ms, 0.5);
  q.p90_ms = Quantile(quiet_ms, 0.9);
  q.rate_median = Median(quiet_rates);
  q.ops_per_s = quiet_s > 0.0 ? static_cast<double>(quiet_ms.size()) / quiet_s
                              : 0.0;
  char line[160];
  std::snprintf(line, sizeof(line),
                "timed operations: %zu, median %.1f ms; quieter half: %zu, "
                "median %.1f ms, p90 %.1f ms",
                times.size(), Median(times) * 1e3, quiet_ms.size(), q.p50_ms,
                q.p90_ms);
  result.Note(line);
  return q;
}

double SpanSeconds(const std::vector<Span>& spans, const char* name) {
  double ns = 0.0;
  for (const Span& span : spans) {
    if (std::strcmp(span.name, name) == 0) {
      ns += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  return ns * 1e-9;
}

void AddBreakdownNotes(const Breakdown& b, Result& result) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "breakdown over %zu traced rounds, wall %.1f ms/round:",
                b.rounds, b.wall_ns / static_cast<double>(b.rounds) * 1e-6);
  result.Note(line);
  for (const auto& [name, totals] : b.by_name) {
    std::snprintf(line, sizeof(line),
                  "  %-44s self %8.2f ms/round  %5.1f%%  (%lld calls)",
                  name.c_str(),
                  totals.self_ns / static_cast<double>(b.rounds) * 1e-6,
                  100.0 * totals.self_ns / b.wall_ns,
                  static_cast<long long>(totals.count));
    result.Note(line);
  }
  std::snprintf(line, sizeof(line),
                "  %-44s      %8.2f ms/round  %5.1f%%", "(unattributed)",
                b.unattributed_ns / static_cast<double>(b.rounds) * 1e-6,
                100.0 * b.unattributed_ns / b.wall_ns);
  result.Note(line);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t purpose) {
  // SplitMix64 finalizer over (seed, purpose).
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + purpose * 0xbf58476d1ce4e5b9ULL +
               0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
