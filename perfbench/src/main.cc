// The repository benchmark: runs one named workload (or all of them) against
// the production entry points and prints its metrics.
//
//   perfbench --workload <fl_train_smm|sum_masked_smm|tcp_rounds|all>
//             [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics. Every metric goes to stderr as
// "name value unit"; the last line of stdout is one JSON object with keys
// correct, attempted, failed and metrics. A failed output check, an unknown
// flag or workload, or a bad value exits nonzero.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every untraced run reports each of these.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"success_share", "share"},
    {"coords_per_s", "1/s"},
    {"mse_per_dim", "1"},
    {"round_p50_ms", "ms"},
    {"capacity_rounds_per_s", "1/s"},
};

// Every traced run reports each of these; a layer the workload does not
// exercise reports 0.
const MetricSpec kPerLayer[] = {
    {"nn.grad_ns_per_update", "ns"},
    {"nn.step_ms", "ms"},
    {"nn.eval_s", "s"},
    {"mechanisms.encode_ns_per_coord", "ns"},
    {"mechanisms.decode_ms", "ms"},
    {"mechanisms.overflows", "count"},
    {"sampling.skellam_ns_per_draw", "ns"},
    {"transform.wht_ns_per_coord", "ns"},
    {"secagg.open_ms", "ms"},
    {"secagg.prepare_ns_per_coord", "ns"},
    {"secagg.frame_encode_ns_per_coord", "ns"},
    {"secagg.frame_decode_ns_per_coord", "ns"},
    {"secagg.drain_ns_per_coord", "ns"},
    {"secagg.absorb_ns_per_coord", "ns"},
    {"secagg.finalize_ms", "ms"},
    {"secagg.frames_rejected", "count"},
    {"accounting.calibrate_s", "s"},
    {"data.generate_s", "s"},
    {"net.open_session_us", "us"},
    {"net.connect_us", "us"},
    {"net.send_ms", "ms"},
    {"net.wait_sum_ms", "ms"},
    {"net.frames_delivered_per_sent", "share"},
    {"net.bytes_read_per_round", "B"},
    {"net.bytes_written_per_round", "B"},
    {"net.connections_dropped", "count"},
    {"net.sessions_failed", "count"},
    {"mem.minor_faults_per_round", "count"},
    {"gen.late_ms_p90", "ms"},
    {"gen.warmup_s", "s"},
    {"e2e.round_p90_ms", "ms"},
    {"trace.rounds", "count"},
    {"trace.unattributed_share", "share"},
    {"trace.overhead_share", "share"},
    {"trace.replay_mismatches", "count"},
};

struct Workload {
  const char* name;
  Result (*run)(const Args&);
};

const Workload kWorkloads[] = {
    {"fl_train_smm", RunFlTrainSmm},
    {"sum_masked_smm", RunSumMaskedSmm},
    {"tcp_rounds", RunTcpRounds},
};

int Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: perfbench --workload <name|all> [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out PATH]\n"
               "workloads:",
               error);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseSeconds(const std::string& text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end == nullptr || *end != '\0' || !std::isfinite(v) ||
      v <= 0.0 || v > 3600.0) {
    return false;
  }
  *out = v;
  return true;
}

struct Reported {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The metrics of this run's kind, with their units: every end-to-end
/// metric (untraced) or every per-layer metric (traced), the latter 0 when
/// the workload does not exercise the layer. Fails the run when a metric is
/// missing, unknown or not finite.
std::vector<Reported> Normalize(const Args& args, Result& result) {
  std::vector<Reported> out;
  std::map<std::string, double> left = result.metrics;
  const auto take = [&](const MetricSpec& spec, bool required) {
    auto it = left.find(spec.name);
    Reported r{spec.name, 0.0, spec.unit};
    if (it != left.end()) {
      r.value = it->second;
      left.erase(it);
    } else if (required) {
      result.Fail(std::string("metric not measured: ") + spec.name);
    }
    if (!std::isfinite(r.value)) {
      result.Fail("metric is not finite: " + r.name);
      r.value = 0.0;
    }
    out.push_back(r);
  };
  if (args.trace) {
    for (const MetricSpec& spec : kPerLayer) take(spec, false);
  } else {
    for (const MetricSpec& spec : kEndToEnd) take(spec, true);
  }
  for (const auto& [name, value] : left) {
    (void)value;
    result.Fail("metric not in this run's list: " + name);
  }
  if (result.attempted < 1) {
    result.Fail("no round was attempted");
    result.attempted = 1;
    result.failed = 1;
  }
  return out;
}

std::string JsonLine(bool correct, int64_t attempted, int64_t failed,
                     const std::vector<Reported>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char number[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(number, sizeof(number), "%.17g", metrics[i].value);
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

void Report(const std::string& workload, const Result& result,
            const std::vector<Reported>& metrics) {
  std::fprintf(stderr, "== %s: correct=%s attempted=%lld failed=%lld\n",
               workload.c_str(), result.correct ? "true" : "false",
               static_cast<long long>(result.attempted),
               static_cast<long long>(result.failed));
  for (const std::string& note : result.notes) {
    std::fprintf(stderr, "   %s\n", note.c_str());
  }
  for (const Reported& m : metrics) {
    std::fprintf(stderr, "   %-36s %.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      Usage("help requested");
      return 2;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &args.seed)) return Usage("bad --seed");
    } else if (flag == "--seconds") {
      if (!ParseSeconds(value, &args.seconds)) return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (args.workload == "all" || args.workload == w.name) {
      selected.push_back(&w);
    }
  }
  if (selected.empty()) {
    return Usage(("no workload named " + args.workload).c_str());
  }

  std::fprintf(stderr, "perfbench: seed=%llu seconds=%g trace=%d threads=%d\n",
               static_cast<unsigned long long>(args.seed), args.seconds,
               args.trace ? 1 : 0, BenchThreads());
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Reported> combined;
  for (const Workload* w : selected) {
    Args run_args = args;
    run_args.workload = w->name;
    if (!args.trace_out.empty() && selected.size() > 1) {
      run_args.trace_out = args.trace_out + "." + w->name;
    }
    const CpuTicks before = ReadCpuTicks();
    Result result = w->run(run_args);
    const CpuTicks after = ReadCpuTicks();
    if (after.total > before.total) {
      // Other guests' load on the host explains run-to-run spread.
      char note[96];
      std::snprintf(note, sizeof(note), "host steal: %.1f%% of CPU time",
                    100.0 * static_cast<double>(after.steal - before.steal) /
                        static_cast<double>(after.total - before.total));
      result.Note(note);
    }
    const std::vector<Reported> metrics = Normalize(run_args, result);
    Report(w->name, result, metrics);
    correct = correct && result.correct;
    attempted += result.attempted;
    failed += result.failed;
    for (Reported m : metrics) {
      if (selected.size() > 1) m.name = std::string(w->name) + "." + m.name;
      combined.push_back(m);
    }
    if (selected.size() > 1) {
      std::printf("%s\n", JsonLine(result.correct, result.attempted,
                                    result.failed, metrics)
                              .c_str());
      std::fflush(stdout);
    }
  }
  std::printf("%s\n", JsonLine(correct, attempted, failed, combined).c_str());
  std::fflush(stdout);
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
