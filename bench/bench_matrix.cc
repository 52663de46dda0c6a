// bench_matrix: the scenario-matrix benchmark driver.
//
//   bench_matrix [--fast|--full] [--filter SUBSTR] [--repeats N]
//                [--wide] [--json PATH] [--list]
//   bench_matrix --calibrate [--tuning-out PATH] [--fast|--full]
//
// The default mode enumerates every registered scenario's axis matrix
// (optionally name-filtered), prints one line per enumerated point, and
// with --json writes the schema-versioned artifact that
// bench/check_bench_regression.py diffs and bench/validate_bench_artifact.py
// validates. Exit status is 1 if any point's bit-identity verdict failed
// or --filter matches no scenario, and 2 (with usage on stderr) on an
// unknown flag, a flag missing its value, or a --repeats that is not a
// positive integer. The command line is checked before anything runs.
//
// --calibrate measures this host's tile sizing, session thread count, and
// per-kernel dispatch crossovers, and writes them as tuning.json (default
// ./tuning.json, override with --tuning-out). Load the file at startup by
// pointing SMM_TUNING at it, or pass it to LoadRuntimeTuningFromFile.
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/parallel.h"
#include "common/simd.h"
#include "common/tuning.h"
#include "runner.h"

namespace smm::bench {
namespace {

constexpr int kUsageExit = 2;

constexpr const char* kUsage =
    "usage: bench_matrix [--fast|--full] [--filter SUBSTR] [--repeats N]\n"
    "                    [--wide] [--json PATH] [--list]\n"
    "       bench_matrix --calibrate [--tuning-out PATH] [--fast|--full]\n";

/// The parsed command line. --fast/--full are read by ParseScale.
struct Flags {
  bool list = false;
  bool calibrate = false;
  bool wide = false;
  int repeats = 0;  // 0 = each scenario's default.
  const char* repeats_text = nullptr;
  const char* filter = nullptr;
  const char* json_path = nullptr;
  const char* tuning_out = nullptr;
};

/// Strict parse: every argument must be a known flag, and every value flag
/// must be followed by a value that is not itself a flag. Returns false
/// after printing the reason and usage to stderr.
bool ParseFlags(int argc, char** argv, Flags* flags) {
  const auto fail = [](const char* what, const char* arg) {
    std::fprintf(stderr, "bench_matrix: %s '%s'\n%s", what, arg, kUsage);
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char** value_out = nullptr;
    if (std::strcmp(arg, "--fast") == 0 || std::strcmp(arg, "--full") == 0) {
      // Read by ParseScale.
    } else if (std::strcmp(arg, "--list") == 0) {
      flags->list = true;
    } else if (std::strcmp(arg, "--calibrate") == 0) {
      flags->calibrate = true;
    } else if (std::strcmp(arg, "--wide") == 0) {
      flags->wide = true;
    } else if (std::strcmp(arg, "--filter") == 0) {
      value_out = &flags->filter;
    } else if (std::strcmp(arg, "--json") == 0) {
      value_out = &flags->json_path;
    } else if (std::strcmp(arg, "--tuning-out") == 0) {
      value_out = &flags->tuning_out;
    } else if (std::strcmp(arg, "--repeats") == 0) {
      value_out = &flags->repeats_text;
    } else {
      return fail("unknown argument", arg);
    }
    if (value_out == nullptr) continue;
    if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
      return fail("missing value for", arg);
    }
    *value_out = argv[++i];
  }
  if (const char* text = flags->repeats_text) {
    errno = 0;
    char* end = nullptr;
    const long n = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || n < 1 ||
        n > INT_MAX) {
      return fail("--repeats needs a positive integer, got", text);
    }
    flags->repeats = static_cast<int>(n);
  }
  return true;
}

/// True when at least one registered scenario's name contains `filter`
/// (RunMatrix's selection rule).
bool FilterMatchesAny(const std::string& filter) {
  for (const auto& scenario : ScenarioRegistry::Global().Instantiate()) {
    if (std::string(scenario->name()).find(filter) != std::string::npos) {
      return true;
    }
  }
  return false;
}

int ListScenarios() {
  std::printf("registered scenarios:\n");
  for (const auto& scenario : ScenarioRegistry::Global().Instantiate()) {
    std::printf("  %-16s %s%s\n", scenario->name(),
                scenario->description(),
                scenario->stable() ? " [stable: gates CI]" : "");
  }
  return 0;
}

int Calibrate(Scale scale, const char* out_path) {
  std::printf("calibrating runtime tuning (%s)...\n", ScaleName(scale));
  auto tuning = RunCalibration(scale, /*verbose=*/true);
  if (!tuning.ok()) {
    std::printf("calibration failed: %s\n",
                tuning.status().ToString().c_str());
    return 1;
  }
  const std::string json = RuntimeTuningToJson(*tuning);
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::printf("cannot open %s for tuning output\n", out_path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s:\n%s", out_path, json.c_str());
  std::printf("load it with SMM_TUNING=%s\n", out_path);
  return 0;
}

int Main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return kUsageExit;
  RegisterAllScenarios();
  const Scale scale = ParseScale(argc, argv);

  if (flags.list) return ListScenarios();
  if (flags.calibrate) {
    return Calibrate(scale, flags.tuning_out != nullptr ? flags.tuning_out
                                                        : "tuning.json");
  }

  const std::string filter = flags.filter != nullptr ? flags.filter : "";
  if (!FilterMatchesAny(filter)) {
    std::fprintf(stderr,
                 "bench_matrix: --filter '%s' matches no scenario "
                 "(see --list)\n",
                 filter.c_str());
    return 1;
  }
  RunOptions options;
  options.scale = scale;
  options.wide = flags.wide;
  options.repeats = flags.repeats;
  const char* json_path = flags.json_path;

  std::printf("bench_matrix (%s). Hardware threads: %d, dispatch: %s\n",
              ScaleName(scale), ThreadPool::HardwareThreads(),
              simd::Active().name);
  auto report = RunMatrix(filter, options);
  if (!report.ok()) {
    std::printf("matrix run failed: %s\n",
                report.status().ToString().c_str());
    return 1;
  }
  if (json_path != nullptr) {
    const Status written = WriteMatrixJson(*report, json_path);
    if (!written.ok()) {
      std::printf("%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote JSON report to %s\n", json_path);
  }
  size_t points = 0;
  for (const auto& scenario : report->scenarios) {
    points += scenario.runs.size();
  }
  std::printf("matrix complete: %zu scenarios, %zu points, "
              "bit-identity %s\n",
              report->scenarios.size(), points,
              report->AllBitIdentical() ? "clean" : "VIOLATED (bug!)");
  return report->AllBitIdentical() ? 0 : 1;
}

}  // namespace
}  // namespace smm::bench

int main(int argc, char** argv) { return smm::bench::Main(argc, argv); }
