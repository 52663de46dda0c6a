#include "common/tuning.h"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>

namespace smm {

namespace {

// ---------------------------------------------------------------------------
// A strict recursive-descent parser for the tiny JSON subset tuning.json
// uses: one object of string keys mapping to non-negative integers or to one
// nested object of string -> integer. No arrays, floats, booleans, nulls, or
// escapes — a calibration artifact never needs them, and rejecting the rest
// keeps a hand-edited file from silently half-loading.
// ---------------------------------------------------------------------------

class MiniJsonParser {
 public:
  explicit MiniJsonParser(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  void SkipWs() {
    while (p_ < end_ && std::isspace(static_cast<unsigned char>(*p_))) ++p_;
  }

  bool Consume(char c) {
    SkipWs();
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  bool AtEnd() {
    SkipWs();
    return p_ == end_;
  }

  StatusOr<std::string> ParseString() {
    SkipWs();
    if (p_ == end_ || *p_ != '"') {
      return InvalidArgumentError("tuning.json: expected a string");
    }
    ++p_;
    std::string out;
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\') {
        return InvalidArgumentError(
            "tuning.json: string escapes are not supported");
      }
      out.push_back(*p_++);
    }
    if (p_ == end_) {
      return InvalidArgumentError("tuning.json: unterminated string");
    }
    ++p_;  // Closing quote.
    return out;
  }

  StatusOr<int64_t> ParseInt() {
    SkipWs();
    const char* start = p_;
    if (p_ < end_ && *p_ == '-') ++p_;
    const char* digits = p_;
    while (p_ < end_ && std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    if (p_ == digits) {
      return InvalidArgumentError("tuning.json: expected an integer");
    }
    if (p_ < end_ && (*p_ == '.' || *p_ == 'e' || *p_ == 'E')) {
      return InvalidArgumentError(
          "tuning.json: fractional values are not supported");
    }
    errno = 0;
    char* parse_end = nullptr;
    const long long v = std::strtoll(std::string(start, p_).c_str(),
                                     &parse_end, 10);
    if (errno == ERANGE) {
      return InvalidArgumentError("tuning.json: integer out of range");
    }
    return static_cast<int64_t>(v);
  }

 private:
  const char* p_;
  const char* end_;
};

// ---------------------------------------------------------------------------
// Process-wide tuning state. The full struct lives behind a mutex (cold
// accessors copy it); the two per-round knobs are mirrored into relaxed
// atomics so TunedTileRows / TunedSessionThreads stay lock-free on the hot
// paths.
// ---------------------------------------------------------------------------

std::mutex g_tuning_mu;
RuntimeTuning& GlobalTuning() {
  static RuntimeTuning* tuning = new RuntimeTuning();
  return *tuning;
}
std::atomic<size_t> g_tile_rows_per_thread{kTileRowsPerThread};
std::atomic<int> g_threads_per_session{0};
std::atomic<bool> g_env_checked{false};

/// Installs `tuning` into the globals. Caller holds g_tuning_mu.
void ApplyTuningLocked(const RuntimeTuning& tuning) {
  GlobalTuning() = tuning;
  g_tile_rows_per_thread.store(tuning.tile_rows_per_thread,
                               std::memory_order_relaxed);
  g_threads_per_session.store(tuning.threads_per_session,
                              std::memory_order_relaxed);
  // Zero every kernel's crossover, then set the calibrated ones, so a
  // reload never leaves a stale entry from the previous tuning behind.
  for (int i = 0; i < simd::kNumKernelIds; ++i) {
    simd::SetDispatchCrossover(static_cast<simd::KernelId>(i), 0);
  }
  for (const auto& [name, length] : tuning.simd_crossover) {
    simd::KernelId id;
    if (simd::KernelIdFromName(name.c_str(), &id)) {
      simd::SetDispatchCrossover(id, length);
    }
  }
}

Status LoadFromFileLocked(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return NotFoundError("cannot open tuning file: " + path);
  }
  std::ostringstream text;
  text << file.rdbuf();
  SMM_ASSIGN_OR_RETURN(RuntimeTuning tuning, ParseRuntimeTuning(text.str()));
  tuning.source = path;
  ApplyTuningLocked(tuning);
  return OkStatus();
}

/// One-time SMM_TUNING check. A broken tuning file must not kill the
/// process — calibration output is a perf hint, never a correctness input —
/// so a failed load keeps the defaults and reports once.
void EnsureEnvChecked() {
  if (g_env_checked.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(g_tuning_mu);
  if (g_env_checked.load(std::memory_order_relaxed)) return;
  const char* path = std::getenv("SMM_TUNING");
  if (path != nullptr && *path != '\0') {
    const Status status = LoadFromFileLocked(path);
    if (!status.ok()) {
      std::fprintf(stderr,
                   "SMM_TUNING ignored, using built-in defaults: %s\n",
                   status.ToString().c_str());
    }
  }
  g_env_checked.store(true, std::memory_order_release);
}

}  // namespace

std::string RuntimeTuningToJson(const RuntimeTuning& tuning) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema_version\": " << RuntimeTuning::kSchemaVersion << ",\n";
  out << "  \"tile_rows_per_thread\": " << tuning.tile_rows_per_thread
      << ",\n";
  out << "  \"threads_per_session\": " << tuning.threads_per_session << ",\n";
  out << "  \"simd_crossover\": {";
  for (size_t i = 0; i < tuning.simd_crossover.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\n    \""
        << tuning.simd_crossover[i].first
        << "\": " << tuning.simd_crossover[i].second;
  }
  out << (tuning.simd_crossover.empty() ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

StatusOr<RuntimeTuning> ParseRuntimeTuning(const std::string& json) {
  MiniJsonParser parser(json);
  if (!parser.Consume('{')) {
    return InvalidArgumentError("tuning.json: expected a top-level object");
  }
  RuntimeTuning tuning;
  bool saw_schema_version = false;
  bool first = true;
  while (!parser.Consume('}')) {
    if (!first && !parser.Consume(',')) {
      return InvalidArgumentError("tuning.json: expected ',' or '}'");
    }
    first = false;
    SMM_ASSIGN_OR_RETURN(const std::string key, parser.ParseString());
    if (!parser.Consume(':')) {
      return InvalidArgumentError("tuning.json: expected ':' after \"" + key +
                                  "\"");
    }
    if (key == "schema_version") {
      SMM_ASSIGN_OR_RETURN(const int64_t v, parser.ParseInt());
      if (v != RuntimeTuning::kSchemaVersion) {
        return InvalidArgumentError(
            "tuning.json: unsupported schema_version " + std::to_string(v));
      }
      saw_schema_version = true;
    } else if (key == "tile_rows_per_thread") {
      SMM_ASSIGN_OR_RETURN(const int64_t v, parser.ParseInt());
      if (v < 1 || v > (int64_t{1} << 20)) {
        return InvalidArgumentError(
            "tuning.json: tile_rows_per_thread out of domain [1, 2^20]");
      }
      tuning.tile_rows_per_thread = static_cast<size_t>(v);
    } else if (key == "threads_per_session") {
      SMM_ASSIGN_OR_RETURN(const int64_t v, parser.ParseInt());
      if (v < 0 || v > 4096) {
        return InvalidArgumentError(
            "tuning.json: threads_per_session out of domain [0, 4096]");
      }
      tuning.threads_per_session = static_cast<int>(v);
    } else if (key == "simd_crossover") {
      if (!parser.Consume('{')) {
        return InvalidArgumentError(
            "tuning.json: simd_crossover must be an object");
      }
      bool first_kernel = true;
      while (!parser.Consume('}')) {
        if (!first_kernel && !parser.Consume(',')) {
          return InvalidArgumentError(
              "tuning.json: expected ',' or '}' in simd_crossover");
        }
        first_kernel = false;
        SMM_ASSIGN_OR_RETURN(const std::string kernel, parser.ParseString());
        simd::KernelId id;
        if (!simd::KernelIdFromName(kernel.c_str(), &id)) {
          return InvalidArgumentError(
              "tuning.json: unknown simd_crossover kernel \"" + kernel +
              "\"");
        }
        if (!parser.Consume(':')) {
          return InvalidArgumentError(
              "tuning.json: expected ':' after kernel \"" + kernel + "\"");
        }
        SMM_ASSIGN_OR_RETURN(const int64_t v, parser.ParseInt());
        if (v < 0 || v > (int64_t{1} << 30)) {
          return InvalidArgumentError(
              "tuning.json: crossover for \"" + kernel +
              "\" out of domain [0, 2^30]");
        }
        tuning.simd_crossover.emplace_back(kernel,
                                           static_cast<size_t>(v));
      }
    } else {
      return InvalidArgumentError("tuning.json: unknown field \"" + key +
                                  "\"");
    }
  }
  if (!parser.AtEnd()) {
    return InvalidArgumentError(
        "tuning.json: trailing content after the top-level object");
  }
  if (!saw_schema_version) {
    return InvalidArgumentError("tuning.json: missing schema_version");
  }
  return tuning;
}

RuntimeTuning GetRuntimeTuning() {
  EnsureEnvChecked();
  std::lock_guard<std::mutex> lock(g_tuning_mu);
  return GlobalTuning();
}

void SetRuntimeTuning(const RuntimeTuning& tuning) {
  std::lock_guard<std::mutex> lock(g_tuning_mu);
  ApplyTuningLocked(tuning);
  // An explicit install wins over (and suppresses) the lazy env load.
  g_env_checked.store(true, std::memory_order_release);
}

Status LoadRuntimeTuningFromFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_tuning_mu);
  SMM_RETURN_IF_ERROR(LoadFromFileLocked(path));
  g_env_checked.store(true, std::memory_order_release);
  return OkStatus();
}

void ResetRuntimeTuningForTest() {
  std::lock_guard<std::mutex> lock(g_tuning_mu);
  ApplyTuningLocked(RuntimeTuning());
  g_env_checked.store(false, std::memory_order_release);
}

size_t TunedTileRows(int num_threads) {
  EnsureEnvChecked();
  const size_t per_thread =
      g_tile_rows_per_thread.load(std::memory_order_relaxed);
  return per_thread * static_cast<size_t>(num_threads < 1 ? 1 : num_threads);
}

size_t TunedTileRowsPerThread() {
  EnsureEnvChecked();
  return g_tile_rows_per_thread.load(std::memory_order_relaxed);
}

int TunedSessionThreads() {
  EnsureEnvChecked();
  const int threads = g_threads_per_session.load(std::memory_order_relaxed);
  return threads > 0 ? threads : ThreadPool::HardwareThreads();
}

}  // namespace smm
