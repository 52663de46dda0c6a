// Span recorder for the benchmark's traced runs.
//
// A span is a named [start, end) interval recorded around one call into a
// layer of the program. Each span carries the id of the span that caused it
// (its parent, possibly on another thread) and the id of the round it
// belongs to. Spans are appended to a buffer owned by the recording thread,
// so recording takes no lock; Collect() merges the buffers once the traced
// phase is over, and WriteJsonLines() exports them when the benchmark ends.
//
// ComputeBreakdown() turns a round's spans into self times. A span's self
// time is its duration minus the part of it that its descendants cover.
// When several spans with no running descendant are active at once (on
// different threads), that instant is split equally between them, so the
// self times of a round plus its unattributed time (instants where no span
// runs) add up exactly to the round's wall time. For single-threaded nesting
// this is the plain "duration minus children" rule.
#ifndef PERFBENCH_SPAN_RECORDER_H_
#define PERFBENCH_SPAN_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0: no parent.
  uint64_t round = 0;   ///< Round id; spans of one round share it.
  const char* name = "";  ///< A string literal.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int thread = 0;  ///< Recording thread, numbered in registration order.
  /// A round span: it defines its round's wall interval, and its own
  /// uncovered time counts as unattributed rather than as self time.
  bool is_round = false;
};

class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Reserves a span id ahead of recording, so children recorded on other
  /// threads can name a parent that has not finished yet.
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  /// Appends a span, under an id from NewId(), to the calling thread's
  /// buffer.
  void Record(uint64_t id, const char* name, uint64_t round, uint64_t parent,
              int64_t start_ns, int64_t end_ns, bool is_round = false);

  /// Every span recorded so far, ordered by start time. Call only while no
  /// thread is recording.
  std::vector<Span> Collect() const;
  /// Discards every recorded span.
  void Clear();

 private:
  struct Buffer {
    int thread = 0;
    std::vector<Span> spans;
  };
  Buffer& ThreadBuffer();

  mutable std::mutex mu_;  // Guards buffers_ (registration and Collect).
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::atomic<uint64_t> next_id_{1};
};

/// The process-wide recorder the benchmark's traced replays write to.
SpanRecorder& Recorder();

/// Times one scope and records it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t round, uint64_t parent = 0,
             bool is_round = false)
      : name_(name),
        round_(round),
        parent_(parent),
        is_round_(is_round),
        id_(Recorder().NewId()),
        start_ns_(NowNs()) {}
  ~ScopedSpan() {
    Recorder().Record(id_, name_, round_, parent_, start_ns_, NowNs(),
                      is_round_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  const char* name_;
  uint64_t round_;
  uint64_t parent_;
  bool is_round_;
  uint64_t id_;
  int64_t start_ns_;
};

struct NameTotals {
  double self_ns = 0.0;
  double total_ns = 0.0;  ///< Sum of durations.
  int64_t count = 0;
};

struct Breakdown {
  std::map<std::string, NameTotals> by_name;  ///< Round spans excluded.
  double wall_ns = 0.0;          ///< Sum of the rounds' wall intervals.
  double unattributed_ns = 0.0;  ///< Wall time no span's self time covers.
  size_t rounds = 0;
  double SelfSum() const;
  /// Summed duration of the spans named `name`; 0 when there are none.
  double TotalNs(const std::string& name) const;
};

/// Self-time breakdown of every round among `spans`. A round's wall
/// interval is its round span when it has one, else the hull of its spans;
/// spans are clipped to that interval.
Breakdown ComputeBreakdown(const std::vector<Span>& spans);

/// Writes one JSON object per span, one per line. Returns false on an I/O
/// error.
bool WriteJsonLines(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_RECORDER_H_
