#include "span_recorder.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::Buffer& SpanRecorder::ThreadBuffer() {
  // One cached buffer per thread and recorder; registration is the only
  // locked step, so recording itself never contends.
  struct Cache {
    const SpanRecorder* owner = nullptr;
    Buffer* buffer = nullptr;
  };
  thread_local Cache cache;
  if (cache.owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->thread = static_cast<int>(buffers_.size()) - 1;
    buffers_.back()->spans.reserve(1024);
    cache.owner = this;
    cache.buffer = buffers_.back().get();
  }
  return *cache.buffer;
}

void SpanRecorder::Record(uint64_t id, const char* name, uint64_t round,
                          uint64_t parent, int64_t start_ns, int64_t end_ns,
                          bool is_round) {
  Buffer& buffer = ThreadBuffer();
  Span span;
  span.id = id;
  span.parent = parent;
  span.round = round;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.thread = buffer.thread;
  span.is_round = is_round;
  buffer.spans.push_back(span);
}

std::vector<Span> SpanRecorder::Collect() const {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
  }
  std::stable_sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

void SpanRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buffer : buffers_) buffer->spans.clear();
}

SpanRecorder& Recorder() {
  static SpanRecorder* recorder = new SpanRecorder();
  return *recorder;
}

double Breakdown::SelfSum() const {
  double sum = 0.0;
  for (const auto& [name, totals] : by_name) sum += totals.self_ns;
  return sum;
}

double Breakdown::TotalNs(const std::string& name) const {
  auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second.total_ns;
}

namespace {

/// Adds one round's self times to `out`.
void AddRound(const std::vector<const Span*>& spans, Breakdown& out) {
  const Span* root = nullptr;
  int64_t lo = 0;
  int64_t hi = 0;
  bool have_hull = false;
  for (const Span* s : spans) {
    if (s->is_round && root == nullptr) root = s;
    if (!have_hull) {
      lo = s->start_ns;
      hi = s->end_ns;
      have_hull = true;
    } else {
      lo = std::min(lo, s->start_ns);
      hi = std::max(hi, s->end_ns);
    }
  }
  if (root != nullptr) {
    lo = root->start_ns;
    hi = root->end_ns;
  }
  if (hi <= lo) return;

  // The round's other spans, clipped to its wall interval.
  struct Clipped {
    const Span* span;
    int64_t start;
    int64_t end;
    int parent = -1;  // Index into `inner`, or -1.
  };
  std::vector<Clipped> inner;
  for (const Span* s : spans) {
    if (s == root || s->is_round) continue;
    const int64_t start = std::max(s->start_ns, lo);
    const int64_t end = std::min(s->end_ns, hi);
    if (end <= start) continue;
    inner.push_back({s, start, end});
    out.by_name[s->name].total_ns += static_cast<double>(end - start);
    ++out.by_name[s->name].count;
  }
  std::unordered_map<uint64_t, int> index;
  for (size_t i = 0; i < inner.size(); ++i) {
    index[inner[i].span->id] = static_cast<int>(i);
  }
  for (auto& c : inner) {
    auto it = index.find(c.span->parent);
    if (it != index.end()) c.parent = it->second;
  }

  std::vector<int64_t> times = {lo, hi};
  for (const auto& c : inner) {
    times.push_back(c.start);
    times.push_back(c.end);
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());

  // Sweep the elementary intervals: each goes to the active spans that have
  // no active descendant, split equally, or to the unattributed remainder.
  std::vector<char> active(inner.size());
  std::vector<char> covered(inner.size());
  std::vector<int> leaves;
  for (size_t t = 0; t + 1 < times.size(); ++t) {
    const int64_t a = times[t];
    const int64_t b = times[t + 1];
    bool any = false;
    for (size_t i = 0; i < inner.size(); ++i) {
      active[i] = inner[i].start <= a && inner[i].end >= b;
      covered[i] = 0;
      any = any || active[i];
    }
    const double len = static_cast<double>(b - a);
    if (!any) {
      out.unattributed_ns += len;
      continue;
    }
    for (size_t i = 0; i < inner.size(); ++i) {
      if (!active[i]) continue;
      for (int p = inner[i].parent; p >= 0 && !covered[static_cast<size_t>(p)];
           p = inner[static_cast<size_t>(p)].parent) {
        covered[static_cast<size_t>(p)] = 1;
      }
    }
    leaves.clear();
    for (size_t i = 0; i < inner.size(); ++i) {
      if (active[i] && !covered[i]) leaves.push_back(static_cast<int>(i));
    }
    const double share = len / static_cast<double>(leaves.size());
    for (int i : leaves) {
      out.by_name[inner[static_cast<size_t>(i)].span->name].self_ns += share;
    }
  }
  out.wall_ns += static_cast<double>(hi - lo);
  ++out.rounds;
}

}  // namespace

Breakdown ComputeBreakdown(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<const Span*>> rounds;
  for (const Span& s : spans) rounds[s.round].push_back(&s);
  Breakdown out;
  for (const auto& [round, members] : rounds) AddRound(members, out);
  return out;
}

bool WriteJsonLines(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"round\":%llu,\"name\":\"%s\","
                 "\"thread\":%d,\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"round_span\":%s}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.round), s.name, s.thread,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 s.is_round ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
