// Unit test of the span recorder's self-time arithmetic. Exits nonzero on
// the first failed check. Build and run:
//   python3 perfbench/run.py --self-test
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "span_recorder.h"

namespace perfbench {
namespace {

int failures = 0;

void ExpectNear(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-9) {
    std::fprintf(stderr, "FAIL %s: got %.6f, want %.6f\n", what, got, want);
    ++failures;
  }
}

Span MakeSpan(uint64_t id, uint64_t parent, uint64_t round, const char* name,
              int64_t start, int64_t end, int thread = 0,
              bool is_round = false) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.round = round;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.thread = thread;
  s.is_round = is_round;
  return s;
}

void ExpectAddsUp(const Breakdown& b, const char* what) {
  ExpectNear(b.SelfSum() + b.unattributed_ns, b.wall_ns, what);
}

void TestNested() {
  // round [0,100): a [10,90) holds b [20,50), which holds c [30,40).
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 7, "round", 0, 100, 0, true),
      MakeSpan(2, 1, 7, "a", 10, 90),
      MakeSpan(3, 2, 7, "b", 20, 50),
      MakeSpan(4, 3, 7, "c", 30, 40),
  };
  const Breakdown b = ComputeBreakdown(spans);
  ExpectNear(b.wall_ns, 100, "nested wall");
  ExpectNear(b.by_name.at("a").self_ns, 50, "nested a self");
  ExpectNear(b.by_name.at("b").self_ns, 20, "nested b self");
  ExpectNear(b.by_name.at("c").self_ns, 10, "nested c self");
  ExpectNear(b.by_name.at("a").total_ns, 80, "nested a total");
  ExpectNear(b.unattributed_ns, 20, "nested unattributed");
  ExpectAddsUp(b, "nested sum");
}

void TestSiblings() {
  // Siblings under one parent, with a gap between them, plus a top-level
  // sibling of the parent; spans of the same name aggregate.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 3, "round", 0, 60, 0, true),
      MakeSpan(2, 1, 3, "p", 0, 40),
      MakeSpan(3, 2, 3, "s", 5, 15),
      MakeSpan(4, 2, 3, "s", 20, 30),
      MakeSpan(5, 1, 3, "q", 45, 55),
  };
  const Breakdown b = ComputeBreakdown(spans);
  ExpectNear(b.by_name.at("p").self_ns, 20, "siblings p self");
  ExpectNear(b.by_name.at("s").self_ns, 20, "siblings s self");
  ExpectNear(b.by_name.at("s").count, 2, "siblings s count");
  ExpectNear(b.by_name.at("q").self_ns, 10, "siblings q self");
  ExpectNear(b.unattributed_ns, 10, "siblings unattributed");
  ExpectAddsUp(b, "siblings sum");
}

void TestThreadsUnderOneRound() {
  // Two generator threads record spans for round 9 through the recorder;
  // they overlap on [30,60), which is split equally between them.
  SpanRecorder recorder;
  const uint64_t root = recorder.NewId();
  recorder.Record(root, "round", 9, 0, 0, 100, true);
  std::thread t1([&] {
    const uint64_t id = recorder.NewId();
    recorder.Record(id, "send", 9, root, 0, 60);
    recorder.Record(recorder.NewId(), "encode", 9, id, 10, 20);
  });
  std::thread t2([&] {
    recorder.Record(recorder.NewId(), "send", 9, root, 30, 90);
  });
  t1.join();
  t2.join();
  // A second round on another thread must not mix into round 9.
  std::thread t3([&] {
    recorder.Record(recorder.NewId(), "send", 10, 0, 40, 50);
  });
  t3.join();
  const std::vector<Span> spans = recorder.Collect();
  if (spans.size() != 5) {
    std::fprintf(stderr, "FAIL threads: collected %zu spans\n", spans.size());
    ++failures;
  }
  std::vector<Span> round9;
  for (const Span& s : spans) {
    if (s.round == 9) round9.push_back(s);
  }
  const Breakdown b = ComputeBreakdown(round9);
  // send: [0,10) + [20,30) alone, [30,60) shared by two, [60,90) alone.
  ExpectNear(b.by_name.at("send").self_ns, 10 + 10 + 30 + 30, "threads send");
  ExpectNear(b.by_name.at("encode").self_ns, 10, "threads encode");
  ExpectNear(b.unattributed_ns, 10, "threads unattributed");
  ExpectAddsUp(b, "threads sum");

  const Breakdown all = ComputeBreakdown(spans);
  ExpectNear(all.rounds, 2, "threads rounds");
  ExpectNear(all.wall_ns, 110, "threads wall over both rounds");
  ExpectAddsUp(all, "threads sum over both rounds");
}

void TestClippingAndHull() {
  // No round span: the wall is the hull of the spans. A child that runs
  // past its round's end is clipped.
  const std::vector<Span> hull = {
      MakeSpan(1, 0, 1, "x", 10, 20),
      MakeSpan(2, 0, 1, "y", 30, 50),
  };
  const Breakdown h = ComputeBreakdown(hull);
  ExpectNear(h.wall_ns, 40, "hull wall");
  ExpectNear(h.unattributed_ns, 10, "hull gap");
  const std::vector<Span> clipped = {
      MakeSpan(1, 0, 2, "round", 0, 10, 0, true),
      MakeSpan(2, 1, 2, "late", 5, 25),
  };
  const Breakdown c = ComputeBreakdown(clipped);
  ExpectNear(c.by_name.at("late").self_ns, 5, "clipped self");
  ExpectAddsUp(c, "clipped sum");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestNested();
  perfbench::TestSiblings();
  perfbench::TestThreadsUnderOneRound();
  perfbench::TestClippingAndHull();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("span_recorder_test: all checks passed\n");
  return 0;
}
