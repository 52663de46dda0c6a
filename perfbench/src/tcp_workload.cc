// tcp_rounds: net::AggregationServer sessions under the IdealAggregator on
// loopback TCP. Each round has kContributors contributions of d = 65,536
// residues mod 2^14 (512 KiB frames), framed by
// net::BlockingClient::SendContribution over one connection; the same
// connection then reads the broadcast sum. The payloads are SMM encodings
// made once during set-up, so rounds bypass encode and noise entirely.
//
// A closed-loop phase (every generator thread busy) measures capacity; an
// open-loop phase then schedules rounds at the fixed rate kOpenLoopRate and
// times each from its due time. Event-loop plus generator threads total the
// host's hardware threads, and each generator holds one connection at a
// time.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "accounting/calibration.h"
#include "accounting/mechanism_rdp.h"
#include "common/math_util.h"
#include "common/random.h"
#include "data/synthetic.h"
#include "isolated.h"
#include "mechanisms/distributed_mechanism.h"
#include "mechanisms/smm_mechanism.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket_util.h"
#include "secagg/secure_aggregator.h"
#include "secagg/transport.h"
#include "span_recorder.h"
#include "steal_monitor.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kContributors = 8;
constexpr size_t kDim = 65536;
constexpr uint64_t kModulus = uint64_t{1} << 14;
constexpr double kGamma = 64.0;
/// Distinct payload sets; round i sends set i % kPayloadSets.
constexpr int kPayloadSets = 4;
constexpr int kSetupRepeats = 5;
/// Open-loop arrival rate, rounds per second. A lone round takes ~17 ms on
/// a 4-thread x86-64 host, so at 30/s the system is about half busy
/// (closed-loop capacity there is ~110 rounds/s with 2 rounds in flight).
/// Fixed, so it never follows the program's speed.
constexpr double kOpenLoopRate = 30.0;
/// Open-loop rounds per latency window (see WindowedQuantile).
constexpr size_t kWindowRounds = 50;
/// Length of one closed-loop capacity slice.
constexpr double kSliceSeconds = 0.5;

struct TcpSetup {
  std::vector<std::vector<double>> inputs;  ///< kPayloadSets * kContributors.
  std::unique_ptr<mechanisms::SmmMechanism> mechanism;
  double lambda = 0.0;
  /// messages[set][c]: contributor c's message in payload set `set`.
  std::vector<std::vector<secagg::ContributionMsg>> messages;
  std::vector<std::vector<uint64_t>> expected;  ///< Exact sum per set.
  secagg::IdealAggregator aggregator;
  std::unique_ptr<net::AggregationServer> server;
};

int EventLoopThreads() { return std::max(1, BenchThreads() / 2); }
int GeneratorThreads() {
  return std::max(1, BenchThreads() - EventLoopThreads());
}

smm::StatusOr<std::unique_ptr<TcpSetup>> Setup(uint64_t seed, bool traced) {
  auto s = std::make_unique<TcpSetup>();
  const int n = kPayloadSets * kContributors;
  {
    const int64_t t0 = NowNs();
    RandomGenerator data_rng(DeriveSeed(seed, 21));
    s->inputs = data::SampleSphereDataset(n, kDim, 1.0, data_rng);
    if (traced) {
      Recorder().Record(Recorder().NewId(), "data.SampleSphereDataset", 0, 0,
                        t0, NowNs());
    }
  }
  const double c = kGamma * kGamma;
  const int64_t t0 = NowNs();
  SMM_ASSIGN_OR_RETURN(auto calib,
                       accounting::CalibrateSmm(c, 1.0, 1, 3.0, 1e-5));
  if (traced) {
    Recorder().Record(Recorder().NewId(), "accounting.CalibrateSmm", 0, 0, t0,
                      NowNs());
  }
  mechanisms::SmmMechanism::Options options;
  options.dim = kDim;
  options.gamma = kGamma;
  options.c = c;
  options.delta_inf = accounting::SmmMaxDeltaInf(calib.noise_parameter,
                                                 calib.guarantee.best_alpha);
  options.lambda = calib.noise_parameter / kContributors;
  options.modulus = kModulus;
  options.rotation_seed = DeriveSeed(seed, 22);
  s->lambda = options.lambda;
  SMM_ASSIGN_OR_RETURN(s->mechanism, mechanisms::SmmMechanism::Create(options));
  RandomGenerator rng(DeriveSeed(seed, 23));
  std::vector<RandomGenerator> streams = MakeParticipantStreams(rng, n);
  SMM_ASSIGN_OR_RETURN(auto encoded, mechanisms::EncodeBatchParallel(
                                         *s->mechanism, s->inputs, streams));
  s->messages.resize(kPayloadSets);
  s->expected.assign(kPayloadSets, std::vector<uint64_t>(kDim, 0));
  for (int set = 0; set < kPayloadSets; ++set) {
    for (int c_id = 0; c_id < kContributors; ++c_id) {
      secagg::ContributionMsg msg;
      msg.participant_id = c_id;
      msg.modulus = kModulus;
      msg.payload = std::move(encoded[set * kContributors + c_id]);
      for (size_t j = 0; j < kDim; ++j) {
        s->expected[set][j] =
            AddMod(s->expected[set][j], msg.payload[j], kModulus);
      }
      s->messages[set].push_back(std::move(msg));
    }
  }
  net::AggregationServer::Options server_options;
  server_options.event_loop_threads = EventLoopThreads();
  SMM_ASSIGN_OR_RETURN(s->server, net::AggregationServer::Start(server_options));
  return s;
}

/// One round, run on the calling (generator) thread. Returns the round's
/// completion time, or an error when any call fails or the broadcast sum
/// differs from the exact modular sum. With `round_id` != 0 each call gets
/// a span, under a round span that starts at `due_ns`.
smm::StatusOr<int64_t> RunRound(TcpSetup& s, int set, uint64_t round_id,
                                int64_t due_ns) {
  const bool traced = round_id != 0;
  const uint64_t root = traced ? Recorder().NewId() : 0;
  const int64_t start_ns = NowNs();
  if (traced && start_ns > due_ns) {
    Recorder().Record(Recorder().NewId(), "gen.late", round_id, root, due_ns,
                      start_ns);
  }
  // Times one call as a span of this round when traced.
  auto timed = [&](const char* name, auto&& call) {
    const int64_t t0 = traced ? NowNs() : 0;
    auto out = call();
    if (traced) Recorder().Record(Recorder().NewId(), name, round_id, root,
                                  t0, NowNs());
    return out;
  };

  net::AggregationServer::SessionOptions options;
  options.session.dim = kDim;
  options.session.modulus = kModulus;
  options.expected_contributions = kContributors;
  SMM_ASSIGN_OR_RETURN(
      auto info, timed("net.AggregationServer::OpenSession", [&] {
        return s.server->OpenSession(s.aggregator, options);
      }));
  SMM_ASSIGN_OR_RETURN(auto client,
                       timed("net.BlockingClient::Connect", [&] {
                         return net::BlockingClient::Connect(info.port);
                       }));
  for (const auto& msg : s.messages[static_cast<size_t>(set)]) {
    SMM_RETURN_IF_ERROR(timed("net.BlockingClient::SendContribution",
                              [&] { return client.SendContribution(msg); }));
  }
  SMM_ASSIGN_OR_RETURN(auto sum,
                       timed("net.FinishSending+ReadSum",
                             [&]() -> smm::StatusOr<secagg::SumMsg> {
                               SMM_RETURN_IF_ERROR(client.FinishSending());
                               return client.ReadSum();
                             }));
  SMM_ASSIGN_OR_RETURN(auto server_sum,
                       timed("net.AggregationServer::WaitForSum", [&] {
                         return s.server->WaitForSum(info.id);
                       }));
  const int64_t end_ns = NowNs();
  if (traced) {
    Recorder().Record(root, "round", round_id, 0, std::min(due_ns, start_ns),
                      end_ns, /*is_round=*/true);
  }
  const auto& expected = s.expected[static_cast<size_t>(set)];
  const auto same = [&](const secagg::SumMsg& m) {
    return m.modulus == kModulus && m.num_contributors == kContributors &&
           m.sum.size() == kDim &&
           std::memcmp(m.sum.data(), expected.data(),
                       kDim * sizeof(uint64_t)) == 0;
  };
  if (!same(sum) || !same(server_sum)) {
    return smm::InternalError("broadcast sum differs from the exact sum");
  }
  return end_ns;
}

struct OpenRound {
  int64_t index = 0;  ///< Round number; due at start + index / rate.
  int64_t due_ns = 0;
  int64_t done_ns = 0;
  bool operator<(const OpenRound& o) const { return index < o.index; }
};

struct PhaseStats {
  std::vector<OpenRound> open_rounds;  ///< Open loop, by round number.
  std::vector<double> late_ms;     ///< Open loop: start minus due time.
  int64_t attempted = 0;
  int64_t failed = 0;
  double wall_s = 0.0;
  std::vector<std::string> errors;
};

/// Runs one phase on GeneratorThreads() threads. Closed loop: each thread
/// starts its next round when the previous one ends. Open loop: round i is
/// due at start + i / kOpenLoopRate and goes to thread i % threads.
PhaseStats RunPhase(TcpSetup& s, bool open_loop, double seconds, bool traced,
                    std::atomic<uint64_t>& next_round_id) {
  const int threads = GeneratorThreads();
  std::vector<PhaseStats> per_thread(static_cast<size_t>(threads));
  const int64_t start_ns = NowNs();
  const int64_t end_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  auto worker = [&](int g) {
    PhaseStats& st = per_thread[static_cast<size_t>(g)];
    for (int64_t i = g;; i += threads) {
      int64_t due_ns = NowNs();
      if (open_loop) {
        due_ns = start_ns + static_cast<int64_t>(
                                static_cast<double>(i) / kOpenLoopRate * 1e9);
        if (due_ns >= end_ns) break;
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(
                std::chrono::nanoseconds(due_ns)));
      } else if (due_ns >= end_ns) {
        break;
      }
      const int set = static_cast<int>(i % kPayloadSets);
      const int64_t begin_ns = NowNs();
      const uint64_t round_id =
          traced ? next_round_id.fetch_add(1, std::memory_order_relaxed) : 0;
      auto done = RunRound(s, set, round_id, due_ns);
      ++st.attempted;
      if (!done.ok()) {
        ++st.failed;
        if (st.errors.size() < 3) st.errors.push_back(done.status().ToString());
        continue;
      }
      if (open_loop) {
        st.open_rounds.push_back({i, due_ns, *done});
        st.late_ms.push_back(static_cast<double>(begin_ns - due_ns) * 1e-6);
      }
    }
  };
  std::vector<std::thread> pool;
  for (int g = 0; g < threads; ++g) pool.emplace_back(worker, g);
  for (auto& t : pool) t.join();
  PhaseStats all;
  all.wall_s = static_cast<double>(NowNs() - start_ns) * 1e-9;
  for (auto& st : per_thread) {
    all.open_rounds.insert(all.open_rounds.end(), st.open_rounds.begin(),
                           st.open_rounds.end());
    all.late_ms.insert(all.late_ms.end(), st.late_ms.begin(),
                       st.late_ms.end());
    all.attempted += st.attempted;
    all.failed += st.failed;
    all.errors.insert(all.errors.end(), st.errors.begin(), st.errors.end());
  }
  std::sort(all.open_rounds.begin(), all.open_rounds.end());
  return all;
}

/// The median, over the quieter half (see steal_monitor.h) of consecutive
/// windows of kWindowRounds open-loop rounds in due-time order, of each
/// window's latency quantile q. A host stall that slows a few windows moves
/// it far less than the quantile of all rounds, while a slowdown that
/// touches every window moves both alike.
double WindowedQuantile(const std::vector<OpenRound>& rounds, double q,
                        const StealMonitor& steal) {
  std::vector<std::vector<double>> windows;
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (size_t b = 0; b + kWindowRounds <= rounds.size(); b += kWindowRounds) {
    std::vector<double> latency_ms;
    int64_t first_due = rounds[b].due_ns;
    int64_t last_done = rounds[b].done_ns;
    for (size_t i = b; i < b + kWindowRounds; ++i) {
      latency_ms.push_back(
          static_cast<double>(rounds[i].done_ns - rounds[i].due_ns) * 1e-6);
      first_due = std::min(first_due, rounds[i].due_ns);
      last_done = std::max(last_done, rounds[i].done_ns);
    }
    windows.push_back(std::move(latency_ms));
    intervals.emplace_back(first_due, last_done);
  }
  std::vector<double> per_window;
  for (size_t k : QuietHalf(steal, intervals)) {
    per_window.push_back(Quantile(windows[k], q));
  }
  return Median(per_window);
}

}  // namespace

Result RunTcpRounds(const Args& args) {
  Result result;
  if (!net::NetSupported()) {
    result.Fail("tcp_rounds needs the Linux socket/epoll backend");
    return result;
  }
  std::vector<double> setup_times;
  std::unique_ptr<TcpSetup> s;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupRepeats); ++rep) {
    s.reset();  // Stops the previous server first.
    const double t0 = NowSeconds();
    auto built = Setup(args.seed, args.trace);
    setup_times.push_back(NowSeconds() - t0);
    if (!built.ok()) {
      result.Fail("set-up: " + built.status().ToString());
      return result;
    }
    s = std::move(*built);
  }
  const std::vector<Span> setup_spans = Recorder().Collect();
  Recorder().Clear();
  int64_t frames_sent = 0;
  int64_t rounds_run = 0;

  // Warm-up: short closed-loop slices on every generator thread until the
  // time per round is steady.
  std::atomic<uint64_t> next_round_id{1};
  int warm_slices = 0;
  int64_t warm_rounds = 0;
  bool warm_failed = false;
  const double warm_s = WarmUp(
      [&]() -> double {
        const PhaseStats p = RunPhase(*s, false, 0.25, false, next_round_id);
        ++warm_slices;
        warm_rounds += p.attempted;
        rounds_run += p.attempted;
        frames_sent += p.attempted * kContributors;
        if (p.failed != 0 || p.attempted == 0) {
          result.Fail("warm-up round: " +
                      (p.errors.empty() ? std::string("none completed")
                                        : p.errors.front()));
          warm_failed = true;
          return -1.0;
        }
        return p.wall_s / static_cast<double>(p.attempted);
      },
      1.0, 4.0);
  if (warm_failed) return result;
  result.Note("warm-up " + std::to_string(warm_s) + " s over " +
              std::to_string(warm_rounds) + " rounds in " +
              std::to_string(warm_slices) + " closed-loop slices");
  result.Note("threads: " + std::to_string(EventLoopThreads()) +
              " event loops, " + std::to_string(GeneratorThreads()) +
              " generators; open-loop rate " + std::to_string(kOpenLoopRate) +
              " rounds/s");

  auto account = [&](const PhaseStats& p, const char* phase) {
    result.attempted += p.attempted;
    result.failed += p.failed;
    rounds_run += p.attempted;
    frames_sent += p.attempted * kContributors;
    for (const auto& e : p.errors) result.Fail(std::string(phase) + ": " + e);
  };

  // Closed loop (capacity) for a third of the time, then open loop (latency
  // from due time), whose tail needs the most rounds. The traced run
  // alternates untraced and traced closed-loop slices, so the tracing
  // overhead compares like with like.
  // Untraced runs measure capacity in short slices, ranked by the steal
  // each saw.
  const double closed_s = args.seconds / 3;
  const int slices =
      args.trace ? 4 : std::max(1, static_cast<int>(closed_s / kSliceSeconds));
  StealMonitor steal;
  const int64_t faults0 = MinorFaults();
  PhaseStats closed;
  double rounds_by_kind[2] = {0.0, 0.0};  // [untraced, traced]
  double wall_by_kind[2] = {0.0, 0.0};
  std::vector<double> slice_rates;
  std::vector<std::pair<int64_t, int64_t>> slice_intervals;
  for (int i = 0; i < slices; ++i) {
    const bool traced_slice = args.trace && i % 2 == 1;
    const int64_t t0 = NowNs();
    const PhaseStats p =
        RunPhase(*s, false, closed_s / slices, traced_slice, next_round_id);
    slice_intervals.emplace_back(t0, NowNs());
    slice_rates.push_back(static_cast<double>(p.attempted - p.failed) /
                          p.wall_s);
    account(p, "closed loop");
    rounds_by_kind[traced_slice] += static_cast<double>(p.attempted);
    wall_by_kind[traced_slice] += p.wall_s;
    closed.attempted += p.attempted;
    closed.failed += p.failed;
    closed.wall_s += p.wall_s;
  }
  const PhaseStats open =
      RunPhase(*s, true, args.seconds - closed_s, args.trace, next_round_id);
  account(open, "open loop");
  const int64_t phase_faults = MinorFaults() - faults0;
  std::vector<double> quiet_rates;
  for (size_t k : QuietHalf(steal, slice_intervals)) {
    quiet_rates.push_back(slice_rates[k]);
  }
  const double capacity = Median(quiet_rates);
  result.Note("closed loop: " + std::to_string(closed.attempted) +
              " rounds in " + std::to_string(closed.wall_s) +
              " s; open loop: " + std::to_string(open.attempted) +
              " rounds, lateness p90 " +
              std::to_string(Quantile(open.late_ms, 0.9)) + " ms");

  if (!args.trace) {
    // Utility guard: the broadcast sums (each checked equal to its set's
    // exact modular sum) decode to the sum of the inputs within the Skellam
    // plus rounding variance (see CheckMse).
    std::vector<double> mses;
    for (int set = 0; set < kPayloadSets; ++set) {
      auto decoded = s->mechanism->DecodeSum(
          s->expected[static_cast<size_t>(set)], kContributors);
      std::vector<std::vector<double>> set_inputs(
          s->inputs.begin() + set * kContributors,
          s->inputs.begin() + (set + 1) * kContributors);
      auto mse = decoded.ok() ? mechanisms::MeanSquaredErrorPerDimension(
                                    *decoded, set_inputs)
                              : smm::StatusOr<double>(decoded.status());
      if (!mse.ok()) {
        result.Fail("mse: " + mse.status().ToString());
        continue;
      }
      CheckMse(*mse, kContributors, s->lambda, kGamma, kDim, result);
      mses.push_back(*mse);
    }
    result.Set("setup_s", Median(setup_times));
    result.Set("peak_rss_mb", PeakRssMb());
    result.Set("success_share",
               static_cast<double>(result.attempted - result.failed) /
                   static_cast<double>(std::max<int64_t>(1, result.attempted)));
    result.Set("coords_per_s",
               capacity * kContributors * static_cast<double>(kDim));
    result.Set("mse_per_dim", Median(mses));
    result.Set("round_p50_ms", WindowedQuantile(open.open_rounds, 0.5, steal));
    result.Note("open-loop latency p90 " +
                std::to_string(WindowedQuantile(open.open_rounds, 0.9, steal)) +
                " ms (reported as e2e.round_p90_ms by traced runs)");
    result.Set("capacity_rounds_per_s", capacity);
    return result;
  }

  const std::vector<Span> spans = Recorder().Collect();
  if (!args.trace_out.empty() && !WriteJsonLines(spans, args.trace_out)) {
    result.Fail("could not write " + args.trace_out);
  }
  const Breakdown b = ComputeBreakdown(spans);
  AddBreakdownNotes(b, result);
  const double rounds = static_cast<double>(b.rounds);
  const net::ServerStats stats = s->server->Stats();
  const double all_rounds = static_cast<double>(rounds_run);
  result.Set("net.open_session_us",
             b.TotalNs("net.AggregationServer::OpenSession") / rounds * 1e-3);
  result.Set("net.connect_us",
             b.TotalNs("net.BlockingClient::Connect") / rounds * 1e-3);
  result.Set("net.send_ms",
             b.TotalNs("net.BlockingClient::SendContribution") /
                 (rounds * kContributors) * 1e-6);
  result.Set("net.wait_sum_ms",
             b.TotalNs("net.FinishSending+ReadSum") / rounds * 1e-6);
  result.Set("net.frames_delivered_per_sent",
             static_cast<double>(stats.frames_delivered) /
                 static_cast<double>(frames_sent));
  result.Set("net.bytes_read_per_round",
             static_cast<double>(stats.bytes_read) / all_rounds);
  result.Set("net.bytes_written_per_round",
             static_cast<double>(stats.bytes_written) / all_rounds);
  result.Set("net.connections_dropped",
             static_cast<double>(stats.connections_dropped));
  result.Set("net.sessions_failed", static_cast<double>(stats.sessions_failed));
  result.Set("secagg.frames_rejected",
             static_cast<double>(stats.frames_rejected));
  if (stats.connections_dropped != 0 || stats.sessions_failed != 0 ||
      stats.frames_rejected != 0 ||
      stats.frames_delivered != static_cast<uint64_t>(frames_sent)) {
    result.Fail("server stats show dropped, failed or undelivered work");
  }
  result.Set("mem.minor_faults_per_round",
             static_cast<double>(phase_faults) /
                 static_cast<double>(closed.attempted + open.attempted));
  result.Set("gen.late_ms_p90", Quantile(open.late_ms, 0.9));
  result.Set("gen.warmup_s", warm_s);
  result.Set("e2e.round_p90_ms",
             WindowedQuantile(open.open_rounds, 0.9, steal));
  result.Set("data.generate_s",
             SpanSeconds(setup_spans, "data.SampleSphereDataset"));
  result.Set("accounting.calibrate_s",
             SpanSeconds(setup_spans, "accounting.CalibrateSmm"));
  result.Set("trace.rounds", rounds);
  result.Set("trace.unattributed_share", b.unattributed_ns / b.wall_ns);
  result.Set("trace.overhead_share",
             (rounds_by_kind[0] / wall_by_kind[0]) /
                     (rounds_by_kind[1] / wall_by_kind[1]) -
                 1.0);

  // Isolated: the wire codec on this round's own messages.
  std::vector<std::vector<uint8_t>> frames;
  auto contribution = secagg::EncodeFrame(s->messages[0][0]);
  secagg::SumMsg sum_msg;
  sum_msg.modulus = kModulus;
  sum_msg.num_contributors = kContributors;
  sum_msg.sum = s->expected[0];
  auto sum_frame = secagg::EncodeFrame(sum_msg);
  if (contribution.ok() && sum_frame.ok()) {
    frames.push_back(std::move(*contribution));
    frames.push_back(std::move(*sum_frame));
  }
  const FrameCodecCost codec = MeasureFrameCodec(frames);
  result.Set("secagg.frame_encode_ns_per_coord", codec.encode_ns_per_coord);
  result.Set("secagg.frame_decode_ns_per_coord", codec.decode_ns_per_coord);
  return result;
}

}  // namespace perfbench
