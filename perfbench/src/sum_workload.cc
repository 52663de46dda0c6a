// sum_masked_smm: mechanisms::RunDistributedSum at the paper's Figure 1
// size (n = 100 unit-sphere inputs, d = 65,536; subplot (c): m = 2^14,
// gamma = 64, calibrated to epsilon = 3, delta = 1e-5) under the masked
// aggregator (threshold n/2) with 4 shard workers. It is the only workload
// that runs masking, the sharded coordinator and the framed transport
// together.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "accounting/calibration.h"
#include "accounting/mechanism_rdp.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/tuning.h"
#include "data/synthetic.h"
#include "isolated.h"
#include "mechanisms/distributed_mechanism.h"
#include "mechanisms/smm_mechanism.h"
#include "secagg/secure_aggregator.h"
#include "secagg/sharded_coordinator.h"
#include "secagg/transport.h"
#include "span_recorder.h"
#include "steal_monitor.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kParticipants = 100;
constexpr size_t kDim = 65536;
constexpr uint64_t kModulus = uint64_t{1} << 14;
constexpr double kGamma = 64.0;
constexpr double kEpsilon = 3.0;
constexpr double kDelta = 1e-5;
constexpr size_t kShards = 4;
constexpr int kSetupRepeats = 5;

struct SumSetup {
  std::vector<std::vector<double>> inputs;
  mechanisms::SmmMechanism::Options options;
  std::unique_ptr<mechanisms::SmmMechanism> mechanism;
  std::unique_ptr<secagg::MaskedAggregator> aggregator;
  std::unique_ptr<ThreadPool> pool;
};

/// Generates the inputs, calibrates, and builds the mechanism, aggregator
/// and pool. Spans go to round 0 when `traced`.
smm::StatusOr<SumSetup> Setup(uint64_t seed, bool traced) {
  SumSetup s;
  {
    const int64_t t0 = NowNs();
    RandomGenerator data_rng(DeriveSeed(seed, 1));
    s.inputs = data::SampleSphereDataset(kParticipants, kDim, 1.0, data_rng);
    if (traced) {
      Recorder().Record(Recorder().NewId(), "data.SampleSphereDataset", 0, 0,
                        t0, NowNs());
    }
  }
  const double c = kGamma * kGamma;  // gamma^2 * radius^2, radius 1.
  const int64_t t0 = NowNs();
  SMM_ASSIGN_OR_RETURN(auto calib, accounting::CalibrateSmm(
                                       c, 1.0, 1, kEpsilon, kDelta));
  if (traced) {
    Recorder().Record(Recorder().NewId(), "accounting.CalibrateSmm", 0, 0, t0,
                      NowNs());
  }
  s.options.dim = kDim;
  s.options.gamma = kGamma;
  s.options.c = c;
  s.options.delta_inf = accounting::SmmMaxDeltaInf(
      calib.noise_parameter, calib.guarantee.best_alpha);
  s.options.lambda = calib.noise_parameter / kParticipants;
  s.options.modulus = kModulus;
  s.options.rotation_seed = DeriveSeed(seed, 2);
  SMM_ASSIGN_OR_RETURN(s.mechanism,
                       mechanisms::SmmMechanism::Create(s.options));
  secagg::MaskedAggregator::Options agg_options;
  agg_options.num_participants = kParticipants;
  agg_options.threshold = kParticipants / 2;
  agg_options.session_seed = DeriveSeed(seed, 3);
  SMM_ASSIGN_OR_RETURN(s.aggregator,
                       secagg::MaskedAggregator::Create(agg_options));
  const int threads = BenchThreads();
  if (threads > 1) s.pool = std::make_unique<ThreadPool>(threads);
  return s;
}

/// Replays one RunDistributedSum round through the same public calls, with
/// a span around each. `frames_out`, when given, receives participant 0's
/// frames.
smm::StatusOr<std::vector<double>> TracedRound(
    SumSetup& s, uint64_t round_seed, uint64_t round_id,
    size_t* rejected_frames, std::vector<std::vector<uint8_t>>* frames_out) {
  ScopedSpan round_span("round", round_id, 0, /*is_round=*/true);
  const uint64_t root = round_span.id();
  const auto& inputs = s.inputs;
  const int threads = s.pool != nullptr ? s.pool->num_threads() : 1;
  const size_t tile_size = TunedTileRows(threads);

  secagg::ShardedCoordinator::Options round_options;
  round_options.dim = s.mechanism->dim();
  round_options.modulus = s.mechanism->modulus();
  round_options.shard_count = kShards;
  round_options.pool = s.pool.get();
  round_options.tile_rows = tile_size;
  std::unique_ptr<secagg::ShardedCoordinator> coordinator;
  {
    ScopedSpan span("secagg.ShardedCoordinator::Open", round_id, root);
    SMM_ASSIGN_OR_RETURN(coordinator, secagg::ShardedCoordinator::Open(
                                          *s.aggregator, round_options));
  }
  secagg::InMemoryTransport loopback;
  RandomGenerator rng(round_seed);
  std::vector<RandomGenerator> streams =
      MakeParticipantStreams(rng, inputs.size());
  for (size_t tile_begin = 0; tile_begin < inputs.size();
       tile_begin += tile_size) {
    const size_t tile_end = std::min(inputs.size(), tile_begin + tile_size);
    // The whole input set is one tile at the paper's n; a smaller tile
    // (fewer hardware threads) encodes a copy of its rows.
    std::vector<std::vector<double>> tile_copy;
    if (tile_begin != 0 || tile_end != inputs.size()) {
      tile_copy.assign(inputs.begin() + static_cast<long>(tile_begin),
                       inputs.begin() + static_cast<long>(tile_end));
    }
    const auto& tile_inputs = tile_copy.empty() ? inputs : tile_copy;
    std::vector<RandomGenerator> tile_streams(
        streams.begin() + static_cast<long>(tile_begin),
        streams.begin() + static_cast<long>(tile_end));
    std::vector<std::vector<uint64_t>> encoded;
    {
      ScopedSpan span("mechanisms.EncodeBatchParallel", round_id, root);
      SMM_ASSIGN_OR_RETURN(encoded, mechanisms::EncodeBatchParallel(
                                        *s.mechanism, tile_inputs,
                                        tile_streams, s.pool.get()));
    }
    for (size_t t = tile_begin; t < tile_end; ++t) {
      const int participant = static_cast<int>(t);
      std::vector<std::vector<uint8_t>> frames;
      {
        ScopedSpan span("secagg.EncodeShardedContribution", round_id, root);
        SMM_ASSIGN_OR_RETURN(frames, coordinator->EncodeShardedContribution(
                                         participant,
                                         encoded[t - tile_begin]));
      }
      std::vector<uint64_t>().swap(encoded[t - tile_begin]);
      if (t == 0 && frames_out != nullptr) *frames_out = frames;
      ScopedSpan span("secagg.InMemoryTransport::Send", round_id, root);
      for (auto& frame : frames) {
        SMM_RETURN_IF_ERROR(loopback.Send(participant, std::move(frame)));
      }
    }
    ScopedSpan span("secagg.ShardedCoordinator::DrainTransport", round_id,
                    root);
    SMM_RETURN_IF_ERROR(coordinator->DrainTransport(loopback));
  }
  *rejected_frames += coordinator->rejected_frames();
  secagg::SumMsg sum;
  {
    ScopedSpan span("secagg.ShardedCoordinator::Finalize", round_id, root);
    SMM_ASSIGN_OR_RETURN(sum, coordinator->Finalize());
  }
  ScopedSpan span("mechanisms.DecodeSum", round_id, root);
  return s.mechanism->DecodeSum(sum.sum, static_cast<int>(inputs.size()));
}

}  // namespace

Result RunSumMaskedSmm(const Args& args) {
  Result result;
  const uint64_t round_seed = DeriveSeed(args.seed, 4);

  // Set-up, repeated; the last one is kept.
  std::vector<double> setup_times;
  SumSetup s;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupRepeats); ++rep) {
    s = SumSetup();  // Free the previous set-up first.
    const double t0 = NowSeconds();
    auto built = Setup(args.seed, args.trace);
    setup_times.push_back(NowSeconds() - t0);
    if (!built.ok()) {
      result.Fail("set-up: " + built.status().ToString());
      return result;
    }
    s = std::move(*built);
  }

  auto production_round = [&]() {
    RandomGenerator rng(round_seed);
    return mechanisms::RunDistributedSum(*s.mechanism, *s.aggregator,
                                         s.inputs, rng, s.pool.get(),
                                         kShards);
  };

  // Warm-up; its first round is the reference every later round (and the
  // traced replay) must reproduce bit for bit.
  std::vector<double> reference;
  std::vector<double> warm_times;
  bool warm_failed = false;
  const double warm_s = WarmUp(
      [&]() -> double {
        const double t0 = NowSeconds();
        auto out = production_round();
        const double t = NowSeconds() - t0;
        if (!out.ok()) {
          result.Fail("warm-up round: " + out.status().ToString());
          warm_failed = true;
          return -1.0;
        }
        if (reference.empty()) reference = std::move(*out);
        warm_times.push_back(t);
        return t;
      },
      1.0, 4.0);
  if (warm_failed) return result;
  result.Note("warm-up " + std::to_string(warm_s) + " s over " +
              std::to_string(warm_times.size()) + " rounds; first " +
              std::to_string(warm_times.front()) + " s, last " +
              std::to_string(warm_times.back()) + " s");

  // Output check on the reference's per-dimension MSE (see CheckMse).
  auto mse = mechanisms::MeanSquaredErrorPerDimension(reference, s.inputs);
  if (!mse.ok()) {
    result.Fail("mse: " + mse.status().ToString());
    return result;
  }
  const double lambda = s.options.lambda;
  const bool mse_ok =
      CheckMse(*mse, kParticipants, lambda, kGamma, kDim, result);

  if (!args.trace) {
    StealMonitor steal;
    std::vector<double> times;
    std::vector<std::pair<int64_t, int64_t>> intervals;
    const double start = NowSeconds();
    do {
      const int64_t t0 = NowNs();
      auto out = production_round();
      const int64_t t1 = NowNs();
      const double t = static_cast<double>(t1 - t0) * 1e-9;
      ++result.attempted;
      if (!out.ok() || !SameBits(*out, reference) || !mse_ok) {
        ++result.failed;
        result.Fail(out.ok() ? "round output differs from the reference"
                             : "round: " + out.status().ToString());
        continue;
      }
      times.push_back(t);
      intervals.emplace_back(t0, t1);
    } while (NowSeconds() - start < args.seconds);
    std::vector<double> rates;
    for (double t : times) {
      rates.push_back(static_cast<double>(kParticipants) * kDim / t);
    }
    const QuietStats q = QuietTimes(steal, intervals, times, rates, result);
    result.Set("setup_s", Median(setup_times));
    result.Set("peak_rss_mb", PeakRssMb());
    result.Set("success_share",
               static_cast<double>(result.attempted - result.failed) /
                   static_cast<double>(result.attempted));
    result.Set("coords_per_s", q.rate_median);
    result.Set("mse_per_dim", *mse);
    result.Set("round_p50_ms", q.p50_ms);
    result.Set("capacity_rounds_per_s", q.ops_per_s);
    return result;
  }

  // Traced run: alternate an untraced production round with a traced
  // replay of the same round, which must decode to the same bits.
  std::vector<double> untraced;
  std::vector<double> traced;
  size_t rejected = 0;
  int64_t mismatches = 0;
  int64_t replay_faults = 0;
  std::vector<std::vector<uint8_t>> frames;
  const double start = NowSeconds();
  uint64_t round_id = 1;
  do {
    double t0 = NowSeconds();
    auto out = production_round();
    untraced.push_back(NowSeconds() - t0);
    t0 = NowSeconds();
    const int64_t faults0 = MinorFaults();
    auto replay = TracedRound(s, round_seed, round_id++, &rejected, &frames);
    traced.push_back(NowSeconds() - t0);
    replay_faults += MinorFaults() - faults0;
    ++result.attempted;
    if (!out.ok() || !replay.ok() || !SameBits(*out, reference)) {
      ++result.failed;
      result.Fail("traced-run round failed");
      continue;
    }
    if (!SameBits(*replay, reference)) ++mismatches;
  } while (NowSeconds() - start < args.seconds);
  if (mismatches != 0) {
    result.Fail("REPLAY MISMATCH: the traced replay does not reproduce "
                "RunDistributedSum; this breakdown is invalid");
  }
  const std::vector<Span> spans = Recorder().Collect();
  if (!args.trace_out.empty() && !WriteJsonLines(spans, args.trace_out)) {
    result.Fail("could not write " + args.trace_out);
  }

  // One round at K = 1 for comparison (no per-shard aggregator derivation).
  {
    RandomGenerator rng(round_seed);
    const double t0 = NowSeconds();
    auto out = mechanisms::RunDistributedSum(*s.mechanism, *s.aggregator,
                                             s.inputs, rng, s.pool.get(), 1);
    const double t = NowSeconds() - t0;
    if (!out.ok() || !SameBits(*out, reference)) {
      result.Fail("K = 1 round differs from the K = 4 reference");
    }
    result.Note("one round at K = 1: " + std::to_string(t * 1e3) + " ms");
  }

  std::vector<Span> round_spans;
  for (const Span& span : spans) {
    if (span.round != 0) round_spans.push_back(span);
  }
  const Breakdown b = ComputeBreakdown(round_spans);
  const double rounds = static_cast<double>(b.rounds);
  const double coords = rounds * kParticipants * static_cast<double>(kDim);
  AddBreakdownNotes(b, result);
  result.Set("mechanisms.encode_ns_per_coord",
             b.TotalNs("mechanisms.EncodeBatchParallel") / coords);
  result.Set("mechanisms.decode_ms",
             b.TotalNs("mechanisms.DecodeSum") / rounds * 1e-6);
  result.Set("mechanisms.overflows",
             static_cast<double>(s.mechanism->overflow_count()));
  result.Set("secagg.open_ms",
             b.TotalNs("secagg.ShardedCoordinator::Open") / rounds * 1e-6);
  result.Set("secagg.prepare_ns_per_coord",
             b.TotalNs("secagg.EncodeShardedContribution") / coords);
  result.Set("secagg.drain_ns_per_coord",
             b.TotalNs("secagg.ShardedCoordinator::DrainTransport") / coords);
  result.Set("secagg.finalize_ms",
             b.TotalNs("secagg.ShardedCoordinator::Finalize") / rounds * 1e-6);
  result.Set("secagg.frames_rejected", static_cast<double>(rejected));
  result.Set("data.generate_s",
             SpanSeconds(spans, "data.SampleSphereDataset"));
  result.Set("accounting.calibrate_s",
             SpanSeconds(spans, "accounting.CalibrateSmm"));
  result.Set("mem.minor_faults_per_round",
             static_cast<double>(replay_faults) / rounds);
  result.Set("gen.warmup_s", warm_s);
  result.Set("e2e.round_p90_ms", Quantile(untraced, 0.9) * 1e3);
  result.Set("trace.rounds", rounds);
  result.Set("trace.unattributed_share", b.unattributed_ns / b.wall_ns);
  result.Set("trace.overhead_share", Median(traced) / Median(untraced) - 1.0);
  result.Set("trace.replay_mismatches", static_cast<double>(mismatches));
  if (rejected != 0) result.Fail("frames rejected in the replay");

  // Isolated measurements, outside every round.
  result.Set("sampling.skellam_ns_per_draw", SkellamNsPerDraw(lambda));
  const size_t rows = std::min<size_t>(
      kParticipants, TunedTileRows(s.pool ? s.pool->num_threads() : 1));
  result.Set("transform.wht_ns_per_coord",
             WhtNsPerCoord(rows, kDim, s.pool.get()));
  FrameCodecCost codec = MeasureFrameCodec(frames);
  result.Set("secagg.frame_encode_ns_per_coord", codec.encode_ns_per_coord);
  result.Set("secagg.frame_decode_ns_per_coord", codec.decode_ns_per_coord);
  return result;
}

}  // namespace perfbench
