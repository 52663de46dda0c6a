// fl_train_smm: fl::FederatedTrainer::Train with SMM on the MNIST-shaped
// synthetic task at the paper's size: a 784-80-10 MLP (d = 63,610, padded
// to 65,536), 60,000 one-record participants, expected |B| = 240, m = 2^8,
// gamma = 64, epsilon = 3, delta = 1e-5, the trainer's own IdealAggregator.
// Each timed operation is one Train() call: one round, calibrated for one
// round, ending in the final evaluation on a 2,000-example test split. Calls
// continue training the same model.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "accounting/calibration.h"
#include "accounting/mechanism_rdp.h"
#include "common/bit_util.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/tuning.h"
#include "data/synthetic.h"
#include "fl/trainer.h"
#include "isolated.h"
#include "mechanisms/clipping.h"
#include "mechanisms/distributed_mechanism.h"
#include "mechanisms/smm_mechanism.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "secagg/secure_aggregator.h"
#include "span_recorder.h"
#include "steal_monitor.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kFeatures = 784;
constexpr int kHidden = 80;
constexpr int kTrain = 60000;
constexpr int kTest = 2000;
constexpr int kBatch = 240;
constexpr int kSetupRepeats = 5;
/// Rounds whose participants the traced replay can run.
constexpr int kMaxTracedRounds = 40;

fl::FlConfig MakeConfig(uint64_t seed) {
  fl::FlConfig config;
  config.mechanism = fl::MechanismKind::kSmm;
  config.epsilon = 3.0;
  config.delta = 1e-5;
  config.expected_batch_size = kBatch;
  config.rounds = 1;
  config.gamma = 64.0;
  config.modulus = 256;
  config.learning_rate = 0.005;
  config.seed = DeriveSeed(seed, 11);
  config.num_threads = BenchThreads();
  config.eval_every = 0;  // Final evaluation only.
  return config;
}

/// Draws the next round's Poisson sample from `rng` and consumes the
/// per-tile participant streams, exactly as one trainer round uses its
/// generator.
std::vector<size_t> SampleRound(RandomGenerator& rng, size_t train_size,
                                double q, size_t tile_size) {
  std::vector<size_t> participants;
  for (size_t i = 0; i < train_size; ++i) {
    if (rng.Bernoulli(q)) participants.push_back(i);
  }
  for (size_t b = 0; b < participants.size(); b += tile_size) {
    MakeParticipantStreams(rng, std::min(tile_size, participants.size() - b));
  }
  return participants;
}

/// Replays trainer rounds through the public calls Train() makes.
struct Replay {
  fl::FlConfig config;
  nn::Mlp model;
  nn::AdamOptimizer optimizer;
  RandomGenerator rng;
  std::unique_ptr<mechanisms::SmmMechanism> mechanism;
  secagg::IdealAggregator aggregator;
  std::unique_ptr<ThreadPool> pool;
  size_t padded_dim = 0;
  double q = 0.0;
  /// Participants' examples, per round, in participant order.
  std::vector<std::vector<data::Example>> examples;

  Replay(const fl::FlConfig& c, nn::Mlp m)
      : config(c),
        model(std::move(m)),
        optimizer(c.learning_rate),
        rng(c.seed) {}
};

/// Builds the replay's mechanism exactly as FederatedTrainer::Calibrate
/// does. `traced` records the CalibrateSmm span in round 0.
smm::Status BuildMechanism(Replay& r, bool traced) {
  const double c = r.config.gamma * r.config.gamma * r.config.l2_clip *
                   r.config.l2_clip;
  const int64_t t0 = NowNs();
  SMM_ASSIGN_OR_RETURN(auto calib,
                       accounting::CalibrateSmm(c, r.q, r.config.rounds,
                                                r.config.epsilon,
                                                r.config.delta));
  if (traced) {
    Recorder().Record(Recorder().NewId(), "accounting.CalibrateSmm", 0, 0,
                      t0, NowNs());
  }
  mechanisms::SmmMechanism::Options options;
  options.dim = r.padded_dim;
  options.gamma = r.config.gamma;
  options.c = c;
  options.delta_inf = accounting::SmmMaxDeltaInf(calib.noise_parameter,
                                                 calib.guarantee.best_alpha);
  options.lambda = calib.noise_parameter / r.config.expected_batch_size;
  options.modulus = r.config.modulus;
  options.rotation_seed = r.config.seed ^ 0x5eedULL;
  options.sampler_mode = r.config.sampler_mode;
  SMM_ASSIGN_OR_RETURN(r.mechanism, mechanisms::SmmMechanism::Create(options));
  return smm::OkStatus();
}

struct ReplayOutput {
  size_t participants = 0;
  /// The decoded sum and the exact sum of the clipped, padded gradients
  /// (filled only when asked for).
  std::vector<double> decoded;
  std::vector<double> exact;
};

/// One trainer round (Poisson sample, AggregateRound, optimizer step) with
/// a span around each call into a layer. `evaluate` is the production
/// trainer, whose EvaluateMetrics the replay times as the round's final
/// evaluation (its model is the replay's, as checked bit for bit).
smm::Status ReplayRound(Replay& r, size_t round_index, uint64_t round_id,
                        const fl::FederatedTrainer* evaluate, bool want_sums,
                        ReplayOutput* out) {
  ScopedSpan round_span("round", round_id, 0, /*is_round=*/true);
  const uint64_t root = round_span.id();
  const std::vector<data::Example>& examples = r.examples[round_index];
  // Train()'s Poisson sample; the examples it picks were copied at set-up.
  size_t count = 0;
  for (size_t i = 0; i < kTrain; ++i) count += r.rng.Bernoulli(r.q) ? 1 : 0;
  if (count != examples.size()) {
    return smm::InternalError("replay drew a different Poisson sample");
  }
  const size_t model_dim = r.model.num_parameters();
  const int threads = r.pool != nullptr ? r.pool->num_threads() : 1;
  const size_t tile_size = TunedTileRows(threads);
  const uint64_t m = r.mechanism->modulus();

  std::unique_ptr<secagg::StreamingAggregator> stream;
  {
    ScopedSpan span("secagg.IdealAggregator::Open", round_id, root);
    SMM_ASSIGN_OR_RETURN(stream,
                         r.aggregator.Open(r.padded_dim, m, r.pool.get()));
  }
  if (want_sums) out->exact.assign(r.padded_dim, 0.0);
  std::vector<std::vector<double>> gradients;
  std::vector<int> tile_ids;
  for (size_t tile_begin = 0; tile_begin < count; tile_begin += tile_size) {
    const size_t tile_end = std::min(count, tile_begin + tile_size);
    const size_t tile_count = tile_end - tile_begin;
    gradients.assign(tile_count, {});
    {
      ScopedSpan span("nn.ComputeLossAndGradient+L2Clip", round_id, root);
      const auto compute = [&](size_t t) {
        const data::Example& e = examples[tile_begin + t];
        nn::Mlp::LossAndGrad lg =
            r.model.ComputeLossAndGradient(e.features, e.label);
        mechanisms::L2Clip(lg.grad, r.config.l2_clip);
        gradients[t] = std::move(lg.grad);
      };
      if (r.pool != nullptr) {
        r.pool->ParallelFor(tile_count, [&](int, size_t b, size_t e) {
          for (size_t t = b; t < e; ++t) compute(t);
        });
      } else {
        for (size_t t = 0; t < tile_count; ++t) compute(t);
      }
    }
    for (auto& g : gradients) g.resize(r.padded_dim, 0.0);
    if (want_sums) {
      for (const auto& g : gradients) {
        for (size_t j = 0; j < r.padded_dim; ++j) out->exact[j] += g[j];
      }
    }
    std::vector<RandomGenerator> streams =
        MakeParticipantStreams(r.rng, tile_count);
    std::vector<std::vector<uint64_t>> encoded;
    {
      ScopedSpan span("mechanisms.EncodeBatchParallel", round_id, root);
      SMM_ASSIGN_OR_RETURN(encoded,
                           mechanisms::EncodeBatchParallel(
                               *r.mechanism, gradients, streams, r.pool.get()));
    }
    tile_ids.resize(tile_count);
    for (size_t t = 0; t < tile_count; ++t) {
      tile_ids[t] = static_cast<int>(tile_begin + t);
    }
    ScopedSpan span("secagg.StreamingAggregator::AbsorbTile", round_id, root);
    SMM_RETURN_IF_ERROR(stream->AbsorbTile(tile_ids, encoded));
  }
  std::vector<uint64_t> zm_sum;
  {
    ScopedSpan span("secagg.StreamingAggregator::Finalize", round_id, root);
    SMM_ASSIGN_OR_RETURN(zm_sum, stream->Finalize());
  }
  std::vector<double> decoded;
  {
    ScopedSpan span("mechanisms.DecodeSum", round_id, root);
    SMM_ASSIGN_OR_RETURN(decoded, r.mechanism->DecodeSum(
                                      zm_sum, static_cast<int>(count)));
  }
  std::vector<double> sum(decoded.begin(),
                          decoded.begin() + static_cast<long>(model_dim));
  const double scale = 1.0 / static_cast<double>(r.config.expected_batch_size);
  for (double& v : sum) v *= scale;
  {
    ScopedSpan span("nn.Optimizer::Step", round_id, root);
    SMM_RETURN_IF_ERROR(r.optimizer.Step(r.model.mutable_parameters(), sum));
  }
  if (evaluate != nullptr) {
    ScopedSpan span("nn.EvaluateMetrics", round_id, root);
    (void)evaluate->EvaluateMetrics();
  }
  out->participants = count;
  if (want_sums) out->decoded = std::move(decoded);
  return smm::OkStatus();
}

struct FlSetup {
  std::unique_ptr<fl::FederatedTrainer> trainer;
  std::unique_ptr<Replay> replay;
};

/// Generates the data, copies the examples the first `replay_rounds`
/// rounds sample, and creates the trainer. Only data generation and
/// trainer creation count toward `*setup_s`.
smm::StatusOr<FlSetup> Setup(uint64_t seed, int replay_rounds, bool traced,
                             double* setup_s) {
  const fl::FlConfig config = MakeConfig(seed);
  const double t0 = NowSeconds();
  const int64_t t0_ns = NowNs();
  data::SyntheticImageOptions data_options = data::MnistLikeOptions();
  data_options.num_train = kTrain;
  data_options.num_test = kTest;
  data_options.feature_dim = kFeatures;
  data_options.seed = DeriveSeed(seed, 12);
  SMM_ASSIGN_OR_RETURN(auto split, data::MakeSyntheticImages(data_options));
  if (traced) {
    Recorder().Record(Recorder().NewId(), "data.MakeSyntheticImages", 0, 0,
                      t0_ns, NowNs());
  }
  nn::Mlp::Options model_options;
  model_options.input_dim = kFeatures;
  model_options.hidden_dims = {kHidden};
  model_options.num_classes = split.train.num_classes;
  model_options.init_seed = DeriveSeed(seed, 13);
  SMM_ASSIGN_OR_RETURN(auto model, nn::Mlp::Create(model_options));
  const double t_data = NowSeconds() - t0;

  FlSetup s;
  s.replay = std::make_unique<Replay>(config, model);
  Replay& r = *s.replay;
  r.padded_dim = NextPowerOfTwo(model.num_parameters());
  r.q = static_cast<double>(kBatch) / kTrain;
  const int threads = config.num_threads;
  if (threads > 1) r.pool = std::make_unique<ThreadPool>(threads);
  RandomGenerator sampler(config.seed);
  const size_t tile_size = TunedTileRows(threads);
  for (int round = 0; round < replay_rounds; ++round) {
    std::vector<data::Example> examples;
    for (size_t i : SampleRound(sampler, kTrain, r.q, tile_size)) {
      examples.push_back(split.train.examples[i]);
    }
    r.examples.push_back(std::move(examples));
  }

  const double t1 = NowSeconds();
  SMM_ASSIGN_OR_RETURN(s.trainer, fl::FederatedTrainer::Create(
                                      std::move(model), std::move(split.train),
                                      std::move(split.test), config));
  *setup_s = t_data + (NowSeconds() - t1);
  SMM_RETURN_IF_ERROR(BuildMechanism(r, traced));
  return s;
}

/// The output checks of one Train() call.
std::string CheckTraining(const fl::TrainingResult& t,
                          const fl::FederatedTrainer& trainer) {
  if (!(t.guarantee.epsilon <= 3.0)) return "guarantee.epsilon > 3";
  if (t.failed_rounds != 0) return "failed_rounds != 0";
  if (t.total_overflows != 0) return "total_overflows != 0 (m = 2^8 wrapped)";
  for (double p : trainer.model().parameters()) {
    if (!std::isfinite(p)) return "non-finite model parameter";
  }
  return "";
}

}  // namespace

Result RunFlTrainSmm(const Args& args) {
  Result result;
  const int replay_rounds = args.trace ? kMaxTracedRounds : 1;
  std::vector<double> setup_times;
  FlSetup s;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupRepeats); ++rep) {
    s = FlSetup();  // Free the previous set-up first.
    double setup_s = 0.0;
    auto built = Setup(args.seed, replay_rounds, args.trace, &setup_s);
    if (!built.ok()) {
      result.Fail("set-up: " + built.status().ToString());
      return result;
    }
    setup_times.push_back(setup_s);
    s = std::move(*built);
  }
  Replay& r = *s.replay;
  fl::FederatedTrainer& trainer = *s.trainer;
  // Set-up spans (round 0), kept apart from the rounds' breakdown.
  const std::vector<Span> setup_spans = Recorder().Collect();
  Recorder().Clear();
  const double lambda = r.mechanism->options().lambda;

  // One production Train() call, timed and checked.
  auto train_call = [&]() -> double {
    const double t0 = NowSeconds();
    auto t = trainer.Train();
    const double elapsed = NowSeconds() - t0;
    ++result.attempted;
    if (!t.ok()) {
      ++result.failed;
      result.Fail("Train(): " + t.status().ToString());
      return -1.0;
    }
    const std::string problem = CheckTraining(*t, trainer);
    if (!problem.empty()) {
      ++result.failed;
      result.Fail(problem);
      return -1.0;
    }
    return elapsed;
  };

  if (!args.trace) {
    // Warm-up; the first call's model is the reference the untimed replay
    // of round 1 must reproduce.
    std::vector<double> reference;
    std::vector<double> warm_times;
    const double warm_s = WarmUp(
        [&]() -> double {
          const double t = train_call();
          if (reference.empty()) reference = trainer.model().parameters();
          if (t >= 0.0) warm_times.push_back(t);
          return t;
        },
        1.0, 5.0);
    if (!result.correct) return result;
    const int warm_calls = static_cast<int>(warm_times.size());
    result.Note("warm-up " + std::to_string(warm_s) + " s over " +
                std::to_string(warm_calls) + " calls; first " +
                std::to_string(warm_times.front()) + " s, last " +
                std::to_string(warm_times.back()) + " s");
    result.attempted = 0;  // Warm-up calls are not part of the measurement.

    StealMonitor steal;
    std::vector<double> times;
    std::vector<std::pair<int64_t, int64_t>> intervals;
    const double start = NowSeconds();
    do {
      const int64_t t0 = NowNs();
      const double t = train_call();
      if (t >= 0.0) {
        times.push_back(t);
        intervals.emplace_back(t0, NowNs());
      }
    } while (NowSeconds() - start < args.seconds);

    // Participant counts of the timed rounds, from the generator's replay.
    RandomGenerator sampler(r.config.seed);
    const size_t tile_size =
        TunedTileRows(r.pool != nullptr ? r.pool->num_threads() : 1);
    for (int i = 0; i < warm_calls; ++i) {
      SampleRound(sampler, kTrain, r.q, tile_size);
    }
    std::vector<double> rates;
    for (double t : times) {
      const size_t participants =
          SampleRound(sampler, kTrain, r.q, tile_size).size();
      rates.push_back(static_cast<double>(participants) *
                      static_cast<double>(r.padded_dim) / t);
    }

    // Untimed replay of round 1: it must reproduce the first call's model,
    // and its decoded sum gives the per-dimension MSE.
    ReplayOutput out;
    const smm::Status replayed =
        ReplayRound(r, 0, 1, nullptr, /*want_sums=*/true, &out);
    double mse_at_batch = 0.0;
    if (!replayed.ok()) {
      result.Fail("replay: " + replayed.ToString());
    } else if (!SameBits(r.model.parameters(), reference)) {
      result.Fail("REPLAY MISMATCH: round 1 replay differs from Train()");
    } else {
      double mse = 0.0;
      for (size_t j = 0; j < r.padded_dim; ++j) {
        const double e = out.decoded[j] - out.exact[j];
        mse += e * e;
      }
      mse /= static_cast<double>(r.padded_dim);
      const double n = static_cast<double>(out.participants);
      CheckMse(mse, n, lambda, r.config.gamma, r.padded_dim, result);
      // The error grows with the round's Poisson-sampled participant count;
      // the reported value is scaled to the expected batch, so that it
      // moves with the noise, not with the sample size.
      mse_at_batch = mse * kBatch / n;
    }
    const QuietStats q = QuietTimes(steal, intervals, times, rates, result);
    result.Set("setup_s", Median(setup_times));
    result.Set("peak_rss_mb", PeakRssMb());
    result.Set("success_share",
               static_cast<double>(result.attempted - result.failed) /
                   static_cast<double>(std::max<int64_t>(1, result.attempted)));
    result.Set("coords_per_s", q.rate_median);
    result.Set("mse_per_dim", mse_at_batch);
    result.Set("round_p50_ms", q.p50_ms);
    result.Set("capacity_rounds_per_s", q.ops_per_s);
    return result;
  }

  // Traced run: pairs of one production Train() call and the traced replay
  // of the same round, which must leave the same model bits. The first
  // pairs are the warm-up and are dropped from the breakdown.
  std::vector<double> untraced;
  std::vector<double> traced;
  std::vector<size_t> counts;
  int64_t mismatches = 0;
  int64_t replay_faults = 0;
  double warm_s = 0.0;
  bool warm = false;
  std::vector<double> warm_times;
  const double warm_start = NowSeconds();
  double start = warm_start;
  for (size_t round = 0; round < r.examples.size(); ++round) {
    const double u = train_call();
    if (u < 0.0) return result;
    const double t0 = NowSeconds();
    const int64_t faults0 = MinorFaults();
    ReplayOutput out;
    const smm::Status replayed =
        ReplayRound(r, round, round + 1, &trainer, false, &out);
    const double t = NowSeconds() - t0;
    const int64_t faults = MinorFaults() - faults0;
    if (!replayed.ok()) {
      result.Fail("replay: " + replayed.ToString());
      return result;
    }
    if (!SameBits(r.model.parameters(), trainer.model().parameters())) {
      ++mismatches;
    }
    if (!warm) {
      warm_times.push_back(u);
      const size_t k = warm_times.size();
      const bool steady =
          k >= 3 && std::fabs(warm_times[k - 1] - warm_times[k - 3]) <=
                        0.1 * warm_times[k - 2];
      if (steady || NowSeconds() - warm_start >= 5.0) {
        warm = true;
        warm_s = NowSeconds() - warm_start;
        Recorder().Clear();
        start = NowSeconds();
      }
      continue;
    }
    untraced.push_back(u);
    traced.push_back(t);
    replay_faults += faults;
    counts.push_back(out.participants);
    if (NowSeconds() - start >= args.seconds) break;
  }
  result.attempted = static_cast<int64_t>(untraced.size());
  if (untraced.empty()) {
    result.Fail("no traced round after the warm-up");
    return result;
  }
  if (mismatches != 0) {
    result.Fail("REPLAY MISMATCH: the traced replay does not reproduce "
                "Train(); this breakdown is invalid");
  }
  const std::vector<Span> spans = Recorder().Collect();
  if (!args.trace_out.empty() && !WriteJsonLines(spans, args.trace_out)) {
    result.Fail("could not write " + args.trace_out);
  }
  const Breakdown b = ComputeBreakdown(spans);
  AddBreakdownNotes(b, result);
  const double rounds = static_cast<double>(b.rounds);
  double updates = 0.0;
  for (size_t c : counts) updates += static_cast<double>(c);
  const double coords = updates * static_cast<double>(r.padded_dim);
  result.Note("warm-up " + std::to_string(warm_s) + " s over " +
              std::to_string(warm_times.size()) + " pairs; first call " +
              std::to_string(warm_times.front()) + " s, last " +
              std::to_string(warm_times.back()) + " s");
  result.Set("nn.grad_ns_per_update",
             b.TotalNs("nn.ComputeLossAndGradient+L2Clip") / updates);
  result.Set("nn.step_ms", b.TotalNs("nn.Optimizer::Step") / rounds * 1e-6);
  result.Set("nn.eval_s", b.TotalNs("nn.EvaluateMetrics") / rounds * 1e-9);
  result.Set("mechanisms.encode_ns_per_coord",
             b.TotalNs("mechanisms.EncodeBatchParallel") / coords);
  result.Set("mechanisms.decode_ms",
             b.TotalNs("mechanisms.DecodeSum") / rounds * 1e-6);
  result.Set("mechanisms.overflows",
             static_cast<double>(r.mechanism->overflow_count()));
  result.Set("secagg.open_ms",
             b.TotalNs("secagg.IdealAggregator::Open") / rounds * 1e-6);
  result.Set("secagg.absorb_ns_per_coord",
             b.TotalNs("secagg.StreamingAggregator::AbsorbTile") / coords);
  result.Set("secagg.finalize_ms",
             b.TotalNs("secagg.StreamingAggregator::Finalize") / rounds * 1e-6);
  result.Set("data.generate_s",
             SpanSeconds(setup_spans, "data.MakeSyntheticImages"));
  result.Set("accounting.calibrate_s",
             SpanSeconds(setup_spans, "accounting.CalibrateSmm"));
  result.Set("mem.minor_faults_per_round",
             static_cast<double>(replay_faults) / rounds);
  result.Set("gen.warmup_s", warm_s);
  result.Set("e2e.round_p90_ms", Quantile(untraced, 0.9) * 1e3);
  result.Set("trace.rounds", rounds);
  result.Set("trace.unattributed_share", b.unattributed_ns / b.wall_ns);
  result.Set("trace.overhead_share", Median(traced) / Median(untraced) - 1.0);
  result.Set("trace.replay_mismatches", static_cast<double>(mismatches));
  if (r.mechanism->overflow_count() != 0) {
    result.Fail("overflows at m = 2^8");
  }

  result.Set("sampling.skellam_ns_per_draw", SkellamNsPerDraw(lambda));
  result.Set("transform.wht_ns_per_coord",
             WhtNsPerCoord(TunedTileRows(r.pool ? r.pool->num_threads() : 1),
                           r.padded_dim, r.pool.get()));
  return result;
}

}  // namespace perfbench
