// Tests for the runtime tuning layer (common/tuning.h): tuning.json
// round-trip and strict parse rejection, the DefaultTileRows fallback when
// no calibration is loaded, the SIMD dispatch-crossover hook, and the
// load-bearing guarantee that makes the whole layer safe — tile sizing is
// a pure performance knob, so any calibrated value produces bit-identical
// encodings and sums at any thread count.
#include "common/tuning.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "common/simd.h"
#include "mechanisms/distributed_mechanism.h"
#include "mechanisms/smm_mechanism.h"
#include "secagg/secure_aggregator.h"
#include "secagg/session.h"
#include "secagg/transport.h"

namespace smm {
namespace {

class TuningTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetRuntimeTuningForTest(); }
  void TearDown() override { ResetRuntimeTuningForTest(); }
};

TEST_F(TuningTest, JsonRoundTrip) {
  RuntimeTuning tuning;
  tuning.tile_rows_per_thread = 48;
  tuning.threads_per_session = 6;
  tuning.simd_crossover = {{"add_mod", 512}, {"wht_butterfly", 0}};

  const std::string json = RuntimeTuningToJson(tuning);
  auto parsed = ParseRuntimeTuning(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->tile_rows_per_thread, 48u);
  EXPECT_EQ(parsed->threads_per_session, 6);
  ASSERT_EQ(parsed->simd_crossover.size(), 2u);
  EXPECT_EQ(parsed->simd_crossover[0].first, "add_mod");
  EXPECT_EQ(parsed->simd_crossover[0].second, 512u);
  EXPECT_EQ(parsed->simd_crossover[1].first, "wht_butterfly");
  EXPECT_EQ(parsed->simd_crossover[1].second, 0u);
}

TEST_F(TuningTest, EmptyCrossoverRoundTrips) {
  const std::string json = RuntimeTuningToJson(RuntimeTuning());
  auto parsed = ParseRuntimeTuning(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->tile_rows_per_thread, kTileRowsPerThread);
  EXPECT_EQ(parsed->threads_per_session, 0);
  EXPECT_TRUE(parsed->simd_crossover.empty());
}

TEST_F(TuningTest, ParseRejectsMalformedInput) {
  const char* cases[] = {
      "",                                        // Not an object.
      "[]",                                      // Wrong top-level type.
      "{\"tile_rows_per_thread\": 8}",           // Missing schema_version.
      "{\"schema_version\": 99}",                // Unsupported version.
      "{\"schema_version\": 1,",                 // Truncated.
      "{\"schema_version\": 1} trailing",        // Trailing content.
      "{\"schema_version\": 1, \"bogus\": 3}",   // Unknown field.
      "{\"schema_version\": 1, \"tile_rows_per_thread\": 0}",   // Domain.
      "{\"schema_version\": 1, \"tile_rows_per_thread\": 1.5}", // Float.
      "{\"schema_version\": 1, \"threads_per_session\": -1}",   // Domain.
      "{\"schema_version\": 1, \"threads_per_session\": 5000}", // Domain.
      "{\"schema_version\": 1, \"shard_count\": 4}",  // Unknown field.
      "{\"schema_version\": 1, \"simd_crossover\": 3}",  // Not an object.
      "{\"schema_version\": 1, \"simd_crossover\": {\"nope\": 1}}",
      "{\"schema_version\": 1, \"simd_crossover\": {\"add_mod\": -4}}",
  };
  for (const char* json : cases) {
    auto parsed = ParseRuntimeTuning(json);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << json;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << json;
    }
  }
}

TEST_F(TuningTest, DefaultsFallBackToDefaultTileRows) {
  for (const int threads : {1, 2, 8}) {
    EXPECT_EQ(TunedTileRows(threads), DefaultTileRows(threads));
  }
  EXPECT_EQ(TunedTileRowsPerThread(), kTileRowsPerThread);
  EXPECT_EQ(TunedSessionThreads(), ThreadPool::HardwareThreads());
}

TEST_F(TuningTest, SetRuntimeTuningInstallsAndResets) {
  RuntimeTuning tuning;
  tuning.tile_rows_per_thread = 7;
  tuning.threads_per_session = 3;
  tuning.simd_crossover = {{"add_mod", 1024}};
  SetRuntimeTuning(tuning);
  EXPECT_EQ(TunedTileRows(2), 14u);
  EXPECT_EQ(TunedSessionThreads(), 3);
  EXPECT_EQ(simd::DispatchCrossover(simd::KernelId::kAddMod), 1024u);
  // Below the crossover the scalar table serves the call; above it the
  // active table does. Either way the result is bit-identical, so the
  // crossover is purely a dispatch decision.
  EXPECT_STREQ(simd::ForLength(simd::KernelId::kAddMod, 512).name, "scalar");

  ResetRuntimeTuningForTest();
  EXPECT_EQ(TunedTileRows(2), DefaultTileRows(2));
  EXPECT_EQ(simd::DispatchCrossover(simd::KernelId::kAddMod), 0u);
}

TEST_F(TuningTest, LoadFromMissingFileReturnsNotFound) {
  const Status status =
      LoadRuntimeTuningFromFile("/nonexistent/tuning.json");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  // A failed load must leave the defaults in place.
  EXPECT_EQ(TunedTileRowsPerThread(), kTileRowsPerThread);
}

// ---------------------------------------------------------------------------
// The semantic guarantee behind the tuning layer: tile sizing never affects
// results. Calibrated-vs-default tile_rows must produce bit-identical
// encodings and session sums at every thread count.
// ---------------------------------------------------------------------------

std::vector<std::vector<uint64_t>> EncodeWithTuning(size_t tile_rows,
                                                    int threads) {
  RuntimeTuning tuning;
  tuning.tile_rows_per_thread = tile_rows;
  SetRuntimeTuning(tuning);

  mechanisms::SmmMechanism::Options o;
  o.dim = 256;
  o.gamma = 64.0;
  o.c = 4096.0;
  o.delta_inf = 64.0;
  o.lambda = 2.0;
  o.modulus = 1 << 16;
  o.rotation_seed = 99;
  auto mech = mechanisms::SmmMechanism::Create(o);
  EXPECT_TRUE(mech.ok());

  RandomGenerator input_rng(17);
  std::vector<std::vector<double>> inputs(12, std::vector<double>(o.dim));
  for (auto& x : inputs) {
    for (auto& v : x) v = input_rng.Gaussian(0.0, 0.01);
  }
  RandomGenerator rng(4242);
  std::vector<RandomGenerator> streams =
      MakeParticipantStreams(rng, inputs.size());
  ThreadPool pool(threads);
  auto encoded =
      mechanisms::EncodeBatchParallel(**mech, inputs, streams, &pool);
  EXPECT_TRUE(encoded.ok());
  return *std::move(encoded);
}

TEST_F(TuningTest, EncodeBitIdenticalAcrossTileRowsAndThreads) {
  const auto reference = EncodeWithTuning(kTileRowsPerThread, 1);
  for (const size_t tile_rows : {size_t{1}, size_t{5}, size_t{128}}) {
    for (const int threads : {1, 2, 8}) {
      EXPECT_EQ(EncodeWithTuning(tile_rows, threads), reference)
          << "tile_rows=" << tile_rows << " threads=" << threads;
    }
  }
}

std::vector<uint64_t> SessionSumWithTuning(size_t tile_rows, int threads) {
  RuntimeTuning tuning;
  tuning.tile_rows_per_thread = tile_rows;
  SetRuntimeTuning(tuning);

  const size_t dim = 32;
  const uint64_t m = 1 << 16;
  secagg::IdealAggregator aggregator;
  ThreadPool pool(threads);
  secagg::AggregationSession::Options options;
  options.dim = dim;
  options.modulus = m;
  options.pool = &pool;
  options.tile_rows = TunedTileRows(threads);
  auto session = secagg::AggregationSession::Open(aggregator, options);
  EXPECT_TRUE(session.ok());

  secagg::InMemoryTransport loopback;
  secagg::FrameTransport& transport = loopback;
  RandomGenerator rng(37);
  for (int p = 0; p < 20; ++p) {
    secagg::ContributionMsg msg;
    msg.participant_id = p;
    msg.modulus = m;
    msg.payload.resize(dim);
    for (auto& v : msg.payload) v = rng.UniformUint64(m);
    auto frame = secagg::EncodeFrame(msg);
    EXPECT_TRUE(frame.ok());
    EXPECT_TRUE(transport.Send(p, std::move(*frame)).ok());
  }
  EXPECT_TRUE((*session)->DrainTransport(transport).ok());
  auto finalized = (*session)->Finalize();
  EXPECT_TRUE(finalized.ok());
  return std::move(finalized->sum);
}

TEST_F(TuningTest, SessionSumBitIdenticalAcrossTileRowsAndThreads) {
  const auto reference = SessionSumWithTuning(kTileRowsPerThread, 1);
  for (const size_t tile_rows : {size_t{1}, size_t{3}, size_t{64}}) {
    for (const int threads : {1, 2, 8}) {
      EXPECT_EQ(SessionSumWithTuning(tile_rows, threads), reference)
          << "tile_rows=" << tile_rows << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace smm
