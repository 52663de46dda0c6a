// Thread-count invariance of the parallel masked-aggregation paths: mask
// expansion sharded over pairs, and the masked stream's tile absorb
// (sharded over survivors) plus Finalize-time dropout recovery (sharded
// over recovery pairs), must all be bit-identical to the sequential path
// for every thread count — and the stream must equal the plain sum of the
// survivors' unmasked inputs.
//
// SMM_THREADS (when set to a positive integer) adds an extra thread count to
// every invariance sweep, so the sanitizer CI jobs exercise the same tests
// at their configured concurrency.
#include "secagg/secure_aggregator.h"

#include <vector>

#include <gtest/gtest.h>

#include "aggregation_test_util.h"
#include "common/parallel.h"

namespace smm::secagg {
namespace {

using test_util::AllIds;
using test_util::MaskAll;
using test_util::PlainSum;
using test_util::RandomInputs;
using test_util::StreamSum;
using test_util::ThreadCounts;

MaskedAggregator::Options BasicOptions(int n, int threshold) {
  MaskedAggregator::Options o;
  o.num_participants = n;
  o.threshold = threshold;
  o.session_seed = 33;
  return o;
}

TEST(MaskedAggregatorParallelTest, MaskInputIsThreadCountInvariant) {
  const int n = 10;
  auto agg = MaskedAggregator::Create(BasicOptions(n, 4));
  ASSERT_TRUE(agg.ok());
  const uint64_t m = 1 << 16;
  const size_t dim = 257;  // Deliberately not a multiple of the chunk count.
  const auto inputs = RandomInputs(n, dim, m, 11);
  for (int i = 0; i < n; ++i) {
    auto sequential = (*agg)->MaskInput(i, inputs[static_cast<size_t>(i)], m);
    ASSERT_TRUE(sequential.ok());
    for (int threads : ThreadCounts()) {
      ThreadPool pool(threads);
      auto parallel =
          (*agg)->MaskInput(i, inputs[static_cast<size_t>(i)], m, &pool);
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(*sequential, *parallel)
          << "participant " << i << " at " << threads << " threads";
    }
  }
}

TEST(MaskedAggregatorParallelTest,
     StreamWithDropoutsIsThreadCountInvariant) {
  const int n = 9;
  auto agg = MaskedAggregator::Create(BasicOptions(n, 4));
  ASSERT_TRUE(agg.ok());
  const uint64_t m = 1 << 14;
  const size_t dim = 65;
  const auto inputs = RandomInputs(n, dim, m, 12);

  // Participants 1, 3, 5, 7 drop out after masking is configured.
  const std::vector<int> survivors = {0, 2, 4, 6, 8};
  auto masked = MaskAll(**agg, survivors, inputs, m);
  ASSERT_TRUE(masked.ok());
  const auto expected = PlainSum(inputs, survivors, m);
  for (int threads : ThreadCounts()) {
    ThreadPool pool(threads);
    auto parallel = StreamSum(**agg, dim, m, survivors, *masked, &pool);
    ASSERT_TRUE(parallel.ok()) << threads << " threads";
    EXPECT_EQ(*parallel, expected) << threads << " threads";
  }
}

TEST(MaskedAggregatorParallelTest, FullRoundIsThreadCountInvariant) {
  // Masking and absorption both on the pool, everyone survives.
  const int n = 12;
  auto agg = MaskedAggregator::Create(BasicOptions(n, 6));
  ASSERT_TRUE(agg.ok());
  const uint64_t m = 1 << 18;
  const size_t dim = 96;
  const auto inputs = RandomInputs(n, dim, m, 13);
  const auto expected = PlainSum(inputs, m);
  for (int threads : ThreadCounts()) {
    ThreadPool pool(threads);
    auto masked = MaskAll(**agg, AllIds(n), inputs, m, &pool);
    ASSERT_TRUE(masked.ok()) << threads << " threads";
    auto parallel = StreamSum(**agg, dim, m, AllIds(n), *masked, &pool);
    ASSERT_TRUE(parallel.ok()) << threads << " threads";
    EXPECT_EQ(*parallel, expected) << threads << " threads";
  }
}

TEST(MaskedAggregatorParallelTest, ParallelErrorsStillPropagate) {
  auto agg = MaskedAggregator::Create(BasicOptions(5, 4));
  ASSERT_TRUE(agg.ok());
  const uint64_t m = 256;
  ThreadPool pool(4);
  // Below the Shamir threshold: must fail identically in parallel mode.
  std::vector<std::vector<uint64_t>> masked(2, std::vector<uint64_t>(4, 0));
  EXPECT_FALSE(StreamSum(**agg, 4, m, {0, 1}, masked, &pool).ok());
  // Dimension mismatch among masked inputs.
  std::vector<std::vector<uint64_t>> ragged(4, std::vector<uint64_t>(4, 0));
  ragged[2].resize(3);
  EXPECT_FALSE(StreamSum(**agg, 4, m, {0, 1, 2, 3}, ragged, &pool).ok());
}

}  // namespace
}  // namespace smm::secagg
