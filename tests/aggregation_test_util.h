// Helpers shared by the secure-aggregation tests: random inputs, the thread
// counts every invariance sweep covers, an independent plaintext reference
// sum, and one-call stream rounds (Open -> AbsorbTile -> Finalize).
#ifndef SMM_TESTS_AGGREGATION_TEST_UTIL_H_
#define SMM_TESTS_AGGREGATION_TEST_UTIL_H_

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/math_util.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/status.h"
#include "secagg/secure_aggregator.h"

namespace smm::secagg::test_util {

/// `n` uniform vectors in Z_m^dim.
inline std::vector<std::vector<uint64_t>> RandomInputs(int n, size_t dim,
                                                       uint64_t m,
                                                       uint64_t seed) {
  RandomGenerator rng(seed);
  std::vector<std::vector<uint64_t>> inputs(static_cast<size_t>(n));
  for (auto& v : inputs) {
    v.resize(dim);
    for (auto& x : v) x = rng.UniformUint64(m);
  }
  return inputs;
}

/// Thread counts every invariance sweep covers: 1, 2, 8, plus SMM_THREADS
/// when the environment sets it to another positive integer (the CI
/// sanitizer jobs export SMM_THREADS=8).
inline std::vector<int> ThreadCounts() {
  std::vector<int> counts = {1, 2, 8};
  const char* env = std::getenv("SMM_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long threads = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && threads > 0 && threads <= 4096 &&
        threads != 1 && threads != 2 && threads != 8) {
      counts.push_back(static_cast<int>(threads));
    }
  }
  return counts;
}

/// {0, 1, ..., n - 1}.
inline std::vector<int> AllIds(int n) {
  std::vector<int> ids(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  return ids;
}

/// The reference every stream is checked against: the element-wise AddMod
/// sum of inputs[id] over `ids`, one coordinate at a time. Shares no code
/// with the streams (no SIMD kernels, no sharding).
inline std::vector<uint64_t> PlainSum(
    const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<int>& ids, uint64_t m) {
  std::vector<uint64_t> sum(inputs[0].size(), 0);
  for (int id : ids) {
    const auto& v = inputs[static_cast<size_t>(id)];
    for (size_t j = 0; j < sum.size(); ++j) sum[j] = AddMod(sum[j], v[j], m);
  }
  return sum;
}

/// PlainSum over every input.
inline std::vector<uint64_t> PlainSum(
    const std::vector<std::vector<uint64_t>>& inputs, uint64_t m) {
  return PlainSum(inputs, AllIds(static_cast<int>(inputs.size())), m);
}

/// Client side of a masked round: masked[k] is participant ids[k]'s masked
/// input.
inline StatusOr<std::vector<std::vector<uint64_t>>> MaskAll(
    const MaskedAggregator& aggregator, const std::vector<int>& ids,
    const std::vector<std::vector<uint64_t>>& inputs, uint64_t m,
    ThreadPool* pool = nullptr) {
  std::vector<std::vector<uint64_t>> masked;
  masked.reserve(ids.size());
  for (int id : ids) {
    SMM_ASSIGN_OR_RETURN(
        auto row,
        aggregator.MaskInput(id, inputs[static_cast<size_t>(id)], m, pool));
    masked.push_back(std::move(row));
  }
  return masked;
}

/// One stream round: Open(dim, m, pool), absorb `rows` (rows[k] belongs to
/// ids[k]) as a single tile, Finalize.
inline StatusOr<std::vector<uint64_t>> StreamSum(
    SecureAggregator& aggregator, size_t dim, uint64_t m,
    const std::vector<int>& ids,
    const std::vector<std::vector<uint64_t>>& rows,
    ThreadPool* pool = nullptr) {
  SMM_ASSIGN_OR_RETURN(auto stream, aggregator.Open(dim, m, pool));
  SMM_RETURN_IF_ERROR(stream->AbsorbTile(ids, rows));
  return stream->Finalize();
}

}  // namespace smm::secagg::test_util

#endif  // SMM_TESTS_AGGREGATION_TEST_UTIL_H_
