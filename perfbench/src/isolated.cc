#include "isolated.h"

#include <string>
#include <variant>

#include "common/random.h"
#include "sampling/noise_sampler.h"
#include "secagg/transport.h"
#include "transform/walsh_hadamard.h"

namespace perfbench {
namespace {

constexpr double kMinSeconds = 0.25;

/// Calls `op` until kMinSeconds have passed; returns seconds per call.
template <typename Op>
double SecondsPerCall(Op op) {
  op();  // Untimed first call: allocation and first-touch.
  int calls = 0;
  const double start = NowSeconds();
  double elapsed = 0.0;
  do {
    op();
    ++calls;
    elapsed = NowSeconds() - start;
  } while (elapsed < kMinSeconds);
  return elapsed / calls;
}

}  // namespace

double SkellamNsPerDraw(double lambda) {
  auto sampler = sampling::SkellamSampler::Create(lambda);
  if (!sampler.ok()) return 0.0;
  constexpr size_t kBlock = 65536;
  std::vector<int64_t> out(kBlock);
  RandomGenerator rng(12345);
  int64_t sink = 0;
  const double s = SecondsPerCall([&] {
    sampler->SampleBlock(kBlock, out.data(), rng);
    sink += out[kBlock / 2];
  });
  volatile int64_t keep = sink;
  (void)keep;
  return s * 1e9 / kBlock;
}

double WhtNsPerCoord(size_t rows, size_t dim, ThreadPool* pool) {
  if (rows == 0 || dim == 0) return 0.0;
  std::vector<double> data(rows * dim);
  RandomGenerator rng(54321);
  for (double& x : data) x = rng.UniformDouble() - 0.5;
  bool ok = true;
  const double s = SecondsPerCall([&] {
    ok = ok &&
         transform::FastWalshHadamardBatch(data.data(), rows, dim, pool).ok();
  });
  return ok ? s * 1e9 / static_cast<double>(rows * dim) : 0.0;
}

FrameCodecCost MeasureFrameCodec(
    const std::vector<std::vector<uint8_t>>& frames) {
  FrameCodecCost cost;
  std::vector<secagg::WireMessage> messages;
  size_t coords = 0;
  for (const auto& frame : frames) {
    auto decoded = secagg::DecodeFrame(smm::ByteSpan(frame.data(), frame.size()));
    if (!decoded.ok()) return cost;
    std::visit(
        [&](const auto& msg) {
          using T = std::decay_t<decltype(msg)>;
          if constexpr (std::is_same_v<T, secagg::ContributionMsg>) {
            coords += msg.payload.size();
          } else if constexpr (std::is_same_v<T, secagg::SumMsg> ||
                               std::is_same_v<T, secagg::PartialSumMsg>) {
            coords += msg.sum.size();
          }
        },
        *decoded);
    messages.push_back(std::move(*decoded));
  }
  if (coords == 0) return cost;
  bool ok = true;
  const double decode_s = SecondsPerCall([&] {
    for (const auto& frame : frames) {
      ok = ok && secagg::DecodeFrame(smm::ByteSpan(frame.data(), frame.size())).ok();
    }
  });
  const double encode_s = SecondsPerCall([&] {
    for (const auto& msg : messages) {
      std::visit([&](const auto& m) { ok = ok && secagg::EncodeFrame(m).ok(); },
                 msg);
    }
  });
  if (!ok) return cost;
  cost.decode_ns_per_coord = decode_s * 1e9 / static_cast<double>(coords);
  cost.encode_ns_per_coord = encode_s * 1e9 / static_cast<double>(coords);
  return cost;
}

}  // namespace perfbench
