// Isolated per-layer measurements for the traced runs: single calls into a
// layer timed outside every round, at the shape the round uses. They are
// labelled isolated and left out of the self-time sum.
#ifndef PERFBENCH_ISOLATED_H_
#define PERFBENCH_ISOLATED_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "workloads.h"

namespace perfbench {

/// sampling::SkellamSampler::SampleBlock at `lambda`, one thread.
double SkellamNsPerDraw(double lambda);

/// transform::FastWalshHadamardBatch over `rows` x `dim`, on `pool`.
double WhtNsPerCoord(size_t rows, size_t dim, ThreadPool* pool);

struct FrameCodecCost {
  double encode_ns_per_coord = 0.0;
  double decode_ns_per_coord = 0.0;
};
/// secagg::DecodeFrame on each of `frames`, and secagg::EncodeFrame on the
/// decoded messages, per payload coordinate.
FrameCodecCost MeasureFrameCodec(const std::vector<std::vector<uint8_t>>& frames);

}  // namespace perfbench

#endif  // PERFBENCH_ISOLATED_H_
