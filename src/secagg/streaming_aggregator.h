#ifndef SMM_SECAGG_STREAMING_AGGREGATOR_H_
#define SMM_SECAGG_STREAMING_AGGREGATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "common/span.h"
#include "common/status.h"

namespace smm::secagg {

/// One in-progress streaming aggregation session over Z_m^dim, opened with
/// SecureAggregator::Open(dim, m). Contributions arrive one participant (or
/// one tile of participants) at a time and are folded into bounded state
/// immediately, so the server never materializes all client vectors at once
/// — the assumption Bonawitz-style secure aggregation and the DDP-SA line
/// of work make for participant counts that exceed memory.
///
///   Open(dim, m) -> Absorb(participant_id, span)* -> Finalize()
///
/// Memory model: the provided implementations hold one O(dim) running sum
/// (plus O(threads·dim) transient partials while a tile is absorbed and an
/// O(num_participants)-bit survivor set for the masked protocol), fully
/// independent of how many participants are absorbed.
///
/// Determinism: all accumulation is exact integer arithmetic mod m, so
/// Finalize() equals the plain element-wise AddMod sum of the absorbed
/// (unmasked) contributions for any thread count, absorb order, and tiling.
///
/// Streams are single-session: after Finalize() every further call fails
/// with FailedPrecondition. Not thread-safe — one caller drives a stream
/// (internally it may shard work across the pool it was opened with).
class StreamingAggregator {
 public:
  virtual ~StreamingAggregator() = default;

  StreamingAggregator(const StreamingAggregator&) = delete;
  StreamingAggregator& operator=(const StreamingAggregator&) = delete;

  virtual size_t dim() const = 0;
  virtual uint64_t modulus() const = 0;
  /// Participants absorbed so far.
  virtual size_t absorbed() const = 0;

  /// Absorbs one participant's contribution (`input.size()` must equal
  /// dim()). Entries need not be pre-reduced; each is reduced once before
  /// the overflow-safe accumulation. Implementations define what
  /// `participant_id` means (the masked protocol requires a valid,
  /// not-yet-absorbed index; the ideal sum ignores it). ConstSpan is
  /// implicitly constructible from std::vector<uint64_t>, so vector-based
  /// callers pass their buffers unchanged.
  virtual Status Absorb(int participant_id, ConstSpan<uint64_t> input) = 0;

  /// Absorbs a tile of participants (inputs[i] belongs to
  /// participant_ids[i]), equivalent to absorbing them one by one in order
  /// but letting implementations shard the tile across the pool. The
  /// default loops Absorb.
  virtual Status AbsorbTile(const std::vector<int>& participant_ids,
                            const std::vector<std::vector<uint64_t>>& inputs);

  /// Completes the session and returns the element-wise sum mod m of every
  /// absorbed contribution (running any deferred protocol work first, e.g.
  /// dropout recovery for the masked protocol). Fails if nothing was
  /// absorbed. The stream is consumed.
  virtual StatusOr<std::vector<uint64_t>> Finalize() = 0;

 protected:
  StreamingAggregator() = default;
};

/// The bounded-memory running-sum core behind both provided aggregators:
/// one O(dim) accumulator updated through overflow-safe AddMod, with tiles
/// sharded across the pool via ShardedModularAccumulate (transient
/// O(threads·dim) partials). Used directly by IdealAggregator::Open;
/// protocol-specific streams (e.g. the masked protocol's) subclass it and
/// override the two hooks.
class RunningSumStream : public StreamingAggregator {
 public:
  /// Requires dim >= 1 and m >= 2 (validated by the Open factories).
  RunningSumStream(size_t dim, uint64_t m, ThreadPool* pool);

  size_t dim() const override { return dim_; }
  uint64_t modulus() const override { return m_; }
  size_t absorbed() const override { return absorbed_; }

  Status Absorb(int participant_id, ConstSpan<uint64_t> input) override;

  Status AbsorbTile(const std::vector<int>& participant_ids,
                    const std::vector<std::vector<uint64_t>>& inputs) override;

  StatusOr<std::vector<uint64_t>> Finalize() override;

 protected:
  /// Admission hook, called once per participant before its data is folded
  /// in. Protocol streams validate/record the id here; the default accepts
  /// everything (the ideal sum has no notion of identity).
  virtual Status AdmitParticipant(int participant_id);

  /// Tile admission hook, called once with the whole tile's ids before any
  /// of its data is folded in. Must be all-or-nothing: on error no id may
  /// remain recorded, so a rejected tile leaves the stream exactly as it
  /// was. The default loops AdmitParticipant — fine only when admission is
  /// infallible; protocol streams with fallible admission must override.
  virtual Status AdmitTile(const std::vector<int>& participant_ids);

  /// Finalize hook, called once with the running sum before it is returned.
  /// Protocol streams run deferred work here (e.g. dropout recovery); the
  /// default is a no-op.
  virtual Status FinalizeInto(std::vector<uint64_t>& sum);

  ThreadPool* pool() const { return pool_; }

 private:
  Status CheckOpen() const;

  size_t dim_;
  uint64_t m_;
  ThreadPool* pool_;
  std::vector<uint64_t> sum_;
  size_t absorbed_ = 0;
  bool finalized_ = false;
};

}  // namespace smm::secagg

#endif  // SMM_SECAGG_STREAMING_AGGREGATOR_H_
