#include "qpwm/core/adversarial.h"

#include <algorithm>

#include "qpwm/util/check.h"
#include "qpwm/util/parallel.h"

namespace qpwm {
namespace {

// Adapts a base scheme (LocalScheme or TreeScheme) to PairCarrier.
template <typename Scheme>
class SchemeCarrier : public PairCarrier {
 public:
  explicit SchemeCarrier(const Scheme& base) : base_(&base) {}
  void Apply(const BitVec& expanded_mark, WeightMap& weights,
             PairEncoding encoding) const override {
    base_->ApplyMark(expanded_mark, weights, encoding);
  }
  const WitnessPlan& witness_plan() const override {
    return base_->witness_plan();
  }
  std::vector<Weight> SlotWeights(const WeightMap& weights) const override {
    return base_->SlotWeights(weights);
  }

 private:
  const Scheme* base_;
};

}  // namespace

AdversarialScheme::AdversarialScheme(std::unique_ptr<PairCarrier> carrier,
                                     size_t redundancy)
    : carrier_(std::move(carrier)), redundancy_(redundancy) {
  QPWM_CHECK_GE(redundancy, 1u);
  capacity_ = carrier_->witness_plan().num_pairs / redundancy_;
}

AdversarialScheme::AdversarialScheme(const LocalScheme& base, size_t redundancy)
    : AdversarialScheme(std::make_unique<SchemeCarrier<LocalScheme>>(base),
                        redundancy) {}

AdversarialScheme::AdversarialScheme(const TreeScheme& base, size_t redundancy)
    : AdversarialScheme(std::make_unique<SchemeCarrier<TreeScheme>>(base),
                        redundancy) {}

WeightMap AdversarialScheme::Embed(const WeightMap& original,
                                   const BitVec& message) const {
  QPWM_CHECK_EQ(message.size(), capacity_);
  // Expand the message over the pair groups; pairs beyond the last full
  // group carry a fixed 0 and are ignored by the detector.
  BitVec expanded(carrier_->witness_plan().num_pairs);
  for (size_t j = 0; j < capacity_; ++j) {
    for (size_t k = 0; k < redundancy_; ++k) {
      expanded.Set(j * redundancy_ + k, message.Get(j));
    }
  }
  WeightMap out = original;
  carrier_->Apply(expanded, out, PairEncoding::kAntipodal);
  return out;
}

Result<AdversarialDetection> AdversarialScheme::Detect(
    const WeightMap& original, const AnswerServer& suspect) const {
  DetectScratch scratch;
  return DecodeVotes(ReadPairs(carrier_->witness_plan(),
                               carrier_->SlotWeights(original), suspect, scratch));
}

AdversarialDetection AdversarialScheme::DecodeVotes(
    const std::vector<PairObservation>& observations) const {
  AdversarialDetection out;
  out.mark = BitVec(capacity_);
  out.margins.resize(capacity_);
  out.vote_diffs.resize(capacity_);
  out.votes_cast.resize(capacity_);
  out.group_sizes.resize(capacity_);
  out.bit_erased.resize(capacity_);
  out.min_margin = capacity_ == 0 ? 0.0 : 1.0;
  for (size_t j = 0; j < capacity_; ++j) {
    int votes_one = 0;
    int votes_zero = 0;
    uint32_t surviving = 0;
    for (size_t k = 0; k < redundancy_; ++k) {
      const PairObservation& obs = observations[j * redundancy_ + k];
      if (obs.erased) {
        // The pair's elements are gone from the suspect (structural attack):
        // abstain and shrink the group — never fabricate a 0-delta vote.
        ++out.pairs_erased;
        continue;
      }
      ++surviving;
      if (obs.delta > 0) {
        ++votes_one;
      } else if (obs.delta < 0) {
        ++votes_zero;
      }
      // delta == 0: the attacker neutralized this pair; abstain (but the
      // pair is still present, so it stays in the margin denominator).
    }
    out.group_sizes[j] = surviving;
    out.vote_diffs[j] = votes_one - votes_zero;
    out.votes_cast[j] = static_cast<uint32_t>(votes_one + votes_zero);
    if (surviving == 0) {
      out.bit_erased[j] = true;
      ++out.bits_erased;
      out.mark.Set(j, false);
      out.margins[j] = 0.0;
      continue;
    }
    ++out.bits_recovered;
    out.mark.Set(j, votes_one >= votes_zero);
    out.margins[j] =
        static_cast<double>(std::abs(votes_one - votes_zero)) / surviving;
    out.min_margin = std::min(out.min_margin, out.margins[j]);
  }
  if (out.bits_recovered == 0) out.min_margin = 0.0;
  return out;
}

std::vector<AdversarialDetection> AdversarialScheme::DetectMany(
    const WeightMap& original,
    const std::vector<const AnswerServer*>& suspects) const {
  for (const AnswerServer* s : suspects) QPWM_CHECK(s != nullptr);
  // Each suspect's detection is independent; per-suspect results land in
  // per-index slots, so the fan-out is bit-identical to the serial loop for
  // any thread count. The original slot weights are gathered once and shared
  // read-only; the per-suspect working memory — answer batches, stamp
  // tables, observation lists — comes from a scratch pool, so blocks reuse
  // warm buffers instead of reallocating per suspect.
  const WitnessPlan& plan = carrier_->witness_plan();
  const std::vector<Weight> originals = carrier_->SlotWeights(original);
  ScratchPool<DetectScratch> pool;
  std::vector<AdversarialDetection> out(suspects.size());
  ParallelBlocks<int>(suspects.size(), [&](size_t begin, size_t end) {
    std::unique_ptr<DetectScratch> scratch = pool.Acquire();
    for (size_t i = begin; i < end; ++i) {
      out[i] = DecodeVotes(ReadPairs(plan, originals, *suspects[i], *scratch));
    }
    pool.Release(std::move(scratch));
    return 0;
  });
  return out;
}

}  // namespace qpwm
