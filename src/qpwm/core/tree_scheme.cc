#include "qpwm/core/tree_scheme.h"

#include <algorithm>
#include <optional>

#include "qpwm/tree/query.h"
#include "qpwm/util/check.h"
#include "qpwm/util/parallel.h"
#include "qpwm/util/random.h"

namespace qpwm {

std::vector<NodeId> HonestTreeServer::Evaluate(const Tuple& params) const {
  if (params.size() != param_arity_) return {};
  if (param_arity_ == 1 && params[0] >= t_->size()) return {};
  NodeId a = param_arity_ == 1 ? params[0] : 0;
  return EvaluateWa(*t_, *labels_, base_count_, table_, param_arity_, a);
}

AnswerSet HonestTreeServer::Answer(const Tuple& params) const {
  AnswerSet out;
  for (NodeId b : Evaluate(params)) {
    out.push_back({Tuple{b}, weights_.GetElem(b)});
  }
  return out;
}

void HonestTreeServer::AnswerAllFlat(const std::vector<Tuple>& params,
                                     FlatAnswerBatch& out) const {
  out.Clear();
  for (const Tuple& p : params) {
    for (NodeId b : Evaluate(p)) out.AppendUnaryRow(b, weights_.GetElem(b));
    out.FinishParam();
  }
}

Result<TreeScheme> TreeScheme::Plan(const BinaryTree& t,
                                    const std::vector<uint32_t>& labels,
                                    uint32_t base_count, const Dta& dta,
                                    uint32_t param_arity,
                                    const TreeSchemeOptions& options) {
  if (param_arity > 1) {
    return Status::InvalidArgument("tree scheme supports parameter arity 0 or 1");
  }
  const uint32_t expected_tracks = param_arity + 1;
  if (dta.alphabet_size() != base_count << expected_tracks) {
    return Status::InvalidArgument(
        "automaton alphabet does not match base alphabet x pebble tracks");
  }
  if (labels.size() != t.size()) {
    return Status::InvalidArgument("one label per tree node required");
  }
  for (uint32_t label : labels) {
    if (label >= base_count) {
      return Status::InvalidArgument("tree label outside the base alphabet");
    }
  }

  TreeScheme scheme;
  scheme.options_ = options;

  // One step table per automaton run below, built once and shared by every
  // run (and every witness-pool worker) over it.
  const StepTable query(dta);

  // Active weighted elements: W = union over a of W_a. Pair candidates are
  // restricted to W so every hidden bit stays readable through answers.
  std::vector<bool> active(t.size(), false);
  {
    std::optional<StepTable> projected;
    if (param_arity == 1) projected.emplace(ProjectParamTrack(dta, base_count));
    const StepTable& exists_a = projected ? *projected : query;
    for (NodeId b : EvaluateWa(t, labels, base_count, exists_a, 0, 0)) active[b] = true;
  }

  DecompositionOptions dopts;
  dopts.shuffle_seed = options.key.Derive(0xDEC0).k0;
  dopts.min_region_size = options.min_region_size;
  dopts.max_region_size = options.max_region_size;
  scheme.regions_ = FindMarkRegions(t, labels, base_count, query, param_arity, dopts,
                                    &scheme.stats_, &active);

  // Witness discovery. Fast path: precompute the answer bitmaps of a small
  // shared pool of candidate parameters (root + keyed-random picks); most
  // pairs find a witness there in O(1). Stragglers fall back to the exact
  // reverse run (track-swapped automaton: every parameter containing b_plus).
  // By neutrality, a witness for b_plus outside the region covers b_minus.
  std::vector<NodeId> region_of(t.size(), kNoNode);
  for (size_t i = 0; i < scheme.regions_.size(); ++i) {
    for (NodeId w : scheme.regions_[i].nodes) region_of[w] = static_cast<NodeId>(i);
  }

  std::vector<std::pair<NodeId, std::vector<bool>>> witness_pool;
  if (param_arity == 1) {
    Rng witness_rng(options.key.Derive(0x317).k0);
    std::vector<NodeId> candidates{t.root()};
    for (size_t i = 0; i + 1 < options.witness_attempts; ++i) {
      candidates.push_back(static_cast<NodeId>(witness_rng.Below(t.size())));
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    // One full context-DP automaton run per candidate parameter — the
    // dominant planning cost — computed in parallel; the pool keeps the
    // candidates' sorted order, so witness probing below is deterministic.
    std::vector<std::vector<bool>> memberships =
        ParallelMap<std::vector<bool>>(candidates.size(), [&](size_t i) {
          std::vector<bool> member(t.size(), false);
          for (NodeId b : EvaluateWa(t, labels, base_count, query, 1, candidates[i])) {
            member[b] = true;
          }
          return member;
        });
    witness_pool.reserve(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      witness_pool.emplace_back(candidates[i], std::move(memberships[i]));
    }
  }

  // The exact reverse run is needed only for pairs the pool misses.
  std::optional<StepTable> swapped;
  for (size_t region_idx = 0; region_idx < scheme.regions_.size(); ++region_idx) {
    const MarkRegion& region = scheme.regions_[region_idx];
    if (!region.paired()) continue;

    if (param_arity == 0) {
      // Single (empty) parameter; the active filter already guarantees
      // membership, but verify defensively.
      if (MemberWa(t, labels, base_count, query, 0, 0, region.b_plus)) {
        scheme.pairs_.push_back({region.b_plus, region.b_minus, Tuple{}});
      }
      continue;
    }

    bool found = false;
    for (const auto& [a, member] : witness_pool) {
      if (region_of[a] == static_cast<NodeId>(region_idx)) continue;
      if (member[region.b_plus]) {
        scheme.pairs_.push_back({region.b_plus, region.b_minus, Tuple{a}});
        found = true;
        break;
      }
    }
    if (found) continue;

    if (!swapped) swapped.emplace(SwapPebbleTracks(dta, base_count));
    for (NodeId a : EvaluateWa(t, labels, base_count, *swapped, 1, region.b_plus)) {
      if (region_of[a] == static_cast<NodeId>(region_idx)) continue;
      QPWM_CHECK(MemberWa(t, labels, base_count, query, 1, a, region.b_minus));
      scheme.pairs_.push_back({region.b_plus, region.b_minus, Tuple{a}});
      break;
    }
  }
  // Both nodes of a pair are read through its witness, keyed by node id. A
  // witness is the empty parameter or one node, which also names it.
  std::vector<SlotRead> slots;
  slots.reserve(2 * scheme.pairs_.size());
  for (const DetectablePair& pair : scheme.pairs_) {
    const uint32_t witness_id = pair.witness.empty() ? 0 : pair.witness[0];
    slots.push_back({&pair.witness, witness_id, pair.b_plus});
    slots.push_back({&pair.witness, witness_id, pair.b_minus});
  }
  scheme.witness_plan_ = MakeWitnessPlan(slots, nullptr, t.size());
  return scheme;
}

WeightMap TreeScheme::Embed(const WeightMap& original, const BitVec& mark) const {
  WeightMap out = original;
  ApplyMark(mark, out, options_.encoding);
  return out;
}

void TreeScheme::ApplyMark(const BitVec& mark, WeightMap& weights,
                           PairEncoding encoding) const {
  QPWM_CHECK_EQ(mark.size(), pairs_.size());
  for (size_t i = 0; i < pairs_.size(); ++i) {
    if (mark.Get(i)) {
      weights.AddElem(pairs_[i].b_plus, +1);
      weights.AddElem(pairs_[i].b_minus, -1);
    } else if (encoding == PairEncoding::kAntipodal) {
      weights.AddElem(pairs_[i].b_plus, -1);
      weights.AddElem(pairs_[i].b_minus, +1);
    }
  }
}

std::vector<Weight> TreeScheme::SlotWeights(const WeightMap& weights) const {
  std::vector<Weight> out;
  out.reserve(2 * pairs_.size());
  for (const DetectablePair& pair : pairs_) {
    out.push_back(weights.GetElem(pair.b_plus));
    out.push_back(weights.GetElem(pair.b_minus));
  }
  return out;
}

Result<BitVec> TreeScheme::Detect(const WeightMap& original,
                                  const AnswerServer& suspect) const {
  return DecodePairsStrict(witness_plan_, SlotWeights(original), suspect,
                           options_.encoding);
}

}  // namespace qpwm
