#include "qpwm/core/tree_scheme.h"

#include <algorithm>
#include <optional>

#include "qpwm/tree/query.h"
#include "qpwm/util/check.h"
#include "qpwm/util/random.h"

namespace qpwm {

HonestTreeServer::HonestTreeServer(const BinaryTree& t,
                                   const std::vector<uint32_t>& labels,
                                   uint32_t base_count, const Dta& dta,
                                   uint32_t param_arity, WeightMap weights)
    : weights_(std::move(weights)) {
  Result<TreeQuery> query = TreeQuery::Compile(dta, base_count, param_arity);
  if (!query.ok()) return;
  Result<TreeLayout> layout = TreeLayout::Build(t, labels, base_count);
  if (!layout.ok()) return;
  query_.emplace(std::move(query).value());
  layout_.emplace(std::move(layout).value());
}

std::vector<NodeId> HonestTreeServer::Evaluate(const Tuple& params) const {
  if (!query_ || !layout_ || params.size() != query_->param_arity()) return {};
  if (!params.empty() && params[0] >= layout_->size()) return {};
  return EvaluateWa(*layout_, *query_, params.empty() ? 0 : params[0]);
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
  Result<TreeQuery> compiled = TreeQuery::Compile(dta, base_count, param_arity);
  if (!compiled.ok()) return compiled.status();
  const TreeQuery& query = compiled.value();
  Result<TreeLayout> laid_out = TreeLayout::Build(t, labels, base_count);
  if (!laid_out.ok()) return laid_out.status();
  const TreeLayout& layout = laid_out.value();

  TreeScheme scheme;
  scheme.options_ = options;

  // Active weighted elements: W = union over a of W_a. Pair candidates are
  // restricted to W so every hidden bit stays readable through answers.
  // With a parameter, W is the projected automaton's answer set; it compiles
  // (one track over the same base labels) whenever `query` did.
  std::vector<bool> active(t.size(), false);
  {
    std::optional<TreeQuery> projected;
    if (param_arity == 1) {
      projected.emplace(
          TreeQuery::Compile(ProjectParamTrack(dta, base_count), base_count, 0).ValueOrDie());
    }
    const std::vector<uint8_t> active_at =
        EvaluateWaByPosition(layout, projected ? *projected : query, 0);
    for (uint32_t p = 0; p < layout.size(); ++p) active[layout.id(p)] = active_at[p] != 0;
  }

  DecompositionOptions dopts;
  dopts.shuffle_seed = options.key.Derive(0xDEC0).k0;
  scheme.regions_ =
      FindMarkRegions(layout, query, dopts, &scheme.stats_, &active);

  // Witness discovery. Fast path: a small shared pool of candidate
  // parameters (root + keyed-random picks), probed in sorted order; most
  // pairs find a witness there in O(1). The pool is evaluated lazily: a
  // pooled parameter's first probe is one membership run, and only from its
  // second probe on is its whole answer set (a context-DP run, several
  // times dearer) computed and kept. Stragglers fall back to the exact
  // reverse run (track-swapped automaton: every parameter containing
  // b_plus). By neutrality, a witness for b_plus outside the region covers
  // b_minus.
  std::vector<NodeId> region_of(t.size(), kNoNode);
  for (size_t i = 0; i < scheme.regions_.size(); ++i) {
    for (NodeId w : scheme.regions_[i].nodes) region_of[w] = static_cast<NodeId>(i);
  }

  struct PooledWitness {
    NodeId a;
    bool probed = false;
    std::vector<uint8_t> member;  // by position; empty until probed twice
  };
  std::vector<PooledWitness> witness_pool;
  if (param_arity == 1) {
    Rng witness_rng(options.key.Derive(0x317).k0);
    std::vector<NodeId> candidates{t.root()};
    for (size_t i = 0; i + 1 < options.witness_attempts; ++i) {
      candidates.push_back(static_cast<NodeId>(witness_rng.Below(t.size())));
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (NodeId a : candidates) witness_pool.push_back({a, false, {}});
  }

  // The exact reverse run is needed only for pairs the pool misses.
  std::optional<TreeQuery> swapped;
  for (size_t region_idx = 0; region_idx < scheme.regions_.size(); ++region_idx) {
    const MarkRegion& region = scheme.regions_[region_idx];
    if (!region.paired()) continue;

    if (param_arity == 0) {
      // Single (empty) parameter: W is the active set, which the candidate
      // filter already required b_plus to be in; checked defensively.
      if (active[region.b_plus]) {
        scheme.pairs_.push_back({region.b_plus, region.b_minus, Tuple{}});
      }
      continue;
    }

    bool found = false;
    for (PooledWitness& pooled : witness_pool) {
      if (region_of[pooled.a] == static_cast<NodeId>(region_idx)) continue;
      bool contains;
      if (!pooled.probed) {
        pooled.probed = true;
        contains = MemberWa(layout, query, pooled.a, region.b_plus);
      } else {
        if (pooled.member.empty()) {
          pooled.member = EvaluateWaByPosition(layout, query, pooled.a);
        }
        contains = pooled.member[layout.pos(region.b_plus)] != 0;
      }
      if (contains) {
        scheme.pairs_.push_back({region.b_plus, region.b_minus, Tuple{pooled.a}});
        found = true;
        break;
      }
    }
    if (found) continue;

    if (!swapped) {
      swapped.emplace(
          TreeQuery::Compile(SwapPebbleTracks(dta, base_count), base_count, 1).ValueOrDie());
    }
    for (NodeId a : EvaluateWa(layout, *swapped, region.b_plus)) {
      if (region_of[a] == static_cast<NodeId>(region_idx)) continue;
      QPWM_CHECK(MemberWa(layout, query, a, region.b_minus));
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
