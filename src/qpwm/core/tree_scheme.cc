#include "qpwm/core/tree_scheme.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

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
  scheme.t_ = &t;
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
  scheme.BuildWitnessPlan();
  return scheme;
}

void TreeScheme::BuildWitnessPlan() {
  // Group the 2 * |pairs| node reads by their witness parameter, in
  // first-use order — hoisted to plan time (the grouping depends only on
  // the pairs, never on the suspect).
  witness_plan_ = WitnessPlan();
  std::unordered_map<Tuple, uint32_t, TupleHash> slot_of_witness;
  std::vector<std::vector<std::pair<uint32_t, NodeId>>> reads;
  for (size_t i = 0; i < pairs_.size(); ++i) {
    const DetectablePair& pair = pairs_[i];
    auto [it, inserted] = slot_of_witness.emplace(
        pair.witness, static_cast<uint32_t>(witness_plan_.params.size()));
    if (inserted) {
      witness_plan_.params.push_back(pair.witness);
      reads.emplace_back();
    }
    reads[it->second].push_back({static_cast<uint32_t>(2 * i), pair.b_plus});
    reads[it->second].push_back({static_cast<uint32_t>(2 * i + 1), pair.b_minus});
  }
  witness_plan_.read_offsets.reserve(reads.size() + 1);
  witness_plan_.read_offsets.push_back(0);
  for (const auto& slot_reads : reads) {
    witness_plan_.reads.insert(witness_plan_.reads.end(), slot_reads.begin(),
                               slot_reads.end());
    witness_plan_.read_offsets.push_back(
        static_cast<uint32_t>(witness_plan_.reads.size()));
  }
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

TreeScheme::DetectContext TreeScheme::MakeDetectContext(
    const WeightMap& original, const DetectOptions& options) const {
  DetectContext ctx;
  ctx.original = &original;
  ctx.options = options;
  return ctx;
}

const std::vector<PairObservation>& TreeScheme::ObservePairsInto(
    const DetectContext& ctx, const AnswerServer& suspect,
    DetectScratch& sc) const {
  const WeightMap& original = *ctx.original;
  sc.observations.clear();
  sc.observations.reserve(pairs_.size());

  if (!ctx.options.batch_answers) {
    // Unbatched path: one Answer() round trip per pair, linear row scan.
    // The scan overwrites on every match, so the *last* row per node wins.
    for (const DetectablePair& pair : pairs_) {
      Weight w_plus = 0, w_minus = 0;
      bool saw_plus = false, saw_minus = false;
      AnswerSet answers = suspect.Answer(pair.witness);
      for (const AnswerRow& row : answers) {
        if (row.element.size() == 1 && row.element[0] == pair.b_plus) {
          w_plus = row.weight;
          saw_plus = true;
        }
        if (row.element.size() == 1 && row.element[0] == pair.b_minus) {
          w_minus = row.weight;
          saw_minus = true;
        }
      }
      PairObservation obs;
      if (!saw_plus || !saw_minus) {
        obs.erased = true;
      } else {
        Weight d_plus = w_plus - original.GetElem(pair.b_plus);
        Weight d_minus = w_minus - original.GetElem(pair.b_minus);
        obs.delta = d_plus - d_minus;
      }
      sc.observations.push_back(obs);
    }
    return sc.observations;
  }

  // Batched path: answer each distinct witness of the precomputed plan once
  // (pairs frequently share witnesses — the root answers for every region it
  // covers, one columnar AnswerAllFlat round trip in all) and resolve the
  // unary rows through an epoch-stamped flat table keyed by node id — no
  // per-row allocation. Plain assignment keeps the *last* row per node,
  // matching the unbatched scan above.
  const size_t num_pairs = pairs_.size();
  sc.read_weight.assign(2 * num_pairs, 0);
  sc.read_found.assign(2 * num_pairs, 0);
  AnswerAllFlat(suspect, witness_plan_.params, sc.answers);

  if (sc.stamp.size() != t_->size()) {
    sc.stamp.assign(t_->size(), 0);
    sc.row_weight.assign(t_->size(), 0);
  }
  for (size_t s = 0; s < witness_plan_.params.size(); ++s) {
    const uint64_t epoch = ++sc.epoch;
    for (uint32_t r = sc.answers.param_offsets[s];
         r < sc.answers.param_offsets[s + 1]; ++r) {
      // Rows beyond the tree (inserted fresh nodes) can never match a pair
      // node.
      const uint32_t eb = sc.answers.elem_offsets[r];
      if (sc.answers.elem_offsets[r + 1] - eb != 1) continue;
      const ElemId node = sc.answers.elems[eb];
      if (node >= t_->size()) continue;
      sc.row_weight[node] = sc.answers.weights[r];
      sc.stamp[node] = epoch;
    }
    for (uint32_t i = witness_plan_.read_offsets[s];
         i < witness_plan_.read_offsets[s + 1]; ++i) {
      const auto& [slot, node] = witness_plan_.reads[i];
      if (sc.stamp[node] == epoch) {
        sc.read_weight[slot] = sc.row_weight[node];
        sc.read_found[slot] = 1;
      }
    }
  }

  for (size_t i = 0; i < num_pairs; ++i) {
    const DetectablePair& pair = pairs_[i];
    PairObservation obs;
    if (!sc.read_found[2 * i] || !sc.read_found[2 * i + 1]) {
      obs.erased = true;
    } else {
      Weight d_plus = sc.read_weight[2 * i] - original.GetElem(pair.b_plus);
      Weight d_minus = sc.read_weight[2 * i + 1] - original.GetElem(pair.b_minus);
      obs.delta = d_plus - d_minus;
    }
    sc.observations.push_back(obs);
  }
  return sc.observations;
}

std::vector<PairObservation> TreeScheme::ObservePairs(
    const WeightMap& original, const AnswerServer& suspect,
    const DetectOptions& options) const {
  const DetectContext ctx = MakeDetectContext(original, options);
  DetectScratch scratch;
  return ObservePairsInto(ctx, suspect, scratch);
}

Result<std::vector<Weight>> TreeScheme::PairDeltas(const WeightMap& original,
                                                   const AnswerServer& suspect) const {
  std::vector<PairObservation> observations = ObservePairs(original, suspect);
  std::vector<Weight> deltas;
  deltas.reserve(observations.size());
  for (const PairObservation& obs : observations) {
    if (obs.erased) {
      return Status::DetectionFailed(
          "witness answer is missing a pair node (structure tampered)");
    }
    deltas.push_back(obs.delta);
  }
  return deltas;
}

Result<BitVec> TreeScheme::Detect(const WeightMap& original,
                                  const AnswerServer& suspect) const {
  auto deltas = PairDeltas(original, suspect);
  if (!deltas.ok()) return deltas.status();
  BitVec mark(pairs_.size());
  const Weight threshold = options_.encoding == PairEncoding::kOnOff ? 1 : 0;
  for (size_t i = 0; i < deltas.value().size(); ++i) {
    mark.Set(i, deltas.value()[i] >= threshold);
  }
  return mark;
}

}  // namespace qpwm
