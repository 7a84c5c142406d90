#include "qpwm/core/local_scheme.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

#include "qpwm/logic/locality.h"
#include "qpwm/structure/typemap.h"
#include "qpwm/util/check.h"
#include "qpwm/util/parallel.h"
#include "qpwm/util/random.h"
#include "qpwm/util/str.h"

namespace qpwm {
namespace {

// Attempts of the random epsilon-good selection before the greedy fallback.
constexpr int kMaxTries = 64;

// Pairs consecutive members of each group; returns leftover singletons.
void PairWithinGroups(const std::map<std::vector<uint32_t>, std::vector<uint32_t>>& groups,
                      Rng& rng, std::vector<WeightPair>& pairs,
                      std::vector<uint32_t>& leftovers) {
  for (const auto& [cl, members_const] : groups) {
    (void)cl;
    std::vector<uint32_t> members = members_const;
    rng.Shuffle(members);
    size_t i = 0;
    for (; i + 1 < members.size(); i += 2) {
      pairs.push_back({members[i], members[i + 1]});
    }
    if (i < members.size()) leftovers.push_back(members[i]);
  }
}

// Greedy ablation: repeatedly drop the pair that contributes to the most
// overloaded parameter until every parameter is within budget.
std::vector<uint32_t> GreedySelect(const PairMarking& all, uint32_t budget) {
  const QueryIndex& index = all.index();
  std::vector<uint32_t> cost = all.CostPerParam();
  std::vector<bool> alive(all.size(), true);

  // contributions[i] = list of params pair i contributes to (non-zero).
  // Each entry is independent, so the whole table builds in parallel.
  std::vector<std::vector<uint32_t>> contributions =
      ParallelMap<std::vector<uint32_t>>(all.size(), [&](size_t i) {
        const WeightPair& p = all.pairs()[i];
        const std::span<const uint32_t> in_plus = index.ParamsContaining(p.plus);
        const std::span<const uint32_t> in_minus = index.ParamsContaining(p.minus);
        std::vector<uint32_t> out;
        size_t a = 0, b = 0;
        while (a < in_plus.size() || b < in_minus.size()) {
          if (b == in_minus.size() || (a < in_plus.size() && in_plus[a] < in_minus[b])) {
            out.push_back(in_plus[a++]);
          } else if (a == in_plus.size() || in_minus[b] < in_plus[a]) {
            out.push_back(in_minus[b++]);
          } else {
            ++a;
            ++b;
          }
        }
        return out;
      });

  for (;;) {
    // Worst parameter.
    uint32_t worst_param = 0;
    uint32_t worst_cost = 0;
    for (size_t a = 0; a < cost.size(); ++a) {
      if (cost[a] > worst_cost) {
        worst_cost = cost[a];
        worst_param = static_cast<uint32_t>(a);
      }
    }
    if (worst_cost <= budget) break;

    // Among live pairs hitting it, drop the one with the largest footprint.
    size_t victim = all.size();
    size_t victim_footprint = 0;
    for (size_t i = 0; i < all.size(); ++i) {
      if (!alive[i]) continue;
      if (!std::binary_search(contributions[i].begin(), contributions[i].end(),
                              worst_param)) {
        continue;
      }
      if (victim == all.size() || contributions[i].size() > victim_footprint) {
        victim = i;
        victim_footprint = contributions[i].size();
      }
    }
    QPWM_CHECK_LT(victim, all.size());
    alive[victim] = false;
    for (uint32_t a : contributions[victim]) --cost[a];
  }

  std::vector<uint32_t> selection;
  for (size_t i = 0; i < all.size(); ++i) {
    if (alive[i]) selection.push_back(static_cast<uint32_t>(i));
  }
  return selection;
}

}  // namespace

Result<LocalScheme> LocalScheme::Plan(const QueryIndex& index,
                                      const LocalSchemeOptions& options) {
  const Structure& g = index.structure();
  const ParametricQuery& query = index.query();

  uint32_t rho = options.rho.value_or(
      std::min<uint32_t>(query.LocalityRank().value_or(1), 2));

  if (options.epsilon <= 0.0 || options.epsilon > 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1]");
  }
  const auto budget = static_cast<uint32_t>(std::ceil(1.0 / options.epsilon));
  // Typing reads each parameter's elements through per-element tables, so a
  // parameter must name elements of the universe with the query's arity.
  for (const Tuple& param : index.domain()) {
    if (param.size() != query.ParamArity()) {
      return Status::InvalidArgument(StrCat("domain tuple of arity ", param.size(),
                                            ", the query takes ", query.ParamArity()));
    }
    for (ElemId e : param) {
      if (e >= g.universe_size()) {
        return Status::InvalidArgument(StrCat("domain tuple names element ", e,
                                              " outside the universe of size ",
                                              g.universe_size()));
      }
    }
  }

  // 1-2. Type parameters; canonical representatives come out of the typer.
  // TypeAll extracts and canonicalizes neighborhoods in parallel through the
  // shared canonical-form cache; ids come back in first-seen order, exactly
  // as the old serial TypeOf loop produced them.
  NeighborhoodTyper typer(g, rho, &CanonCache::Global());
  std::vector<uint32_t> param_type = typer.TypeAll(index.domain());
  const size_t ntp = typer.NumTypes();

  // Representative parameter index per type (first of each type).
  std::vector<size_t> rep_param(ntp, index.num_params());
  for (size_t i = 0; i < index.num_params(); ++i) {
    if (rep_param[param_type[i]] == index.num_params()) rep_param[param_type[i]] = i;
  }

  // 3. Classes cl(w) and pairing.
  Rng pairing_rng(options.key.Derive(0x70A1).k0);
  std::vector<WeightPair> candidates;
  std::vector<uint32_t> leftovers;
  if (options.class_pairing) {
    // cl(w) by inversion: walk each canonical parameter's result set once and
    // append its type to the members' class vectors. Ascending t keeps every
    // cl(w) sorted, matching the membership-test formulation exactly, at
    // O(sum |W_rep|) instead of |W| * ntp membership tests.
    std::vector<std::vector<uint32_t>> classes(index.num_active());
    for (uint32_t t = 0; t < ntp; ++t) {
      for (uint32_t w : index.ResultFor(rep_param[t])) classes[w].push_back(t);
    }
    std::map<std::vector<uint32_t>, std::vector<uint32_t>> by_class;
    for (uint32_t w = 0; w < index.num_active(); ++w) {
      by_class[std::move(classes[w])].push_back(w);
    }
    PairWithinGroups(by_class, pairing_rng, candidates, leftovers);
  } else {
    leftovers.resize(index.num_active());
    std::iota(leftovers.begin(), leftovers.end(), 0u);
  }
  if (options.fallback_pairing) {
    pairing_rng.Shuffle(leftovers);
    for (size_t i = 0; i + 1 < leftovers.size(); i += 2) {
      candidates.push_back({leftovers[i], leftovers[i + 1]});
    }
  }

  PairMarking all(index, std::move(candidates));

  // 4. Epsilon-good selection.
  std::vector<uint32_t> selection;
  int tries_used = 0;
  if (all.MaxCost() <= budget) {
    selection.resize(all.size());
    std::iota(selection.begin(), selection.end(), 0u);
    tries_used = 1;
  } else if (options.selection == PairSelection::kGreedy) {
    selection = GreedySelect(all, budget);
    tries_used = 1;
  } else if (all.size() > 0) {
    // Proposition 2: p = 1 / (eta * (2N)^eps), retried. After a grace period
    // the probability adapts: halved when the sampled subset blew the budget,
    // doubled when it came out empty (tiny instances make the analytical p
    // vanish). If the randomized search never lands, fall back to the greedy
    // dropper, which always returns a within-budget (possibly smaller) set.
    const GaifmanGraph gaifman(g);
    const uint64_t eta = LocalityDivergenceBound(query.ParamArity(),
                                                 gaifman.MaxDegree(), rho);
    const double n_queries = 2.0 * static_cast<double>(index.num_params());
    double p = 1.0 / (static_cast<double>(eta) * std::pow(n_queries, options.epsilon));
    p = std::clamp(p, 2.0 / static_cast<double>(all.size()), 1.0);

    Rng select_rng(options.key.Derive(0x5E1E).k0);
    bool succeeded = false;
    for (int attempt = 0; attempt < kMaxTries; ++attempt) {
      if (!succeeded) ++tries_used;  // tries until the *first* success
      std::vector<uint32_t> trial;
      for (uint32_t i = 0; i < all.size(); ++i) {
        if (select_rng.Bernoulli(p)) trial.push_back(i);
      }
      if (!trial.empty() && all.Subset(trial).MaxCost() <= budget) {
        succeeded = true;
        if (trial.size() > selection.size()) selection = std::move(trial);
        p = std::min(1.0, p * 1.3);  // probe for a larger epsilon-good set
      } else if (succeeded || attempt >= kMaxTries / 2) {
        p = trial.empty() ? std::min(1.0, p * 2) : p * 0.7;
      }
    }
    if (selection.empty()) selection = GreedySelect(all, budget);
  }

  auto marking = std::make_unique<PairMarking>(all.Subset(selection));
  const uint32_t bound = marking->MaxCost();
  QPWM_CHECK_LE(bound, budget);

  LocalScheme scheme(std::move(marking), options);
  scheme.distortion_bound_ = bound;
  scheme.budget_ = budget;
  scheme.rho_ = rho;
  scheme.type_forms_ = typer.SortedForms();
  scheme.candidate_pairs_ = all.size();
  scheme.tries_used_ = tries_used;
  scheme.canonical_params_ = rep_param;
  return scheme;
}

WeightMap LocalScheme::Embed(const WeightMap& original, const BitVec& mark) const {
  QPWM_CHECK_EQ(mark.size(), CapacityBits());
  WeightMap out = original;
  ApplyMark(mark, out, options_.encoding);
  return out;
}

WitnessPlan LocalScheme::BuildWitnessPlan(const PairMarking& marking) {
  // Each element is read through the first parameter whose result contains
  // it; an element no parameter returns stays unread (erased).
  const QueryIndex& index = marking.index();
  std::vector<SlotRead> slots;
  slots.reserve(2 * marking.size());
  for (const WeightPair& p : marking.pairs()) {
    for (const uint32_t w : {p.plus, p.minus}) {
      const std::span<const uint32_t> witnesses = index.ParamsContaining(w);
      if (witnesses.empty()) {
        slots.push_back({nullptr, 0, w});
      } else {
        slots.push_back({&index.param(witnesses[0]), witnesses[0], w});
      }
    }
  }
  return MakeWitnessPlan(slots, &index, index.num_active());
}

std::vector<Weight> LocalScheme::SlotWeights(const WeightMap& weights) const {
  // One sequential pass over the active set, then indexed reads: cheaper
  // than a tuple lookup per read slot on large markings.
  const DenseWeightView view(marking_->index(), weights);
  std::vector<Weight> out;
  out.reserve(2 * marking_->size());
  for (const WeightPair& p : marking_->pairs()) {
    out.push_back(view.at(p.plus));
    out.push_back(view.at(p.minus));
  }
  return out;
}

Result<BitVec> LocalScheme::Detect(const WeightMap& original,
                                   const AnswerServer& suspect) const {
  return DecodePairsStrict(witness_plan_, SlotWeights(original), suspect,
                           options_.encoding);
}

}  // namespace qpwm
