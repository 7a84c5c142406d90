#include "qpwm/core/pairs.h"

#include <algorithm>

#include "qpwm/util/check.h"
#include "qpwm/util/parallel.h"

namespace qpwm {
namespace {

// Below this many pairs the parallel dispatch costs more than it saves: the
// per-pair work is two sorted-list merges over bounded-degree incidence
// lists, so a dispatch (worker wakeup + join) only amortizes on large
// markings. Measured on bench_plan_scale's instance; the selection loop calls
// this once per subsample trial, so a low threshold multiplies the overhead.
constexpr size_t kParallelCostThreshold = 8192;

// Answers' rows are staged witness by witness, by dense key, and each
// witness's reads are resolved against its own rows. A row is staged at
// stamp `epoch`; a second row for the same key bumps the stamp to epoch + 1,
// so a duplicated element reads as missing. The epoch advances by 2 per
// witness, which keeps every earlier stamp below it. `key_of(elems, size)`
// returns a row's dense key, or -1 for a row no read can match (a fresh
// inserted tuple, a wrong arity). It is chosen once per run, not per row.
template <typename KeyOf>
void StageWitnesses(const WitnessPlan& plan, KeyOf&& key_of, DetectScratch& sc) {
  const FlatAnswerBatch& answers = sc.answers;
  for (size_t s = 0; s < plan.params.size(); ++s) {
    sc.epoch += 2;
    const uint64_t epoch = sc.epoch;
    for (uint32_t r = answers.param_offsets[s]; r < answers.param_offsets[s + 1];
         ++r) {
      const uint32_t eb = answers.elem_offsets[r];
      const int64_t key =
          key_of(answers.elems.data() + eb, answers.elem_offsets[r + 1] - eb);
      if (key < 0) continue;
      if (sc.stamp[key] < epoch) {
        sc.stamp[key] = epoch;
        sc.row_weight[key] = answers.weights[r];
      } else {
        sc.stamp[key] = epoch + 1;
      }
    }
    for (uint32_t i = plan.read_offsets[s]; i < plan.read_offsets[s + 1]; ++i) {
      const auto& [slot, key] = plan.reads[i];
      if (sc.stamp[key] == epoch) {
        sc.read_weight[slot] = sc.row_weight[key];
        sc.read_found[slot] = 1;
      }
    }
  }
}

}  // namespace

WitnessPlan MakeWitnessPlan(const std::vector<SlotRead>& slots,
                            const QueryIndex* index, size_t num_keys) {
  QPWM_CHECK_EQ(slots.size() % 2, 0u);
  WitnessPlan plan;
  plan.index = index;
  plan.num_keys = num_keys;
  plan.num_pairs = slots.size() / 2;
  // Witness index per witness id, in first-use order, from a dense table
  // over the id range; then the reads go CSR by a counting sort, which
  // keeps each witness's reads in slot order.
  uint32_t max_id = 0;
  for (const SlotRead& read : slots) {
    if (read.witness != nullptr) max_id = std::max(max_id, read.witness_id);
  }
  constexpr uint32_t kUnseen = UINT32_MAX;
  std::vector<uint32_t> witness_of(size_t{max_id} + 1, kUnseen);
  std::vector<uint32_t> witness_of_slot(slots.size(), kUnseen);
  for (size_t slot = 0; slot < slots.size(); ++slot) {
    const SlotRead& read = slots[slot];
    if (read.witness == nullptr) continue;  // stays unfound -> erased
    QPWM_CHECK_LT(read.key, num_keys);
    uint32_t& witness = witness_of[read.witness_id];
    if (witness == kUnseen) {
      witness = static_cast<uint32_t>(plan.params.size());
      plan.params.push_back(*read.witness);
      plan.read_offsets.push_back(0);
    }
    witness_of_slot[slot] = witness;
    ++plan.read_offsets[witness + 1];
  }
  for (size_t s = 0; s < plan.params.size(); ++s) {
    plan.read_offsets[s + 1] += plan.read_offsets[s];
  }
  plan.reads.resize(plan.read_offsets.back());
  std::vector<uint32_t> cursor(plan.read_offsets.begin(), plan.read_offsets.end() - 1);
  for (size_t slot = 0; slot < slots.size(); ++slot) {
    const uint32_t witness = witness_of_slot[slot];
    if (witness == kUnseen) continue;
    plan.reads[cursor[witness]++] = {static_cast<uint32_t>(slot), slots[slot].key};
  }
  return plan;
}

const std::vector<PairObservation>& ReadPairs(const WitnessPlan& plan,
                                              const std::vector<Weight>& originals,
                                              const AnswerServer& suspect,
                                              DetectScratch& sc) {
  const size_t num_slots = 2 * plan.num_pairs;
  QPWM_CHECK_EQ(originals.size(), num_slots);
  sc.read_weight.assign(num_slots, 0);
  sc.read_found.assign(num_slots, 0);
  AnswerAllFlat(suspect, plan.params, sc.answers);
  QPWM_CHECK_EQ(sc.answers.num_params(), plan.params.size());
  if (sc.stamp.size() != plan.num_keys) {
    sc.stamp.assign(plan.num_keys, 0);
    sc.row_weight.assign(plan.num_keys, 0);
  }

  const QueryIndex* index = plan.index;
  if (index == nullptr) {
    const size_t num_nodes = plan.num_keys;
    StageWitnesses(plan, [num_nodes](const ElemId* e, uint32_t size) -> int64_t {
      return size == 1 && e[0] < num_nodes ? static_cast<int64_t>(e[0]) : -1;
    }, sc);
  } else if (index->has_unary_actives()) {
    StageWitnesses(plan, [index](const ElemId* e, uint32_t size) -> int64_t {
      return size == 1 ? index->ActiveIdOfElem(e[0]) : -1;
    }, sc);
  } else {
    StageWitnesses(plan, [index, &sc](const ElemId* e, uint32_t size) -> int64_t {
      sc.row_tuple.assign(e, e + size);
      auto found = index->FindActive(sc.row_tuple);
      return found.ok() ? static_cast<int64_t>(found.value()) : -1;
    }, sc);
  }

  sc.observations.clear();
  sc.observations.reserve(plan.num_pairs);
  for (size_t i = 0; i < plan.num_pairs; ++i) {
    PairObservation obs;
    if (!sc.read_found[2 * i] || !sc.read_found[2 * i + 1]) {
      obs.erased = true;
    } else {
      const Weight d_plus = sc.read_weight[2 * i] - originals[2 * i];
      const Weight d_minus = sc.read_weight[2 * i + 1] - originals[2 * i + 1];
      obs.delta = d_plus - d_minus;
    }
    sc.observations.push_back(obs);
  }
  return sc.observations;
}

Result<BitVec> DecodePairsStrict(const WitnessPlan& plan,
                                 const std::vector<Weight>& originals,
                                 const AnswerServer& suspect,
                                 PairEncoding encoding) {
  DetectScratch scratch;
  const std::vector<PairObservation>& observations =
      ReadPairs(plan, originals, suspect, scratch);
  const Weight threshold = encoding == PairEncoding::kOnOff ? 1 : 0;
  BitVec mark(observations.size());
  for (size_t i = 0; i < observations.size(); ++i) {
    if (observations[i].erased) {
      return Status::DetectionFailed(
          "a pair element is missing from its witness answer (structure tampered)");
    }
    mark.Set(i, observations[i].delta >= threshold);
  }
  return mark;
}

PairMarking::PairMarking(const QueryIndex& index, std::vector<WeightPair> pairs)
    : index_(&index), pairs_(std::move(pairs)) {
  for (const WeightPair& p : pairs_) {
    QPWM_CHECK_LT(p.plus, index.num_active());
    QPWM_CHECK_LT(p.minus, index.num_active());
    QPWM_CHECK_NE(p.plus, p.minus);
  }
}

int PairMarking::Contribution(size_t pair_idx, size_t param_idx) const {
  const WeightPair& p = pairs_[pair_idx];
  int c = 0;
  if (index_->Contains(param_idx, p.plus)) c += 1;
  if (index_->Contains(param_idx, p.minus)) c -= 1;
  return c;
}

std::vector<uint32_t> PairMarking::CostPerParam() const {
  // Walk the inverse index instead of the (pair x param) product: each pair
  // only touches the parameters containing one of its two elements.
  auto accumulate = [this](size_t begin, size_t end, std::vector<uint32_t>& cost) {
    for (size_t pi = begin; pi < end; ++pi) {
      const WeightPair& p = pairs_[pi];
      const std::span<const uint32_t> in_plus = index_->ParamsContaining(p.plus);
      const std::span<const uint32_t> in_minus = index_->ParamsContaining(p.minus);
      // Symmetric difference of the two sorted parameter lists.
      size_t i = 0, j = 0;
      while (i < in_plus.size() || j < in_minus.size()) {
        if (j == in_minus.size() || (i < in_plus.size() && in_plus[i] < in_minus[j])) {
          ++cost[in_plus[i++]];
        } else if (i == in_plus.size() || in_minus[j] < in_plus[i]) {
          ++cost[in_minus[j++]];
        } else {  // Both contain this parameter: contributions cancel.
          ++i;
          ++j;
        }
      }
    }
  };

  const size_t num_params = index_->num_params();
  if (pairs_.size() < kParallelCostThreshold || ParallelThreads() == 1) {
    std::vector<uint32_t> cost(num_params, 0);
    accumulate(0, pairs_.size(), cost);
    return cost;
  }

  // Per-block partial counts, summed in block order. Integer addition is
  // associative and commutative, so the totals are identical to the serial
  // accumulation for any thread count or block layout.
  std::vector<std::vector<uint32_t>> partial =
      ParallelBlocks<std::vector<uint32_t>>(pairs_.size(), [&](size_t begin, size_t end) {
        std::vector<uint32_t> cost(num_params, 0);
        accumulate(begin, end, cost);
        return cost;
      });
  std::vector<uint32_t> cost(num_params, 0);
  for (const std::vector<uint32_t>& block : partial) {
    for (size_t a = 0; a < num_params; ++a) cost[a] += block[a];
  }
  return cost;
}

uint32_t PairMarking::MaxCost() const {
  uint32_t worst = 0;
  for (uint32_t c : CostPerParam()) worst = std::max(worst, c);
  return worst;
}

void PairMarking::Apply(const BitVec& mark, WeightMap& weights,
                        PairEncoding encoding) const {
  QPWM_CHECK_EQ(mark.size(), pairs_.size());
  for (size_t i = 0; i < pairs_.size(); ++i) {
    const WeightPair& p = pairs_[i];
    if (mark.Get(i)) {
      weights.Add(index_->active_element(p.plus), +1);
      weights.Add(index_->active_element(p.minus), -1);
    } else if (encoding == PairEncoding::kAntipodal) {
      weights.Add(index_->active_element(p.plus), -1);
      weights.Add(index_->active_element(p.minus), +1);
    }
  }
}

PairMarking PairMarking::Subset(const std::vector<uint32_t>& selection) const {
  std::vector<WeightPair> subset;
  subset.reserve(selection.size());
  for (uint32_t i : selection) {
    QPWM_CHECK_LT(i, pairs_.size());
    subset.push_back(pairs_[i]);
  }
  return PairMarking(*index_, std::move(subset));
}

}  // namespace qpwm
