#include "qpwm/core/distortion.h"

#include <algorithm>
#include <cstdlib>

namespace qpwm {

Weight AggregateWeight(const QueryIndex& index, size_t param_idx,
                       const WeightMap& weights, Aggregate agg) {
  const std::span<const uint32_t> row = index.ResultFor(param_idx);
  if (row.empty()) return 0;
  switch (agg) {
    case Aggregate::kSum:
      return index.SumWeights(param_idx, weights);
    case Aggregate::kMean:
      return index.SumWeights(param_idx, weights) / static_cast<Weight>(row.size());
    case Aggregate::kMin: {
      Weight best = weights.Get(index.active_element(row[0]));
      for (uint32_t w : row) best = std::min(best, weights.Get(index.active_element(w)));
      return best;
    }
    case Aggregate::kMax: {
      Weight best = weights.Get(index.active_element(row[0]));
      for (uint32_t w : row) best = std::max(best, weights.Get(index.active_element(w)));
      return best;
    }
  }
  return 0;
}

bool SatisfiesLocalDistortion(const WeightMap& w0, const WeightMap& w1, Weight c) {
  return w0.LocalDistortion(w1) <= c;
}

std::vector<Weight> PerParamDistortion(const QueryIndex& index, const WeightMap& w0,
                                       const WeightMap& w1, Aggregate agg) {
  std::vector<Weight> out(index.num_params());
  for (size_t i = 0; i < index.num_params(); ++i) {
    out[i] = std::llabs(AggregateWeight(index, i, w1, agg) -
                        AggregateWeight(index, i, w0, agg));
  }
  return out;
}

Weight GlobalDistortion(const QueryIndex& index, const WeightMap& w0,
                        const WeightMap& w1, Aggregate agg) {
  Weight worst = 0;
  for (size_t i = 0; i < index.num_params(); ++i) {
    Weight d = std::llabs(AggregateWeight(index, i, w1, agg) -
                          AggregateWeight(index, i, w0, agg));
    worst = std::max(worst, d);
  }
  return worst;
}

}  // namespace qpwm
