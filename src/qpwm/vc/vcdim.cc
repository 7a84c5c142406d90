#include "qpwm/vc/vcdim.h"

#include <algorithm>
#include <unordered_set>

#include "qpwm/util/check.h"

namespace qpwm {

SetSystem SetSystemFromQuery(const QueryIndex& index) {
  SetSystem out;
  out.ground_size = index.num_active();
  out.sets.reserve(index.num_params());
  for (size_t i = 0; i < index.num_params(); ++i) {
    const std::span<const uint32_t> row = index.ResultFor(i);  // already sorted
    out.sets.emplace_back(row.begin(), row.end());
  }
  // Distinct sets only (duplicates cannot change shattering).
  std::sort(out.sets.begin(), out.sets.end());
  out.sets.erase(std::unique(out.sets.begin(), out.sets.end()), out.sets.end());
  return out;
}

bool IsShattered(const SetSystem& system, const std::vector<uint32_t>& candidate) {
  const size_t k = candidate.size();
  QPWM_CHECK_LE(k, 25u);
  if (k == 0) return !system.sets.empty();
  const uint32_t want = 1u << k;
  std::unordered_set<uint32_t> patterns;
  patterns.reserve(want);
  for (const auto& set : system.sets) {
    uint32_t pattern = 0;
    for (size_t i = 0; i < k; ++i) {
      if (std::binary_search(set.begin(), set.end(), candidate[i])) {
        pattern |= 1u << i;
      }
    }
    patterns.insert(pattern);
    if (patterns.size() == want) return true;
  }
  return false;
}

uint32_t VcDimension(const SetSystem& system, uint32_t max_dim) {
  if (system.sets.empty() || system.ground_size == 0) return 0;

  // Layered monotone search: shattered k-sets extend to candidate
  // (k+1)-sets by appending a larger element.
  std::vector<std::vector<uint32_t>> layer{{}};
  uint32_t dim = 0;
  while (dim < max_dim) {
    std::vector<std::vector<uint32_t>> next;
    for (const auto& base : layer) {
      uint32_t start = base.empty() ? 0 : base.back() + 1;
      for (uint32_t e = start; e < system.ground_size; ++e) {
        std::vector<uint32_t> candidate = base;
        candidate.push_back(e);
        if (IsShattered(system, candidate)) next.push_back(std::move(candidate));
      }
    }
    if (next.empty()) break;
    layer = std::move(next);
    ++dim;
  }
  return dim;
}

uint32_t VcLowerBound(const SetSystem& system) {
  if (system.sets.empty() || system.ground_size == 0) return 0;
  std::vector<uint32_t> shattered;
  bool grew = true;
  while (grew) {
    grew = false;
    for (uint32_t e = 0; e < system.ground_size; ++e) {
      if (std::binary_search(shattered.begin(), shattered.end(), e)) continue;
      std::vector<uint32_t> candidate = shattered;
      candidate.insert(std::upper_bound(candidate.begin(), candidate.end(), e), e);
      if (candidate.size() <= 25 && IsShattered(system, candidate)) {
        shattered = std::move(candidate);
        grew = true;
        break;
      }
    }
  }
  return static_cast<uint32_t>(shattered.size());
}

}  // namespace qpwm
