#include "qpwm/logic/locality.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "qpwm/structure/typemap.h"

namespace qpwm {

uint32_t GaifmanLocalityBound(uint32_t quantifier_rank) {
  uint64_t pow = 1;
  for (uint32_t i = 0; i < quantifier_rank; ++i) {
    pow *= 7;
    if (pow > (uint64_t{UINT32_MAX} * 2 + 1)) return UINT32_MAX;
  }
  uint64_t bound = (pow - 1) / 2;
  return bound > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(bound);
}

uint64_t LocalityDivergenceBound(uint32_t r, uint64_t degree_k, uint32_t rho) {
  if (degree_k <= 1) return 2ull * r * (2 * rho + 2);  // paths/matchings: sphere size.
  // Sphere of radius 2 rho + 1 in a degree-k graph has < k^(2 rho + 2)
  // elements; the paper's stated constant is 2 r k^(2 rho + 1).
  uint64_t pow = 1;
  for (uint32_t i = 0; i < 2 * rho + 1; ++i) {
    if (pow > UINT64_MAX / degree_k) return UINT64_MAX;
    pow *= degree_k;
  }
  if (pow > UINT64_MAX / (2ull * r)) return UINT64_MAX;
  return 2ull * r * pow;
}

uint64_t MaxSameTypeDivergence(const Structure& g, const ParametricQuery& query,
                               uint32_t rho, const std::vector<Tuple>& domain) {
  NeighborhoodTyper typer(g, rho);
  const BoundQuery bound = query.Bind(g);
  std::unordered_map<uint32_t, std::vector<const Tuple*>> by_type;
  for (const Tuple& a : domain) by_type[typer.TypeOf(a)].push_back(&a);

  uint64_t worst = 0;
  // qpwm-lint: allow(unordered-iter) -- max reduction, order-independent
  for (auto& [type, members] : by_type) {
    (void)type;
    std::vector<std::unordered_set<Tuple, TupleHash>> answers;
    answers.reserve(members.size());
    for (const Tuple* a : members) {
      auto w = bound(*a);
      answers.emplace_back(w.begin(), w.end());
    }
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = 0; j < members.size(); ++j) {
        if (i == j) continue;
        uint64_t diff = 0;
        for (const Tuple& t : answers[i]) {
          if (!answers[j].count(t)) ++diff;
        }
        worst = std::max(worst, diff);
      }
    }
  }
  return worst;
}

}  // namespace qpwm
