// Test-only reference QueryIndex build: the map-based construction the
// library used before the flat index, kept as the oracle for QueryIndex. It
// evaluates the query serially, interns every result tuple through an
// unordered_map keyed by a copy of the tuple, and keeps one heap vector per
// result row and per inverse list.
#ifndef QPWM_TESTS_REFERENCE_INDEX_H_
#define QPWM_TESTS_REFERENCE_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "qpwm/logic/query.h"
#include "qpwm/structure/structure.h"

namespace qpwm {

struct ReferenceIndex {
  std::vector<Tuple> domain;
  std::unordered_map<Tuple, uint32_t, TupleHash> param_index;
  std::vector<Tuple> active;
  std::unordered_map<Tuple, uint32_t, TupleHash> active_index;
  std::vector<std::vector<uint32_t>> results;     // param -> active ids, sorted
  std::vector<std::vector<uint32_t>> containing;  // active -> params, sorted

  ReferenceIndex(const Structure& g, const ParametricQuery& query,
                 std::vector<Tuple> params)
      : domain(std::move(params)) {
    results.resize(domain.size());
    for (size_t i = 0; i < domain.size(); ++i) {
      param_index.emplace(domain[i], static_cast<uint32_t>(i));
      std::vector<uint32_t>& row = results[i];
      for (const Tuple& t : query.Evaluate(g, domain[i])) {
        auto [it, inserted] =
            active_index.emplace(t, static_cast<uint32_t>(active.size()));
        if (inserted) active.push_back(t);
        row.push_back(it->second);
      }
      std::sort(row.begin(), row.end());
      row.erase(std::unique(row.begin(), row.end()), row.end());
    }
    containing.resize(active.size());
    for (size_t i = 0; i < results.size(); ++i) {
      for (uint32_t w : results[i]) containing[w].push_back(static_cast<uint32_t>(i));
    }
  }

  std::optional<size_t> FindParam(const Tuple& t) const {
    auto it = param_index.find(t);
    if (it == param_index.end()) return std::nullopt;
    return it->second;
  }
  std::optional<size_t> FindActive(const Tuple& t) const {
    auto it = active_index.find(t);
    if (it == active_index.end()) return std::nullopt;
    return it->second;
  }
};

}  // namespace qpwm

#endif  // QPWM_TESTS_REFERENCE_INDEX_H_
