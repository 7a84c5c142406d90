#include "qpwm/structure/neighborhood.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "qpwm/util/check.h"

namespace qpwm {
namespace {

constexpr ElemId kOutside = UINT32_MAX;

// Calls fn(relation, elems) for every record of `e`.
template <typename Fn>
void ForEachRecord(const TupleIncidence& inc, ElemId e, Fn&& fn) {
  const std::span<const uint32_t> words = inc.Records(e);
  const std::vector<uint32_t>& arity = inc.arities();
  for (size_t at = 0; at < words.size();) {
    const uint32_t rel = words[at];
    fn(rel, words.data() + at + 1, arity[rel]);
    at += 1 + arity[rel];
  }
}

}  // namespace

TupleIncidence::TupleIncidence(const Structure& s) : g_(&s) {
  static std::atomic<uint64_t> next_id{1};
  id_ = next_id.fetch_add(1, std::memory_order_relaxed);
  const size_t n = s.universe_size();
  // Two-pass CSR build: count each element's words (one record per distinct
  // element of a tuple — arities are tiny, so the repeat check is a scan
  // over earlier positions), prefix-sum, then fill with a per-element
  // cursor in (relation, tuple index) order.
  auto first_occurrence = [](TupleRef t, size_t pos) {
    for (size_t q = 0; q < pos; ++q) {
      if (t[q] == t[pos]) return false;
    }
    return true;
  };
  arity_.resize(s.num_relations());
  offsets_.assign(n + 1, 0);
  size_t total = 0;
  for (size_t r = 0; r < s.num_relations(); ++r) {
    arity_[r] = s.relation(r).arity();
    for (TupleRef t : s.relation(r).tuples()) {
      for (size_t pos = 0; pos < t.size(); ++pos) {
        if (!first_occurrence(t, pos)) continue;
        offsets_[t[pos] + 1] += 1 + arity_[r];
        total += 1 + arity_[r];
      }
    }
  }
  QPWM_CHECK_LT(total, size_t{UINT32_MAX});
  for (size_t e = 0; e < n; ++e) offsets_[e + 1] += offsets_[e];
  words_.resize(offsets_[n]);
  std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (size_t r = 0; r < s.num_relations(); ++r) {
    for (TupleRef t : s.relation(r).tuples()) {
      for (size_t pos = 0; pos < t.size(); ++pos) {
        if (!first_occurrence(t, pos)) continue;
        uint32_t* out = words_.data() + cursor[t[pos]];
        out[0] = static_cast<uint32_t>(r);
        std::copy(t.begin(), t.end(), out + 1);
        cursor[t[pos]] += 1 + arity_[r];
      }
    }
  }
}

void GatherNeighborhood(const TupleIncidence& inc, const Tuple& c, uint32_t rho,
                        NeighborhoodScratch& scratch) {
  if (scratch.bound != inc.id()) {
    scratch.local_of.assign(inc.size(), kOutside);
    scratch.rel_flat.assign(inc.arities().size(), {});
    scratch.nb.local = Structure(inc.structure().signature(), 0);
    scratch.bound = inc.id();
  }
  std::vector<ElemId>& local_of = scratch.local_of;
  std::vector<ElemId>& queue = scratch.queue;

  // Multi-source BFS by levels over the inline records; a visited element
  // holds a provisional local id until the sphere is sorted.
  queue.clear();
  for (ElemId a : c) {
    if (local_of[a] == kOutside) {
      local_of[a] = 0;
      queue.push_back(a);
    }
  }
  size_t level_begin = 0;
  for (uint32_t d = 0; d < rho && level_begin < queue.size(); ++d) {
    const size_t level_end = queue.size();
    for (size_t i = level_begin; i < level_end; ++i) {
      ForEachRecord(inc, queue[i], [&](uint32_t, const ElemId* elems, uint32_t a) {
        for (uint32_t j = 0; j < a; ++j) {
          if (local_of[elems[j]] == kOutside) {
            local_of[elems[j]] = 0;
            queue.push_back(elems[j]);
          }
        }
      });
    }
    level_begin = level_end;
  }

  std::vector<ElemId>& sphere = scratch.nb.global_ids;
  sphere.assign(queue.begin(), queue.end());
  std::sort(sphere.begin(), sphere.end());
  for (size_t i = 0; i < sphere.size(); ++i) {
    local_of[sphere[i]] = static_cast<ElemId>(i);
  }

  // Each tuple inside the sphere is recorded once, from the record stored
  // under its first element; distinct tuples give distinct records.
  for (std::vector<ElemId>& records : scratch.rel_flat) records.clear();
  for (ElemId e : sphere) {
    ForEachRecord(inc, e, [&](uint32_t rel, const ElemId* elems, uint32_t a) {
      if (elems[0] != e) return;
      for (uint32_t j = 0; j < a; ++j) {
        if (local_of[elems[j]] == kOutside) return;
      }
      std::vector<ElemId>& records = scratch.rel_flat[rel];
      for (uint32_t j = 0; j < a; ++j) records.push_back(local_of[elems[j]]);
    });
  }

  scratch.nb.distinguished.clear();
  for (ElemId x : c) scratch.nb.distinguished.push_back(local_of[x]);
  for (ElemId e : queue) local_of[e] = kOutside;
}

Neighborhood& MaterializeNeighborhood(const TupleIncidence& inc,
                                      NeighborhoodScratch& scratch) {
  Structure& local = scratch.nb.local;
  local.ResetUniverse(scratch.nb.global_ids.size());
  for (size_t r = 0; r < scratch.rel_flat.size(); ++r) {
    std::vector<ElemId>& records = scratch.rel_flat[r];
    const uint32_t a = inc.arities()[r];
    if (a <= 1) {
      // Unary (or empty) records sort element-wise in place.
      std::sort(records.begin(), records.end());
      local.mutable_relation(r).SwapFlatUnchecked(records);
      continue;
    }
    // Lexicographic record sort via a permutation gather.
    const size_t count = records.size() / a;
    std::vector<uint32_t>& order = scratch.rec_order;
    order.resize(count);
    std::iota(order.begin(), order.end(), 0u);
    const ElemId* base = records.data();
    std::sort(order.begin(), order.end(), [base, a](uint32_t x, uint32_t y) {
      return std::lexicographical_compare(base + x * a, base + (x + 1) * a,
                                          base + y * a, base + (y + 1) * a);
    });
    std::vector<ElemId>& sorted = scratch.rel_sorted;
    sorted.clear();
    sorted.reserve(records.size());
    for (uint32_t i : order) sorted.insert(sorted.end(), base + i * a, base + (i + 1) * a);
    local.mutable_relation(r).SwapFlatUnchecked(sorted);
  }
  return scratch.nb;
}

Neighborhood& ExtractNeighborhoodInto(const TupleIncidence& inc, const Tuple& c,
                                      uint32_t rho, NeighborhoodScratch& scratch) {
  GatherNeighborhood(inc, c, rho, scratch);
  return MaterializeNeighborhood(inc, scratch);
}

Neighborhood ExtractNeighborhood(const TupleIncidence& inc, const Tuple& c,
                                 uint32_t rho) {
  NeighborhoodScratch scratch;
  ExtractNeighborhoodInto(inc, c, rho, scratch);
  return std::move(scratch.nb);
}

}  // namespace qpwm
