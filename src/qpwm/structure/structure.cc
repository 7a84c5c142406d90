#include "qpwm/structure/structure.h"

#include <algorithm>
#include <numeric>

namespace qpwm {

void Relation::RebuildSlots(size_t capacity_for) const {
  size_t want = 16;
  while (want < 2 * (capacity_for + 1)) want <<= 1;
  slots_.assign(want, kEmptySlot);
  indexed_count_ = 0;
  for (size_t i = 0; i < count_; ++i) InsertSlot(i);
  indexed_count_ = count_;
}

void Relation::InsertSlot(size_t index) const {
  const size_t mask = slots_.size() - 1;
  size_t pos = static_cast<size_t>(HashSpan(flat_.data() + index * arity_)) & mask;
  while (slots_[pos] != kEmptySlot) pos = (pos + 1) & mask;
  slots_[pos] = static_cast<uint32_t>(index);
}

bool Relation::ContainsSpan(const ElemId* d) const {
  if (indexed_count_ != count_ || slots_.empty()) RebuildSlots(count_);
  const size_t mask = slots_.size() - 1;
  size_t pos = static_cast<size_t>(HashSpan(d)) & mask;
  while (slots_[pos] != kEmptySlot) {
    if (EqualSpan(slots_[pos], d)) return true;
    pos = (pos + 1) & mask;
  }
  return false;
}

void Relation::AddSpan(const ElemId* d) {
  // Keep the probe table at most half full so lookups stay O(1).
  if (indexed_count_ != count_ || slots_.size() < 2 * (count_ + 1)) {
    RebuildSlots(count_ + 1);
  }
  const size_t mask = slots_.size() - 1;
  size_t pos = static_cast<size_t>(HashSpan(d)) & mask;
  while (slots_[pos] != kEmptySlot) {
    if (EqualSpan(slots_[pos], d)) return;  // deduplicated
    pos = (pos + 1) & mask;
  }
  slots_[pos] = static_cast<uint32_t>(count_);
  flat_.insert(flat_.end(), d, d + arity_);
  ++count_;
  ++indexed_count_;
}

void Relation::SetTuplesUnchecked(const std::vector<Tuple>& tuples) {
  flat_.clear();
  flat_.reserve(tuples.size() * arity_);
  for (const Tuple& t : tuples) {
    QPWM_CHECK_EQ(t.size(), arity_);
    flat_.insert(flat_.end(), t.begin(), t.end());
  }
  count_ = tuples.size();
  slots_.clear();
  indexed_count_ = 0;
}

void Relation::SwapFlatUnchecked(std::vector<ElemId>& flat) {
  QPWM_CHECK(arity_ > 0 || flat.empty());
  flat_.swap(flat);
  count_ = arity_ == 0 ? 0 : flat_.size() / arity_;
  QPWM_CHECK_EQ(count_ * arity_, flat_.size());
  slots_.clear();
  indexed_count_ = 0;
}

void Relation::Seal() {
  if (count_ > 1 && arity_ > 0) {
    if (arity_ == 1) {
      std::sort(flat_.begin(), flat_.end());
    } else {
      // Record sort via an index permutation, gathered into a fresh buffer
      // (records are small; a gather beats in-place cycle chasing).
      std::vector<uint32_t> order(count_);
      std::iota(order.begin(), order.end(), 0u);
      const ElemId* base = flat_.data();
      const uint32_t a = arity_;
      std::sort(order.begin(), order.end(), [base, a](uint32_t x, uint32_t y) {
        return std::lexicographical_compare(base + x * a, base + (x + 1) * a,
                                            base + y * a, base + (y + 1) * a);
      });
      std::vector<ElemId> sorted;
      sorted.reserve(flat_.size());
      for (uint32_t idx : order) {
        sorted.insert(sorted.end(), base + idx * a, base + (idx + 1) * a);
      }
      flat_ = std::move(sorted);
    }
    // Record positions changed; the membership index rebuilds on next use.
    slots_.clear();
    indexed_count_ = 0;
  }
}

void Relation::ClearKeepCapacity() {
  flat_.clear();
  count_ = 0;
  slots_.clear();
  indexed_count_ = 0;
}

Structure::Structure(Signature sig, size_t universe_size)
    : sig_(std::move(sig)), n_(universe_size) {
  relations_.reserve(sig_.size());
  for (const auto& sym : sig_.symbols()) {
    relations_.emplace_back(sym.name, sym.arity);
  }
}

const Relation& Structure::relation(const std::string& name) const {
  auto idx = sig_.Find(name);
  QPWM_CHECK(idx.ok());
  return relations_[idx.value()];
}

void Structure::AddTuple(size_t rel, const Tuple& t) {
  QPWM_CHECK_LT(rel, relations_.size());
  for (ElemId e : t) QPWM_CHECK_LT(e, n_);
  relations_[rel].Add(t);
}

void Structure::AddTuple(const std::string& rel, const Tuple& t) {
  auto idx = sig_.Find(rel);
  QPWM_CHECK(idx.ok());
  AddTuple(idx.value(), t);
}

void Structure::Seal() {
  for (auto& r : relations_) r.Seal();
}

void Structure::ResetUniverse(size_t universe_size) {
  n_ = universe_size;
  for (auto& r : relations_) r.ClearKeepCapacity();
  element_names_.clear();
  name_index_.clear();
}

void Structure::SetElementName(ElemId e, std::string name) {
  QPWM_CHECK_LT(e, n_);
  if (element_names_.empty()) element_names_.resize(n_);
  name_index_[name] = e;
  element_names_[e] = std::move(name);
}

const std::string& Structure::ElementName(ElemId e) const {
  static const std::string kEmpty;
  if (element_names_.empty() || e >= element_names_.size()) return kEmpty;
  return element_names_[e];
}

Result<ElemId> Structure::FindElement(const std::string& name) const {
  auto it = name_index_.find(name);
  if (it == name_index_.end()) return Status::NotFound("no element named '" + name + "'");
  return it->second;
}

size_t Structure::TotalTuples() const {
  size_t total = 0;
  for (const auto& r : relations_) total += r.size();
  return total;
}

size_t Structure::BytesResident() const {
  size_t total = relations_.capacity() * sizeof(Relation);
  for (const auto& r : relations_) total += r.BytesResident();
  return total;
}

IncidenceIndex::IncidenceIndex(const Structure& s) {
  const size_t n = s.universe_size();
  // Two-pass CSR build: count each element's entries (each distinct element
  // once per tuple even if it repeats there — arities are tiny, so the
  // repeat check is a linear scan over earlier positions), prefix-sum into
  // offsets, then fill with a per-element cursor. The fill visits tuples in
  // (relation, tuple index) order, so each element's entry list comes out
  // sorted exactly like the legacy per-element push_back build.
  offsets_.assign(n + 1, 0);
  auto first_occurrence = [](TupleRef t, size_t pos) {
    for (size_t q = 0; q < pos; ++q) {
      if (t[q] == t[pos]) return false;
    }
    return true;
  };
  for (size_t r = 0; r < s.num_relations(); ++r) {
    const TupleList tuples = s.relation(r).tuples();
    for (size_t ti = 0; ti < tuples.size(); ++ti) {
      const TupleRef t = tuples[ti];
      for (size_t pos = 0; pos < t.size(); ++pos) {
        if (first_occurrence(t, pos)) ++offsets_[t[pos] + 1];
      }
    }
  }
  for (size_t e = 0; e < n; ++e) offsets_[e + 1] += offsets_[e];
  entries_.resize(offsets_[n]);
  std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (size_t r = 0; r < s.num_relations(); ++r) {
    const TupleList tuples = s.relation(r).tuples();
    for (size_t ti = 0; ti < tuples.size(); ++ti) {
      const TupleRef t = tuples[ti];
      for (size_t pos = 0; pos < t.size(); ++pos) {
        if (first_occurrence(t, pos)) {
          entries_[cursor[t[pos]]++] = {static_cast<uint32_t>(r),
                                       static_cast<uint32_t>(ti)};
        }
      }
    }
  }
}

}  // namespace qpwm
