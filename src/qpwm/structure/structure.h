// Finite relational structures (database instances): a universe {0..n-1} and
// one finite relation per signature symbol. Immutable after Build(); all the
// watermarking machinery treats the structure part as read-only (only weights
// are ever distorted — see weighted.h).
//
// Storage is flat (CSR): a relation keeps every tuple in one contiguous
// ElemId array strided by arity, and hands out lightweight TupleRef span
// views instead of per-tuple heap vectors. At 10^6 tuples the legacy
// vector-of-vector layout paid one allocation + pointer chase per tuple;
// the flat layout is one allocation per relation and scans linearly.
#ifndef QPWM_STRUCTURE_STRUCTURE_H_
#define QPWM_STRUCTURE_STRUCTURE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "qpwm/structure/signature.h"
#include "qpwm/util/check.h"
#include "qpwm/util/hash.h"
#include "qpwm/util/status.h"

namespace qpwm {

/// Universe element id.
using ElemId = uint32_t;

/// An r-tuple of universe elements. Owning form — used at API boundaries and
/// for construction; bulk storage lives flat inside Relation and is read
/// through TupleRef.
using Tuple = std::vector<ElemId>;

/// Hash / equality functors so Tuple can key unordered containers.
struct TupleHash {
  size_t operator()(const Tuple& t) const {
    uint64_t h = 0x12345;
    for (ElemId e : t) h = HashCombine(h, e);
    return static_cast<size_t>(h);
  }
};

/// Non-owning view of one tuple inside a Relation's flat storage. Cheap to
/// copy (pointer + length); valid until the relation's tuple set changes.
/// Compares lexicographically, including against owning Tuples, so call
/// sites migrate without behavior changes.
class TupleRef {
 public:
  TupleRef() = default;
  TupleRef(const ElemId* data, size_t size)
      : data_(data), size_(static_cast<uint32_t>(size)) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  ElemId operator[](size_t i) const { return data_[i]; }
  const ElemId* data() const { return data_; }
  const ElemId* begin() const { return data_; }
  const ElemId* end() const { return data_ + size_; }

  /// Owning copy, for the rare call site that must outlive the relation.
  Tuple ToTuple() const { return Tuple(data_, data_ + size_); }

  friend bool operator==(TupleRef a, TupleRef b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator!=(TupleRef a, TupleRef b) { return !(a == b); }
  friend bool operator<(TupleRef a, TupleRef b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(TupleRef a, const Tuple& b) {
    return a.size_ == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const Tuple& a, TupleRef b) { return b == a; }
  friend bool operator!=(TupleRef a, const Tuple& b) { return !(a == b); }
  friend bool operator!=(const Tuple& a, TupleRef b) { return !(b == a); }

 private:
  const ElemId* data_ = nullptr;
  uint32_t size_ = 0;
};

/// Random-access range of TupleRef views over a relation's flat storage —
/// what Relation::tuples() returns. Indexing and iteration produce views,
/// never copies.
class TupleList {
 public:
  class iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = TupleRef;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = TupleRef;

    iterator() = default;
    iterator(const ElemId* data, uint32_t arity, size_t index)
        : data_(data), arity_(arity), index_(index) {}

    TupleRef operator*() const { return {data_ + index_ * arity_, arity_}; }
    TupleRef operator[](difference_type k) const { return *(*this + k); }
    iterator& operator++() { ++index_; return *this; }
    iterator operator++(int) { iterator t = *this; ++index_; return t; }
    iterator& operator--() { --index_; return *this; }
    iterator& operator+=(difference_type k) { index_ += k; return *this; }
    friend iterator operator+(iterator it, difference_type k) { it.index_ += k; return it; }
    friend difference_type operator-(iterator a, iterator b) {
      return static_cast<difference_type>(a.index_) - static_cast<difference_type>(b.index_);
    }
    friend bool operator==(iterator a, iterator b) { return a.index_ == b.index_; }
    friend bool operator!=(iterator a, iterator b) { return a.index_ != b.index_; }
    friend bool operator<(iterator a, iterator b) { return a.index_ < b.index_; }

   private:
    const ElemId* data_ = nullptr;
    uint32_t arity_ = 0;
    size_t index_ = 0;
  };

  TupleList() = default;
  TupleList(const ElemId* data, uint32_t arity, size_t count)
      : data_(data), arity_(arity), count_(count) {}

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  TupleRef operator[](size_t i) const { return {data_ + i * arity_, arity_}; }
  TupleRef front() const { return (*this)[0]; }
  TupleRef back() const { return (*this)[count_ - 1]; }
  iterator begin() const { return {data_, arity_, 0}; }
  iterator end() const { return {data_, arity_, count_}; }

 private:
  const ElemId* data_ = nullptr;
  uint32_t arity_ = 0;
  size_t count_ = 0;
};

/// One interpreted relation: a deduplicated, sorted set of tuples with O(1)
/// membership tests. Tuples live in one flat ElemId vector strided by arity;
/// membership probes an open-addressing index of tuple positions, built
/// lazily on the first Contains/Add after a bulk load (bulk loads that never
/// test membership — neighborhood extraction — skip the hashing entirely).
/// The deferred build makes the first Contains call non-thread-safe on a
/// shared relation; qpwm only bulk-loads thread-private local structures.
class Relation {
 public:
  Relation() = default;
  Relation(std::string name, uint32_t arity) : name_(std::move(name)), arity_(arity) {}

  const std::string& name() const { return name_; }
  uint32_t arity() const { return arity_; }
  TupleList tuples() const { return {flat_.data(), arity_, count_}; }
  TupleRef tuple(size_t i) const { return {flat_.data() + i * arity_, arity_}; }
  size_t size() const { return count_; }
  /// Every tuple's elements, record-major.
  std::span<const ElemId> flat() const { return {flat_.data(), count_ * arity_}; }

  /// Inserts a tuple (deduplicated). Arity-checked.
  void Add(const Tuple& t) {
    QPWM_CHECK_EQ(t.size(), arity_);
    AddSpan(t.data());
  }
  void Add(TupleRef t) {
    QPWM_CHECK_EQ(t.size(), arity_);
    AddSpan(t.data());
  }

  /// Replaces the tuple list wholesale. Caller guarantees the tuples are
  /// distinct. Legacy (copying) form; prefer SwapFlatUnchecked on hot paths.
  void SetTuplesUnchecked(const std::vector<Tuple>& tuples);

  /// Replaces the tuple list with `flat` (concatenated records, size a
  /// multiple of arity; caller guarantees distinct records). The previous
  /// storage is swapped back into `flat`, so an arena caller alternating
  /// between two buffers reaches zero steady-state allocation.
  void SwapFlatUnchecked(std::vector<ElemId>& flat);

  bool Contains(const Tuple& t) const {
    return t.size() == arity_ && count_ > 0 && ContainsSpan(t.data());
  }
  bool Contains(TupleRef t) const {
    return t.size() == arity_ && count_ > 0 && ContainsSpan(t.data());
  }

  /// Sorts the tuple list for deterministic iteration order.
  void Seal();

  /// Drops every tuple but keeps the allocated capacity (arena reuse).
  void ClearKeepCapacity();

  /// Heap bytes held by tuple storage and the membership index.
  size_t BytesResident() const {
    return flat_.capacity() * sizeof(ElemId) + slots_.capacity() * sizeof(uint32_t);
  }

 private:
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  uint64_t HashSpan(const ElemId* d) const {
    uint64_t h = 0x12345;
    for (uint32_t i = 0; i < arity_; ++i) h = HashCombine(h, d[i]);
    return h;
  }
  bool EqualSpan(size_t index, const ElemId* d) const {
    const ElemId* own = flat_.data() + index * arity_;
    for (uint32_t i = 0; i < arity_; ++i) {
      if (own[i] != d[i]) return false;
    }
    return true;
  }
  void AddSpan(const ElemId* d);
  bool ContainsSpan(const ElemId* d) const;
  void RebuildSlots(size_t capacity_for) const;
  void InsertSlot(size_t index) const;

  std::string name_;
  uint32_t arity_ = 0;
  size_t count_ = 0;
  std::vector<ElemId> flat_;  // count_ * arity_ ids, record-major
  // Open-addressing membership index over record positions; valid iff
  // indexed_count_ == count_ and non-empty. Lazily (re)built.
  mutable std::vector<uint32_t> slots_;
  mutable size_t indexed_count_ = 0;
};

/// A finite tau-structure. Element names are optional and only used for
/// human-readable output (examples, figures).
///
/// A query bound to a structure (ParametricQuery::Bind, QueryIndex) reads it
/// in place: edit a structure only while nothing bound to it is in use, and
/// bind again after the edit.
class Structure {
 public:
  Structure() = default;
  Structure(Signature sig, size_t universe_size);

  const Signature& signature() const { return sig_; }
  size_t universe_size() const { return n_; }

  const Relation& relation(size_t i) const { return relations_[i]; }
  Relation& mutable_relation(size_t i) { return relations_[i]; }
  size_t num_relations() const { return relations_.size(); }

  /// Relation lookup by name (aborts if missing; use signature().Find for the
  /// fallible variant).
  const Relation& relation(const std::string& name) const;

  /// Adds a tuple to relation `rel`; all elements must be < universe_size().
  void AddTuple(size_t rel, const Tuple& t);
  void AddTuple(const std::string& rel, const Tuple& t);

  /// Sorts every relation; call once after loading.
  void Seal();

  /// Arena reuse: resizes the universe, drops every tuple and element name
  /// but keeps the signature and all allocated capacity. Neighborhood
  /// extraction recycles one local structure this
  /// way instead of constructing a fresh one per element.
  void ResetUniverse(size_t universe_size);

  /// Optional display names.
  void SetElementName(ElemId e, std::string name);
  const std::string& ElementName(ElemId e) const;
  /// Id of the element named `name`, if any.
  [[nodiscard]] Result<ElemId> FindElement(const std::string& name) const;

  /// Total number of tuples across relations.
  size_t TotalTuples() const;

  /// Heap bytes held by relation storage (flat tuples + membership indexes).
  size_t BytesResident() const;

 private:
  Signature sig_;
  size_t n_ = 0;
  std::vector<Relation> relations_;
  std::vector<std::string> element_names_;
  std::unordered_map<std::string, ElemId> name_index_;
};

/// Per-element incidence index: for each element, the (relation, tuple index)
/// pairs whose tuple contains it, CSR-packed (one offsets array + one entries
/// array). Built once; makes neighborhood extraction O(local size) instead of
/// O(structure size).
class IncidenceIndex {
 public:
  struct Entry {
    uint32_t relation;
    uint32_t tuple_index;
  };

  explicit IncidenceIndex(const Structure& s);

  std::span<const Entry> Incident(ElemId e) const {
    return {entries_.data() + offsets_[e], offsets_[e + 1] - offsets_[e]};
  }

  size_t BytesResident() const {
    return offsets_.capacity() * sizeof(uint32_t) + entries_.capacity() * sizeof(Entry);
  }

 private:
  std::vector<uint32_t> offsets_;  // universe_size + 1
  std::vector<Entry> entries_;
};

}  // namespace qpwm

#endif  // QPWM_STRUCTURE_STRUCTURE_H_
