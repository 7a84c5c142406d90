// Query answer machinery: the sets W_a = psi(a, G) of weighted elements a
// query touches, the active set W = union_a W_a, the answer sets
// A_a = {(b, W(b)) : b in W_a} a server returns, and the AnswerServer
// interface that models the paper's indirect-access threat model (the
// detector may only see answers, never the suspect's weight table).
#ifndef QPWM_CORE_ANSWERS_H_
#define QPWM_CORE_ANSWERS_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "qpwm/logic/query.h"
#include "qpwm/structure/structure.h"
#include "qpwm/structure/weighted.h"
#include "qpwm/util/status.h"
#include "qpwm/util/thread_annotations.h"

namespace qpwm {

/// One answer row: a result tuple and its weight.
struct AnswerRow {
  Tuple element;
  Weight weight;
};

/// A_a for one parameter.
using AnswerSet = std::vector<AnswerRow>;

/// Columnar batch of answer sets: one flat element array, one weight per
/// row, row extents per parameter. Detection reads millions of answer rows
/// per run; the AnswerSet shape pays one heap tuple per row, while this
/// batch is three contiguous arrays that a reusable instance amortizes to
/// zero steady-state allocation. Row r of parameter p spans
/// elems[elem_offsets[r], elem_offsets[r+1]) for r in
/// [param_offsets[p], param_offsets[p+1]).
struct FlatAnswerBatch {
  std::vector<ElemId> elems;
  std::vector<uint32_t> elem_offsets{0};
  std::vector<Weight> weights;
  std::vector<uint32_t> param_offsets{0};

  size_t num_rows() const { return weights.size(); }
  size_t num_params() const { return param_offsets.size() - 1; }

  void Clear() {
    elems.clear();
    elem_offsets.assign(1, 0);
    weights.clear();
    param_offsets.assign(1, 0);
  }
  void AppendRow(const Tuple& element, Weight w) {
    if (element.size() == 1) {
      elems.push_back(element[0]);  // the common unary row, without a range insert
    } else {
      elems.insert(elems.end(), element.begin(), element.end());
    }
    elem_offsets.push_back(static_cast<uint32_t>(elems.size()));
    weights.push_back(w);
  }
  /// AppendRow for a one-element row, without building a Tuple.
  void AppendUnaryRow(ElemId element, Weight w) {
    elems.push_back(element);
    elem_offsets.push_back(static_cast<uint32_t>(elems.size()));
    weights.push_back(w);
  }
  /// Closes the current parameter's row range.
  void FinishParam() {
    param_offsets.push_back(static_cast<uint32_t>(num_rows()));
  }
};

/// Precomputed query results over a parameter domain.
///
/// Active elements (the paper's W) are interned to dense indices; per-param
/// results and the inverse map (which params contain a given active element)
/// are both kept, since the schemes need both directions. Both directions
/// are CSR-packed: one offsets array and one id array each.
///
/// The query is bound to the structure once, at construction, and the
/// evaluator is kept: bound() answers parameters outside the domain against
/// the same structure state the index was built from.
class QueryIndex {
 public:
  // qpwm-lint: allow(legacy-tuple-vector) — sink parameter; the index owns its query-parameter domain
  QueryIndex(const Structure& g, const ParametricQuery& query, std::vector<Tuple> domain);

  const Structure& structure() const { return *g_; }
  const ParametricQuery& query() const { return *query_; }
  /// The query bound to structure() when the index was built.
  const BoundQuery& bound() const { return bound_; }

  size_t num_params() const { return domain_.size(); }
  const Tuple& param(size_t i) const { return domain_[i]; }
  const std::vector<Tuple>& domain() const { return domain_; }

  /// Index of a parameter tuple in the domain (the first, when the domain
  /// repeats it).
  [[nodiscard]] Result<size_t> FindParam(const Tuple& params) const;

  /// |W|: number of distinct active weighted elements.
  size_t num_active() const { return active_.size(); }
  const Tuple& active_element(size_t w) const { return active_[w]; }

  /// Dense index of an s-tuple among the active elements.
  [[nodiscard]] Result<size_t> FindActive(const Tuple& t) const;

  /// Result-arity-1 fast path: active id of element `e`, or -1 when `e` is
  /// inactive or out of the universe. Only available when the query's result
  /// arity is 1 (see has_unary_actives()); batched detection uses it to map
  /// answer rows back to active ids with one array read instead of a tuple
  /// hash.
  int32_t ActiveIdOfElem(ElemId e) const {
    if (e >= active_of_elem_.size()) return -1;
    return active_of_elem_[e];
  }
  bool has_unary_actives() const { return !active_of_elem_.empty(); }

  /// W_a as sorted active-element indices.
  std::span<const uint32_t> ResultFor(size_t param_idx) const {
    return {result_ids_.data() + result_offsets_[param_idx],
            result_offsets_[param_idx + 1] - result_offsets_[param_idx]};
  }

  /// Parameters whose result set contains active element `w`, ascending.
  std::span<const uint32_t> ParamsContaining(size_t w) const {
    return {containing_ids_.data() + containing_offsets_[w],
            containing_offsets_[w + 1] - containing_offsets_[w]};
  }

  /// Membership test (binary search over the sorted result list).
  bool Contains(size_t param_idx, size_t w) const;

  /// f(a) = sum of weights over W_a under `weights`.
  Weight SumWeights(size_t param_idx, const WeightMap& weights) const;

 private:
  /// Open-addressing hash set of ids into a caller-owned tuple array, keyed
  /// by the tuples themselves: interning stores 4 bytes per id and never
  /// copies a key. Probing is linear over a power-of-two slot array kept at
  /// most half full.
  class TupleIdTable {
   public:
    /// Id of the tuple equal to `t` among `tuples`, if one was interned.
    std::optional<uint32_t> Find(const std::vector<Tuple>& tuples,
                                 const Tuple& t) const;
    /// Id of the first interned tuple equal to tuples[id], interning `id`
    /// when there is none.
    uint32_t InternExisting(const std::vector<Tuple>& tuples, uint32_t id);
    /// Id of the interned tuple equal to `t`; when there is none, moves `t`
    /// to the end of `tuples` and interns that new id.
    uint32_t InternMove(std::vector<Tuple>& tuples, Tuple& t);

   private:
    static constexpr uint32_t kEmpty = UINT32_MAX;
    /// Slot holding the id of a tuple equal to `t`, or the empty slot where
    /// its probe sequence ends.
    size_t Probe(const std::vector<Tuple>& tuples, const Tuple& t) const;
    /// Grows (and rehashes) so one more id keeps the table at most half full.
    void ReserveOneMore(const std::vector<Tuple>& tuples);

    std::vector<uint32_t> slots_;
    size_t size_ = 0;
  };

  const Structure* g_;
  const ParametricQuery* query_;
  BoundQuery bound_;
  // qpwm-lint: allow(legacy-tuple-vector) — owned query-parameter domain, not relation rows
  std::vector<Tuple> domain_;
  TupleIdTable param_ids_;  // over domain_
  // qpwm-lint: allow(legacy-tuple-vector) — interned query results, moved out of Evaluate's answer sets
  std::vector<Tuple> active_;
  TupleIdTable active_ids_;              // over active_; result arity != 1
  std::vector<int32_t> active_of_elem_;  // result arity 1 only; -1 = inactive
  std::vector<uint32_t> result_offsets_;      // num_params + 1
  std::vector<uint32_t> result_ids_;          // per param: active ids, sorted
  std::vector<uint32_t> containing_offsets_;  // num_active + 1
  std::vector<uint32_t> containing_ids_;      // per active: params, sorted
};

/// Flat snapshot of a WeightMap over a QueryIndex's active elements: slot w
/// holds the weight of active_element(w). Serving reads the same few
/// thousand weights over and over; the view turns every read into an O(1)
/// vector index instead of a per-tuple hash lookup. Tuples outside the index
/// (out-of-domain parameters' results) stay on the WeightMap — the view only
/// ever covers the active set.
class DenseWeightView {
 public:
  DenseWeightView(const QueryIndex& index, const WeightMap& weights);

  /// Weight of active element `w` (a QueryIndex active id).
  Weight at(size_t w) const { return dense_[w]; }
  size_t size() const { return dense_.size(); }

 private:
  std::vector<Weight> dense_;
};

/// A suspect data server: answers parametric queries, nothing else.
class AnswerServer {
 public:
  virtual ~AnswerServer() = default;
  /// Returns A_a for parameter tuple `params`.
  virtual AnswerSet Answer(const Tuple& params) const = 0;
};

/// A server that can answer many parameters in one round trip. Detection
/// batches all distinct witness parameters of a run into a single call, so
/// servers that can amortize work across parameters (or a remote server that
/// would otherwise pay one network round trip per Answer) get to.
class BatchAnswerServer : public AnswerServer {
 public:
  /// Returns {Answer(params[0]), ..., Answer(params[n-1])}. The default
  /// loops over Answer(); overrides must return the exact same answers.
  virtual std::vector<AnswerSet> AnswerBatch(const std::vector<Tuple>& params) const;

  /// Columnar AnswerBatch: same rows in the same order, written into a
  /// caller-owned (reusable) batch. The default converts AnswerBatch();
  /// servers with flat internals (HonestServer, ServingSnapshot,
  /// HonestTreeServer) override to
  /// skip the per-row AnswerSet materialization entirely.
  virtual void AnswerAllFlat(const std::vector<Tuple>& params,
                             FlatAnswerBatch& out) const;
};

/// Answers every parameter through the batch interface when the server
/// implements it, else one Answer() call per parameter. Result order matches
/// `params` either way.
std::vector<AnswerSet> AnswerAll(const AnswerServer& server,
                                 const std::vector<Tuple>& params);

/// Columnar AnswerAll: fills `out` with the exact rows AnswerAll would
/// return, through the server's flat override when it has one.
void AnswerAllFlat(const AnswerServer& server, const std::vector<Tuple>& params,
                   FlatAnswerBatch& out);

/// A server honestly serving a (possibly watermarked / attacked) weight map
/// over the owner's structure. Immutable: the weights are fixed at
/// construction and snapshot into a DenseWeightView, so an in-domain
/// parameter is served from the shared index with O(1) weight reads. A
/// parameter outside the registered domain is evaluated through the index's
/// binding (QueryIndex::bound()); one of the wrong arity, or naming an
/// element outside the universe, gets an empty answer.
class HonestServer : public BatchAnswerServer {
 public:
  HonestServer(const QueryIndex& index, WeightMap weights)
      : index_(&index), weights_(std::move(weights)), view_(index, weights_) {}

  AnswerSet Answer(const Tuple& params) const override;
  void AnswerAllFlat(const std::vector<Tuple>& params,
                     FlatAnswerBatch& out) const override;

  const WeightMap& weights() const { return weights_; }

 private:
  /// Appends the rows of A_params to `out` (an AnswerSet or a
  /// FlatAnswerBatch), in answer order.
  template <typename Out>
  void Serve(const Tuple& params, Out& out) const;

  const QueryIndex* index_;
  WeightMap weights_;
  DenseWeightView view_ QPWM_VIEW_OF(weights_);
};

/// An epoch-stamped serving snapshot: an HonestServer over a frozen copy of
/// the weights, so a detect pass reads a consistent state no matter how the
/// writer's live weights move on. Snapshots are shared (shared_ptr) between
/// the writer and any in-flight detect passes; when the writer publishes a
/// newer epoch it calls Retire() on the old one, which flips a flag readers
/// poll to notice they lost their epoch. Retiring never invalidates the
/// data — a reader holding the shared_ptr may finish its pass against
/// retired weights if it chooses to.
class ServingSnapshot : public HonestServer {
 public:
  ServingSnapshot(const QueryIndex& index, WeightMap weights, uint64_t epoch)
      : HonestServer(index, std::move(weights)), epoch_(epoch) {}

  /// The writer epoch this snapshot was taken at.
  uint64_t epoch() const { return epoch_; }
  /// Marks the snapshot superseded. Const and thread-safe: the writer
  /// retires through the same shared_ptr<const ServingSnapshot> readers hold.
  void Retire() const { retired_.store(true, std::memory_order_release); }
  bool retired() const { return retired_.load(std::memory_order_acquire); }

 private:
  uint64_t epoch_;
  mutable std::atomic<bool> retired_{false};
};

}  // namespace qpwm

#endif  // QPWM_CORE_ANSWERS_H_
