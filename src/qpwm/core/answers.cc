#include "qpwm/core/answers.h"

#include <algorithm>

#include "qpwm/util/check.h"
#include "qpwm/util/parallel.h"

namespace qpwm {

size_t QueryIndex::TupleIdTable::Probe(const std::vector<Tuple>& tuples,
                                       const Tuple& t) const {
  const size_t mask = slots_.size() - 1;
  for (size_t slot = TupleHash()(t) & mask;; slot = (slot + 1) & mask) {
    const uint32_t id = slots_[slot];
    if (id == kEmpty || tuples[id] == t) return slot;
  }
}

void QueryIndex::TupleIdTable::ReserveOneMore(const std::vector<Tuple>& tuples) {
  if (2 * (size_ + 1) <= slots_.size()) return;
  std::vector<uint32_t> old = std::move(slots_);
  slots_.assign(std::max<size_t>(16, 2 * old.size()), kEmpty);
  for (uint32_t id : old) {
    if (id != kEmpty) slots_[Probe(tuples, tuples[id])] = id;
  }
}

std::optional<uint32_t> QueryIndex::TupleIdTable::Find(
    const std::vector<Tuple>& tuples, const Tuple& t) const {
  if (slots_.empty()) return std::nullopt;
  const uint32_t id = slots_[Probe(tuples, t)];
  if (id == kEmpty) return std::nullopt;
  return id;
}

uint32_t QueryIndex::TupleIdTable::InternExisting(const std::vector<Tuple>& tuples,
                                                  uint32_t id) {
  ReserveOneMore(tuples);
  uint32_t& slot = slots_[Probe(tuples, tuples[id])];
  if (slot == kEmpty) {
    slot = id;
    ++size_;
  }
  return slot;
}

uint32_t QueryIndex::TupleIdTable::InternMove(std::vector<Tuple>& tuples, Tuple& t) {
  ReserveOneMore(tuples);
  uint32_t& slot = slots_[Probe(tuples, t)];
  if (slot == kEmpty) {
    slot = static_cast<uint32_t>(tuples.size());
    tuples.push_back(std::move(t));
    ++size_;
  }
  return slot;
}

QueryIndex::QueryIndex(const Structure& g, const ParametricQuery& query,
                       // qpwm-lint: allow(legacy-tuple-vector) — sink parameter; the index owns its query-parameter domain
                       std::vector<Tuple> domain)
    : g_(&g), query_(&query), bound_(query.Bind(g)), domain_(std::move(domain)) {
  // Query evaluation — the dominant cost — runs over the whole domain in
  // parallel through the one binding (immutable, see query.h). Interning
  // result tuples into dense active ids happens serially in domain order, so
  // the assigned ids, rows and inverse index are bit-identical to the serial
  // build for any thread count.
  std::vector<std::vector<Tuple>> raw = ParallelMap<std::vector<Tuple>>(
      domain_.size(), [&](size_t i) {
        QPWM_CHECK_EQ(domain_[i].size(), query.ParamArity());
        return bound_(domain_[i]);
      });

  for (size_t i = 0; i < domain_.size(); ++i) {
    param_ids_.InternExisting(domain_, static_cast<uint32_t>(i));
  }

  // Result tuples move into active_ on first sight: unary ones through the
  // per-element id array, wider ones through the id table.
  const bool unary = query.ResultArity() == 1;
  if (unary) active_of_elem_.assign(g.universe_size(), -1);
  auto intern = [&](Tuple& t) -> uint32_t {
    QPWM_CHECK_EQ(t.size(), query.ResultArity());
    if (!unary) return active_ids_.InternMove(active_, t);
    QPWM_CHECK_LT(t[0], g.universe_size());
    int32_t& id = active_of_elem_[t[0]];
    if (id < 0) {
      id = static_cast<int32_t>(active_.size());
      active_.push_back(std::move(t));
    }
    return static_cast<uint32_t>(id);
  };
  result_offsets_.reserve(domain_.size() + 1);
  result_offsets_.push_back(0);
  for (std::vector<Tuple>& results : raw) {
    const size_t begin = result_ids_.size();
    for (Tuple& t : results) result_ids_.push_back(intern(t));
    std::sort(result_ids_.begin() + begin, result_ids_.end());
    result_ids_.erase(std::unique(result_ids_.begin() + begin, result_ids_.end()),
                      result_ids_.end());
    result_offsets_.push_back(static_cast<uint32_t>(result_ids_.size()));
    results = {};  // release the answer set as soon as it is interned
  }

  // Inverse lists by counting sort over the rows; filling in parameter
  // order keeps each list ascending.
  containing_offsets_.assign(active_.size() + 1, 0);
  for (uint32_t w : result_ids_) ++containing_offsets_[w + 1];
  for (size_t w = 0; w < active_.size(); ++w) {
    containing_offsets_[w + 1] += containing_offsets_[w];
  }
  containing_ids_.resize(result_ids_.size());
  std::vector<uint32_t> cursor(containing_offsets_.begin(), containing_offsets_.end() - 1);
  for (size_t i = 0; i < domain_.size(); ++i) {
    for (uint32_t w : ResultFor(i)) containing_ids_[cursor[w]++] = static_cast<uint32_t>(i);
  }
}

Result<size_t> QueryIndex::FindParam(const Tuple& params) const {
  const std::optional<uint32_t> id = param_ids_.Find(domain_, params);
  if (!id) return Status::NotFound("parameter outside domain");
  return static_cast<size_t>(*id);
}

Result<size_t> QueryIndex::FindActive(const Tuple& t) const {
  if (has_unary_actives()) {
    const int32_t id = t.size() == 1 ? ActiveIdOfElem(t[0]) : -1;
    if (id < 0) return Status::NotFound("tuple is not an active element");
    return static_cast<size_t>(id);
  }
  const std::optional<uint32_t> id = active_ids_.Find(active_, t);
  if (!id) return Status::NotFound("tuple is not an active element");
  return static_cast<size_t>(*id);
}

bool QueryIndex::Contains(size_t param_idx, size_t w) const {
  const std::span<const uint32_t> row = ResultFor(param_idx);
  return std::binary_search(row.begin(), row.end(), static_cast<uint32_t>(w));
}

Weight QueryIndex::SumWeights(size_t param_idx, const WeightMap& weights) const {
  Weight sum = 0;
  for (uint32_t w : ResultFor(param_idx)) sum += weights.Get(active_[w]);
  return sum;
}

DenseWeightView::DenseWeightView(const QueryIndex& index, const WeightMap& weights) {
  dense_.reserve(index.num_active());
  for (size_t w = 0; w < index.num_active(); ++w) {
    dense_.push_back(weights.Get(index.active_element(w)));
  }
}

std::vector<AnswerSet> BatchAnswerServer::AnswerBatch(
    const std::vector<Tuple>& params) const {
  std::vector<AnswerSet> out;
  out.reserve(params.size());
  for (const Tuple& p : params) out.push_back(Answer(p));
  return out;
}

void BatchAnswerServer::AnswerAllFlat(const std::vector<Tuple>& params,
                                      FlatAnswerBatch& out) const {
  out.Clear();
  for (const AnswerSet& answers : AnswerBatch(params)) {
    for (const AnswerRow& row : answers) out.AppendRow(row.element, row.weight);
    out.FinishParam();
  }
}

std::vector<AnswerSet> AnswerAll(const AnswerServer& server,
                                 const std::vector<Tuple>& params) {
  if (const auto* batch = dynamic_cast<const BatchAnswerServer*>(&server)) {
    return batch->AnswerBatch(params);
  }
  std::vector<AnswerSet> out;
  out.reserve(params.size());
  for (const Tuple& p : params) out.push_back(server.Answer(p));
  return out;
}

void AnswerAllFlat(const AnswerServer& server, const std::vector<Tuple>& params,
                   FlatAnswerBatch& out) {
  if (const auto* batch = dynamic_cast<const BatchAnswerServer*>(&server)) {
    batch->AnswerAllFlat(params, out);
    return;
  }
  out.Clear();
  for (const Tuple& p : params) {
    for (const AnswerRow& row : server.Answer(p)) {
      out.AppendRow(row.element, row.weight);
    }
    out.FinishParam();
  }
}

namespace {

// The two answer shapes HonestServer::Serve writes into.
void ReserveRows(AnswerSet& out, size_t rows) { out.reserve(out.size() + rows); }
void ReserveRows(FlatAnswerBatch&, size_t) {}  // reused across calls
void AppendRow(AnswerSet& out, const Tuple& element, Weight w) {
  out.push_back({element, w});
}
void AppendRow(FlatAnswerBatch& out, const Tuple& element, Weight w) {
  out.AppendRow(element, w);
}

}  // namespace

template <typename Out>
void HonestServer::Serve(const Tuple& params, Out& out) const {
  // A real server would evaluate the query; ours serves from the shared
  // index, which is observationally identical and keeps benches fast.
  auto idx = index_->FindParam(params);
  if (idx.ok()) {
    const std::span<const uint32_t> result = index_->ResultFor(idx.value());
    ReserveRows(out, result.size());
    for (uint32_t w : result) AppendRow(out, index_->active_element(w), view_.at(w));
    return;
  }
  // Outside the registered domain: evaluate through the index's binding,
  // unless the parameter cannot name a query input at all.
  const Structure& g = index_->structure();
  if (params.size() != index_->query().ParamArity()) return;
  for (ElemId e : params) {
    if (e >= g.universe_size()) return;
  }
  for (const Tuple& t : index_->bound()(params)) {
    AppendRow(out, t, weights_.Get(t));
  }
}

AnswerSet HonestServer::Answer(const Tuple& params) const {
  AnswerSet out;
  Serve(params, out);
  return out;
}

void HonestServer::AnswerAllFlat(const std::vector<Tuple>& params,
                                 FlatAnswerBatch& out) const {
  out.Clear();
  for (const Tuple& p : params) {
    Serve(p, out);
    out.FinishParam();
  }
}

}  // namespace qpwm
