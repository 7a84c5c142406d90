#include "qpwm/core/answers.h"

#include <algorithm>

#include "qpwm/util/check.h"
#include "qpwm/util/parallel.h"

namespace qpwm {

QueryIndex::QueryIndex(const Structure& g, const ParametricQuery& query,
                       // qpwm-lint: allow(legacy-tuple-vector) — sink parameter; the index owns its query-parameter domain
                       std::vector<Tuple> domain)
    : g_(&g), query_(&query), domain_(std::move(domain)) {
  // Query evaluation — the dominant cost — runs over the whole domain in
  // parallel (Evaluate is const and thread-safe, see query.h). Interning
  // result tuples into dense active ids happens serially in domain order, so
  // the assigned ids, rows and inverse index are bit-identical to the serial
  // build for any thread count.
  std::vector<std::vector<Tuple>> raw = ParallelMap<std::vector<Tuple>>(
      domain_.size(), [&](size_t i) {
        QPWM_CHECK_EQ(domain_[i].size(), query.ParamArity());
        return query.Evaluate(g, domain_[i]);
      });

  results_.resize(domain_.size());
  for (size_t i = 0; i < domain_.size(); ++i) {
    param_index_.emplace(domain_[i], static_cast<uint32_t>(i));
    auto& row = results_[i];
    row.reserve(raw[i].size());
    for (Tuple& t : raw[i]) {
      QPWM_CHECK_EQ(t.size(), query.ResultArity());
      auto [it, inserted] =
          active_index_.emplace(t, static_cast<uint32_t>(active_.size()));
      if (inserted) active_.push_back(std::move(t));
      row.push_back(it->second);
    }
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  containing_.resize(active_.size());
  for (size_t i = 0; i < results_.size(); ++i) {
    for (uint32_t w : results_[i]) {
      containing_[w].push_back(static_cast<uint32_t>(i));
    }
  }
  if (query.ResultArity() == 1) {
    active_of_elem_.assign(g.universe_size(), -1);
    for (size_t w = 0; w < active_.size(); ++w) {
      active_of_elem_[active_[w][0]] = static_cast<int32_t>(w);
    }
  }
}

Result<size_t> QueryIndex::FindParam(const Tuple& params) const {
  auto it = param_index_.find(params);
  if (it == param_index_.end()) return Status::NotFound("parameter outside domain");
  return static_cast<size_t>(it->second);
}

Result<size_t> QueryIndex::FindActive(const Tuple& t) const {
  auto it = active_index_.find(t);
  if (it == active_index_.end()) return Status::NotFound("tuple is not an active element");
  return static_cast<size_t>(it->second);
}

bool QueryIndex::Contains(size_t param_idx, size_t w) const {
  const auto& row = results_[param_idx];
  return std::binary_search(row.begin(), row.end(), static_cast<uint32_t>(w));
}

Weight QueryIndex::SumWeights(size_t param_idx, const WeightMap& weights) const {
  Weight sum = 0;
  for (uint32_t w : results_[param_idx]) sum += weights.Get(active_[w]);
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
    const std::vector<uint32_t>& result = index_->ResultFor(idx.value());
    ReserveRows(out, result.size());
    for (uint32_t w : result) AppendRow(out, index_->active_element(w), view_.at(w));
    return;
  }
  // Outside the registered domain: evaluate directly, unless the parameter
  // cannot name a query input at all.
  const Structure& g = index_->structure();
  if (params.size() != index_->query().ParamArity()) return;
  for (ElemId e : params) {
    if (e >= g.universe_size()) return;
  }
  for (const Tuple& t : index_->query().Evaluate(g, params)) {
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
