#include "qpwm/core/attack.h"

#include <algorithm>

namespace qpwm {

WeightMap UniformNoiseAttack(const WeightMap& marked, Weight c, Rng& rng) {
  WeightMap out = marked;
  marked.ForEach([&](const Tuple& t, Weight w) {
    out.Set(t, w + rng.Uniform(-c, c));
  });
  return out;
}

WeightMap JitterAttack(const WeightMap& marked, double flip_prob, Rng& rng) {
  WeightMap out = marked;
  marked.ForEach([&](const Tuple& t, Weight w) {
    if (rng.Bernoulli(flip_prob)) out.Set(t, w + (rng.Coin() ? 1 : -1));
  });
  return out;
}

WeightMap RoundingAttack(const WeightMap& marked, Weight granularity) {
  QPWM_CHECK_GE(granularity, 1);
  WeightMap out = marked;
  marked.ForEach([&](const Tuple& t, Weight w) {
    Weight down = (w >= 0 ? w : w - granularity + 1) / granularity * granularity;
    Weight up = down + granularity;
    out.Set(t, (w - down <= up - w) ? down : up);
  });
  return out;
}

WeightMap GuessingPairAttack(const WeightMap& marked, const QueryIndex& index,
                             size_t guesses, Rng& rng) {
  WeightMap out = marked;
  const size_t n = index.num_active();
  if (n < 2) return out;
  for (size_t i = 0; i < guesses; ++i) {
    size_t a = rng.Below(n);
    size_t b = rng.Below(n);
    if (a == b) continue;
    // Attacker's guess at undoing a (+1, -1) pair.
    out.Add(index.active_element(a), -1);
    out.Add(index.active_element(b), +1);
  }
  return out;
}

Status CheckCollusionCopies(const std::vector<const WeightMap*>& copies) {
  if (copies.empty()) {
    return Status::InvalidArgument("collusion needs at least one copy");
  }
  for (size_t i = 1; i < copies.size(); ++i) {
    if (!copies[0]->SameDomain(*copies[i])) {
      return Status::InvalidArgument(
          "collusion copies cover different weight domains");
    }
  }
  return Status::OK();
}

Result<WeightMap> CollusionAttack::Forge(
    const std::vector<const WeightMap*>& copies, Rng& rng) const {
  QPWM_RETURN_NOT_OK(CheckCollusionCopies(copies));
  return ForgeValid(copies, rng);
}

WeightMap AveragingCollusion::ForgeValid(
    const std::vector<const WeightMap*>& copies, Rng&) const {
  WeightMap out = *copies[0];
  out.ForEach([&](const Tuple& t, Weight) {
    Weight sum = 0;
    for (const WeightMap* copy : copies) sum += copy->Get(t);
    const auto n = static_cast<Weight>(copies.size());
    // Round half toward the first copy's value.
    Weight rounded = sum >= 0 ? (2 * sum + n) / (2 * n) : -((-2 * sum + n) / (2 * n));
    out.Set(t, rounded);
  });
  return out;
}

WeightMap MedianCollusion::ForgeValid(
    const std::vector<const WeightMap*>& copies, Rng&) const {
  WeightMap out = *copies[0];
  std::vector<Weight> values(copies.size());
  out.ForEach([&](const Tuple& t, Weight) {
    for (size_t i = 0; i < copies.size(); ++i) values[i] = copies[i]->Get(t);
    std::sort(values.begin(), values.end());
    // Lower median: deterministic for even counts.
    out.Set(t, values[(values.size() - 1) / 2]);
  });
  return out;
}

WeightMap MinMaxCollusion::ForgeValid(
    const std::vector<const WeightMap*>& copies, Rng& rng) const {
  WeightMap out = *copies[0];
  out.ForEach([&](const Tuple& t, Weight) {
    Weight lo = copies[0]->Get(t);
    Weight hi = lo;
    for (size_t i = 1; i < copies.size(); ++i) {
      const Weight w = copies[i]->Get(t);
      lo = std::min(lo, w);
      hi = std::max(hi, w);
    }
    out.Set(t, rng.Coin() ? hi : lo);
  });
  return out;
}

InterleavingCollusion::InterleavingCollusion(size_t segment_len)
    : segment_len_(segment_len) {
  QPWM_CHECK_GE(segment_len_, 1u);
}

std::string InterleavingCollusion::Name() const {
  return "interleave:" + std::to_string(segment_len_);
}

WeightMap InterleavingCollusion::ForgeValid(
    const std::vector<const WeightMap*>& copies, Rng& rng) const {
  WeightMap out = *copies[0];
  // ForEach visits the domain in its deterministic order, so segments are
  // encountered (and their owners drawn) in a fixed sequence: one Below()
  // draw per segment, replayable from the rng seed alone.
  size_t pos = 0;
  size_t owner = 0;
  out.ForEach([&](const Tuple& t, Weight) {
    if (pos % segment_len_ == 0) {
      owner = static_cast<size_t>(rng.Below(copies.size()));
    }
    ++pos;
    out.Set(t, copies[owner]->Get(t));
  });
  return out;
}

const std::vector<std::string>& KnownCollusionSpecs() {
  static const std::vector<std::string> kSpecs = {"averaging", "median",
                                                  "minmax", "interleave"};
  return kSpecs;
}

Result<std::unique_ptr<CollusionAttack>> MakeCollusionAttack(
    const std::string& spec) {
  if (spec == "averaging") {
    return std::unique_ptr<CollusionAttack>(new AveragingCollusion());
  }
  if (spec == "median") {
    return std::unique_ptr<CollusionAttack>(new MedianCollusion());
  }
  if (spec == "minmax") {
    return std::unique_ptr<CollusionAttack>(new MinMaxCollusion());
  }
  const std::string kInterleave = "interleave";
  if (spec.rfind(kInterleave, 0) == 0) {
    size_t segment_len = 64;
    if (spec.size() > kInterleave.size()) {
      if (spec[kInterleave.size()] != ':') {
        return Status::InvalidArgument("unknown collusion attack: " + spec);
      }
      const std::string len = spec.substr(kInterleave.size() + 1);
      segment_len = 0;
      for (char c : len) {
        if (c < '0' || c > '9') {
          return Status::InvalidArgument("bad interleave segment length: " + spec);
        }
        segment_len = segment_len * 10 + static_cast<size_t>(c - '0');
        if (segment_len > 1u << 20) break;
      }
      if (segment_len < 1 || segment_len > 1u << 20) {
        return Status::InvalidArgument("bad interleave segment length: " + spec);
      }
    }
    return std::unique_ptr<CollusionAttack>(new InterleavingCollusion(segment_len));
  }
  return Status::InvalidArgument("unknown collusion attack: " + spec);
}

void TamperedAnswerServer::Tamper(const Tuple& params, AnswerSet& rows) const {
  if (!erased_.empty()) {
    rows.erase(std::remove_if(rows.begin(), rows.end(),
                              [&](const AnswerRow& row) {
                                return erased_.count(row.element) != 0;
                              }),
               rows.end());
  }
  auto it = inserted_at_.find(params);
  if (it != inserted_at_.end()) {
    rows.insert(rows.end(), it->second.begin(), it->second.end());
  }
  rows.insert(rows.end(), inserted_everywhere_.begin(), inserted_everywhere_.end());
}

void TamperedAnswerServer::Erase(const Tuple& element) {
  if (!erased_.insert(element).second) return;
  if (element.size() != 1) {
    ++erased_wide_;
    return;
  }
  if (element[0] >= erased_unary_.size()) {
    erased_unary_.resize(static_cast<size_t>(element[0]) + 1);
  }
  erased_unary_[element[0]] = true;
}

bool TamperedAnswerServer::IsErased(const ElemId* elems, size_t size,
                                    Tuple& scratch) const {
  if (size == 1) return elems[0] < erased_unary_.size() && erased_unary_[elems[0]];
  if (erased_wide_ == 0) return false;
  scratch.assign(elems, elems + size);
  return erased_.count(scratch) != 0;
}

AnswerSet TamperedAnswerServer::Answer(const Tuple& params) const {
  AnswerSet out = base_->Answer(params);
  Tamper(params, out);
  return out;
}

std::vector<AnswerSet> TamperedAnswerServer::AnswerBatch(
    const std::vector<Tuple>& params) const {
  std::vector<AnswerSet> out = AnswerAll(*base_, params);
  for (size_t i = 0; i < params.size(); ++i) Tamper(params[i], out[i]);
  return out;
}

void TamperedAnswerServer::AnswerAllFlat(const std::vector<Tuple>& params,
                                         FlatAnswerBatch& out) const {
  qpwm::AnswerAllFlat(*base_, params, out);
  const size_t num_params = out.num_params();

  // Erasures: compact the rows in place, front to back. The write cursor
  // never passes the read cursor, and each offset is read before its slot
  // is rewritten.
  if (!erased_.empty()) {
    Tuple scratch;
    size_t rows = 0;
    size_t elems = 0;
    size_t row = 0;
    for (size_t p = 0; p < num_params; ++p) {
      for (const size_t end_row = out.param_offsets[p + 1]; row < end_row; ++row) {
        const uint32_t begin = out.elem_offsets[row];
        const uint32_t end = out.elem_offsets[row + 1];
        if (IsErased(out.elems.data() + begin, end - begin, scratch)) continue;
        if (elems != begin) {
          std::copy(out.elems.data() + begin, out.elems.data() + end,
                    out.elems.data() + elems);
        }
        elems += end - begin;
        out.weights[rows] = out.weights[row];
        out.elem_offsets[++rows] = static_cast<uint32_t>(elems);
      }
      out.param_offsets[p + 1] = static_cast<uint32_t>(rows);
    }
    out.elems.resize(elems);
    out.weights.resize(rows);
    out.elem_offsets.resize(rows + 1);
  }

  // Insertions: parameter p gains its InsertAt rows, then the
  // InsertEverywhere rows. Grow the arrays once, then fill them back to
  // front: every row moves to a slot at or after its old one, so nothing is
  // overwritten before it has moved.
  if (inserted_at_.empty() && inserted_everywhere_.empty()) return;
  std::vector<const AnswerSet*> planted(num_params, nullptr);
  size_t rows = out.num_rows();
  size_t elems = out.elems.size();
  auto grow = [&](const AnswerSet& added) {
    rows += added.size();
    for (const AnswerRow& r : added) elems += r.element.size();
  };
  for (size_t p = 0; p < num_params; ++p) {
    if (!inserted_at_.empty()) {
      auto it = inserted_at_.find(params[p]);
      if (it != inserted_at_.end()) {
        planted[p] = &it->second;
        grow(it->second);
      }
    }
    grow(inserted_everywhere_);
  }
  out.weights.resize(rows);
  out.elems.resize(elems);
  out.elem_offsets.resize(rows + 1);
  // Writes row (element range, weight) into the slot just before the cursor.
  auto put = [&](const ElemId* begin, const ElemId* end, Weight w) {
    out.elem_offsets[rows] = static_cast<uint32_t>(elems);
    elems -= static_cast<size_t>(end - begin);
    if (out.elems.data() + elems != begin) {
      std::copy_backward(begin, end, out.elems.data() + elems + (end - begin));
    }
    out.weights[--rows] = w;
  };
  auto put_all = [&](const AnswerSet& added) {
    for (size_t k = added.size(); k-- > 0;) {
      const Tuple& e = added[k].element;
      put(e.data(), e.data() + e.size(), added[k].weight);
    }
  };
  for (size_t p = num_params; p-- > 0;) {
    const uint32_t first = out.param_offsets[p];
    const uint32_t last = out.param_offsets[p + 1];
    out.param_offsets[p + 1] = static_cast<uint32_t>(rows);
    put_all(inserted_everywhere_);
    if (planted[p] != nullptr) put_all(*planted[p]);
    for (uint32_t row = last; row-- > first;) {
      const ElemId* data = out.elems.data();
      put(data + out.elem_offsets[row], data + out.elem_offsets[row + 1],
          out.weights[row]);
    }
  }
}

std::vector<Tuple> SampleSubset(const std::vector<Tuple>& elements, double frac,
                                Rng& rng) {
  // qpwm-lint: allow(legacy-tuple-vector) — cold adversary path assembling a sampled subset
  std::vector<Tuple> out;
  for (const Tuple& t : elements) {
    if (rng.Bernoulli(frac)) out.push_back(t);
  }
  return out;
}

std::vector<Tuple> SubsetDeletionAttack(const QueryIndex& index, double drop_frac,
                                        Rng& rng) {
  // qpwm-lint: allow(legacy-tuple-vector) — cold adversary path materializing deletion candidates
  std::vector<Tuple> elements;
  elements.reserve(index.num_active());
  for (size_t w = 0; w < index.num_active(); ++w) {
    elements.push_back(index.active_element(w));
  }
  return SampleSubset(elements, drop_frac, rng);
}

std::vector<FakeTuplePlacement> MakeFakeTupleRows(const QueryIndex& index,
                                                  const WeightMap& marked,
                                                  size_t count, Rng& rng) {
  std::vector<FakeTuplePlacement> out;
  if (index.num_params() == 0) return out;
  // Plausible weight range: the marked map's observed min..max.
  Weight lo = 0, hi = 0;
  bool first = true;
  marked.ForEach([&](const Tuple&, Weight w) {
    if (first) {
      lo = hi = w;
      first = false;
    } else {
      lo = std::min(lo, w);
      hi = std::max(hi, w);
    }
  });
  const ElemId fresh_base =
      static_cast<ElemId>(index.structure().universe_size());
  const uint32_t s = marked.s();
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Tuple fresh(s, fresh_base + static_cast<ElemId>(i));
    AnswerRow row{std::move(fresh), rng.Uniform(lo, hi)};
    out.push_back({static_cast<size_t>(rng.Below(index.num_params())),
                   std::move(row)});
  }
  return out;
}

void TupleInsertionAttack(TamperedAnswerServer& server, const QueryIndex& index,
                          const WeightMap& marked, size_t count, Rng& rng) {
  for (FakeTuplePlacement& p : MakeFakeTupleRows(index, marked, count, rng)) {
    server.InsertAt(index.param(p.param_idx), std::move(p.row));
  }
}

std::vector<Tuple> PairRegionDeletionAttack(const QueryIndex& index,
                                            const std::vector<WeightPair>& pairs,
                                            size_t redundancy, double region_frac,
                                            Rng& rng) {
  QPWM_CHECK_GE(redundancy, 1u);
  // qpwm-lint: allow(legacy-tuple-vector) — cold adversary path assembling the deletion set
  std::vector<Tuple> out;
  const size_t groups = pairs.size() / redundancy;
  if (groups == 0 || region_frac <= 0) return out;
  const size_t burst = std::min(
      groups, static_cast<size_t>(region_frac * static_cast<double>(groups) + 0.5));
  if (burst == 0) return out;
  const size_t start = static_cast<size_t>(rng.Below(groups - burst + 1));
  std::unordered_set<uint32_t> doomed;
  for (size_t g = start; g < start + burst; ++g) {
    for (size_t k = 0; k < redundancy; ++k) {
      const WeightPair& pair = pairs[g * redundancy + k];
      doomed.insert(pair.plus);
      doomed.insert(pair.minus);
    }
  }
  out.reserve(doomed.size());
  // qpwm-lint: allow(unordered-iter) -- drained fully; sorted just below
  for (uint32_t w : doomed) out.push_back(index.active_element(w));
  // Deterministic output order regardless of hash-set iteration.
  std::sort(out.begin(), out.end());
  return out;
}

ComposedSuspect ApplyComposedAttack(const QueryIndex& index,
                                    const std::vector<WeightPair>& pairs,
                                    size_t redundancy, const WeightMap& marked,
                                    const ComposedAttackSpec& spec) {
  Rng rng(spec.seed);
  ComposedSuspect out;
  out.seed = spec.seed;

  // Value tier: noise, jitter, rounding — in spec order, each optional.
  WeightMap weights = marked;
  if (spec.noise > 0) weights = UniformNoiseAttack(weights, spec.noise, rng);
  if (spec.jitter_prob > 0) weights = JitterAttack(weights, spec.jitter_prob, rng);
  if (spec.rounding > 0) weights = RoundingAttack(weights, spec.rounding);

  out.base = std::make_unique<HonestServer>(index, std::move(weights));
  out.server = std::make_unique<TamperedAnswerServer>(*out.base);

  // Structural tier: burst first (it models one correlated loss event),
  // then independent deletion, then insertion.
  if (spec.region_frac > 0) {
    for (const Tuple& t :
         PairRegionDeletionAttack(index, pairs, redundancy, spec.region_frac, rng)) {
      out.server->Erase(t);
    }
  }
  if (spec.deletion_frac > 0) {
    for (const Tuple& t : SubsetDeletionAttack(index, spec.deletion_frac, rng)) {
      out.server->Erase(t);
    }
  }
  out.elements_erased = out.server->num_erased();
  if (spec.insertion_frac > 0) {
    out.rows_inserted = static_cast<size_t>(
        spec.insertion_frac * static_cast<double>(index.num_active()));
    TupleInsertionAttack(*out.server, index, out.base->weights(),
                         out.rows_inserted, rng);
  }
  return out;
}

}  // namespace qpwm
