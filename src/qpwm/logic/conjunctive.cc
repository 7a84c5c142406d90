#include "qpwm/logic/conjunctive.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <set>
#include <unordered_map>

#include "qpwm/logic/locality.h"
#include "qpwm/util/check.h"
#include "qpwm/util/str.h"

namespace qpwm {

namespace {

// The join index of one body atom: the resolved relation and, per position,
// value -> indices of tuples carrying that value there.
struct AtomIndex {
  const Relation* relation = nullptr;
  uint32_t rows = 0;  // relation->size() at Bind; the ids below index those rows
  std::vector<std::unordered_map<ElemId, std::vector<uint32_t>>> by_pos;
};

}  // namespace

ConjunctiveQuery::ConjunctiveQuery(std::vector<CqAtom> body, uint32_t r, uint32_t s)
    : body_(std::move(body)), r_(r), s_(s) {
  std::vector<bool> result_seen(s_, false);
  for (const CqAtom& atom : body_) {
    for (const CqTerm& term : atom.terms) {
      switch (term.kind) {
        case CqTerm::Kind::kParam:
          QPWM_CHECK_LT(term.index, r_);
          break;
        case CqTerm::Kind::kResult:
          QPWM_CHECK_LT(term.index, s_);
          result_seen[term.index] = true;
          break;
        case CqTerm::Kind::kJoin:
          num_join_ = std::max(num_join_, term.index + 1);
          break;
      }
    }
  }
  // Every result position must be constrained by the body (safe queries).
  for (bool seen : result_seen) QPWM_CHECK(seen);
}

Result<ConjunctiveQuery> ConjunctiveQuery::Parse(std::string_view text) {
  std::vector<CqAtom> body;
  uint32_t max_param = 0;
  std::set<uint32_t> result_indices;

  size_t i = 0;
  auto skip_ws = [&] {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
  };
  while (true) {
    skip_ws();
    if (i >= text.size()) break;
    // Relation name.
    size_t start = i;
    while (i < text.size() && (std::isalnum(static_cast<unsigned char>(text[i])) ||
                               text[i] == '_')) {
      ++i;
    }
    if (i == start) return Status::ParseError(StrCat("expected relation at ", i));
    CqAtom atom;
    atom.relation = std::string(text.substr(start, i - start));
    skip_ws();
    if (i >= text.size() || text[i] != '(') {
      return Status::ParseError("expected '(' after relation name");
    }
    ++i;
    for (;;) {
      skip_ws();
      if (i >= text.size()) return Status::ParseError("unterminated atom");
      char kind_char = text[i];
      if (kind_char != 'u' && kind_char != 'v' && kind_char != 'x') {
        return Status::ParseError(
            StrCat("expected variable u<N>/v<N>/x<N> at position ", i));
      }
      ++i;
      size_t num_start = i;
      while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) ++i;
      if (i == num_start) return Status::ParseError("variable needs an index");
      uint32_t index = 0;
      if (std::from_chars(text.data() + num_start, text.data() + i, index).ec !=
          std::errc()) {
        return Status::ParseError(StrCat("variable index at position ", num_start,
                                         " does not fit in 32 bits"));
      }
      if (index == 0) return Status::ParseError("variable indices are 1-based");
      CqTerm term;
      term.index = index - 1;
      if (kind_char == 'u') {
        term.kind = CqTerm::Kind::kParam;
        max_param = std::max(max_param, index);
      } else if (kind_char == 'v') {
        term.kind = CqTerm::Kind::kResult;
        result_indices.insert(index);
      } else {
        term.kind = CqTerm::Kind::kJoin;
      }
      atom.terms.push_back(term);
      skip_ws();
      if (i < text.size() && text[i] == ',') {
        ++i;
        continue;
      }
      if (i < text.size() && text[i] == ')') {
        ++i;
        break;
      }
      return Status::ParseError(StrCat("expected ',' or ')' at position ", i));
    }
    body.push_back(std::move(atom));
    skip_ws();
    if (i < text.size()) {
      if (text[i] != ',') return Status::ParseError("expected ',' between atoms");
      ++i;
    }
  }
  if (body.empty()) return Status::ParseError("empty query body");
  if (result_indices.empty()) {
    return Status::ParseError("query needs at least one result variable");
  }
  // Every result position must occur in the body (a safe query).
  const uint32_t max_result = *result_indices.rbegin();
  if (result_indices.size() != max_result) {
    return Status::ParseError(StrCat("result variables must be v1..v", max_result,
                                     " without gaps"));
  }
  return ConjunctiveQuery(std::move(body), max_param, max_result);
}

Status ConjunctiveQuery::CheckSignature(const Signature& sig) const {
  for (const CqAtom& atom : body_) {
    auto rel_idx = sig.Find(atom.relation);
    if (!rel_idx.ok()) {
      return Status::InvalidArgument(
          StrCat("query atom names unknown relation '", atom.relation, "'"));
    }
    const uint32_t arity = sig.symbol(rel_idx.value()).arity;
    if (arity != atom.terms.size()) {
      return Status::InvalidArgument(StrCat("query atom ", atom.relation, " has ",
                                            atom.terms.size(), " arguments; relation ",
                                            atom.relation, " has arity ", arity));
    }
  }
  return Status::OK();
}

BoundQuery ConjunctiveQuery::Bind(const Structure& g) const {
  QPWM_CHECK(CheckSignature(g.signature()).ok());
  std::vector<AtomIndex> index(body_.size());
  for (size_t a = 0; a < body_.size(); ++a) {
    const Relation& rel = g.relation(body_[a].relation);
    index[a].relation = &rel;
    index[a].rows = static_cast<uint32_t>(rel.size());
    index[a].by_pos.resize(rel.arity());
    for (uint32_t t = 0; t < rel.size(); ++t) {
      const TupleRef tuple = rel.tuple(t);
      for (size_t pos = 0; pos < tuple.size(); ++pos) {
        index[a].by_pos[pos][tuple[pos]].push_back(t);
      }
    }
  }
  return [this, index = std::move(index)](const Tuple& params) {
    QPWM_CHECK_EQ(params.size(), r_);
    // A structure edited since Bind aborts here rather than reading past a
    // relation's end through a stale row id.
    for (const AtomIndex& ai : index) QPWM_CHECK_EQ(ai.relation->size(), ai.rows);
    constexpr ElemId kUnbound = static_cast<ElemId>(-1);
    std::vector<ElemId> result_val(s_, kUnbound);
    std::vector<ElemId> join_val(num_join_, kUnbound);

    auto term_value = [&](const CqTerm& term) -> ElemId {
      switch (term.kind) {
        case CqTerm::Kind::kParam: return params[term.index];
        case CqTerm::Kind::kResult: return result_val[term.index];
        case CqTerm::Kind::kJoin: return join_val[term.index];
      }
      return kUnbound;
    };

    std::set<Tuple> results;
    // Backtracking join over the body atoms.
    auto recurse = [&](auto&& self, size_t atom_idx) -> void {
      if (atom_idx == body_.size()) {
        Tuple out(result_val.begin(), result_val.end());
        results.insert(std::move(out));
        return;
      }
      const CqAtom& atom = body_[atom_idx];
      const AtomIndex& ai = index[atom_idx];

      // Narrow with the most selective bound position, if any.
      const std::vector<uint32_t>* candidates = nullptr;
      std::vector<uint32_t> all;
      for (size_t pos = 0; pos < atom.terms.size(); ++pos) {
        ElemId v = term_value(atom.terms[pos]);
        if (v == kUnbound) continue;
        auto hit = ai.by_pos[pos].find(v);
        if (hit == ai.by_pos[pos].end()) return;  // no tuple matches: dead end
        if (candidates == nullptr || hit->second.size() < candidates->size()) {
          candidates = &hit->second;
        }
      }
      if (candidates == nullptr) {
        all.resize(ai.relation->size());
        for (uint32_t t = 0; t < all.size(); ++t) all[t] = t;
        candidates = &all;
      }

      for (uint32_t t : *candidates) {
        const TupleRef tuple = ai.relation->tuple(t);
        // Check consistency and bind.
        std::vector<std::pair<const CqTerm*, ElemId>> bound;
        bool ok = true;
        for (size_t pos = 0; pos < atom.terms.size() && ok; ++pos) {
          const CqTerm& term = atom.terms[pos];
          ElemId current = term_value(term);
          if (current == kUnbound) {
            if (term.kind == CqTerm::Kind::kResult) {
              result_val[term.index] = tuple[pos];
            } else {
              join_val[term.index] = tuple[pos];
            }
            bound.emplace_back(&term, tuple[pos]);
          } else if (current != tuple[pos]) {
            ok = false;
          }
        }
        if (ok) self(self, atom_idx + 1);
        for (auto& [term, value] : bound) {
          (void)value;
          if (term->kind == CqTerm::Kind::kResult) {
            result_val[term->index] = kUnbound;
          } else {
            join_val[term->index] = kUnbound;
          }
        }
      }
    };
    recurse(recurse, 0);

    return std::vector<Tuple>(results.begin(), results.end());
  };
}

std::optional<uint32_t> ConjunctiveQuery::LocalityRank() const {
  // exists x1..xj (body): quantifier rank = number of join variables. The
  // minimum is 1, not 0: the scheme types *parameter* neighborhoods, and a
  // quantifier-free atom needs radius 1 around the parameter to see which
  // results co-occur with it (the paper's own E(u, v) example has rank 1).
  return std::max<uint32_t>(1, GaifmanLocalityBound(num_join_));
}

std::string ConjunctiveQuery::Name() const {
  std::vector<std::string> atoms;
  for (const CqAtom& atom : body_) {
    std::vector<std::string> terms;
    for (const CqTerm& term : atom.terms) {
      const char* prefix = term.kind == CqTerm::Kind::kParam   ? "u"
                           : term.kind == CqTerm::Kind::kResult ? "v"
                                                                 : "x";
      terms.push_back(StrCat(prefix, term.index + 1));
    }
    atoms.push_back(StrCat(atom.relation, "(", Join(terms, ", "), ")"));
  }
  return Join(atoms, ", ");
}

}  // namespace qpwm
