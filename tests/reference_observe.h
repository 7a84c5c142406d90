// Test-only reference pair reader: the detector loop from before answers
// were batched, kept as the oracle for the library's shared reader
// (ReadPairs). It asks one Answer() per element read, scans the rows
// linearly, and reads an element as erased when it is missing from its
// witness answer or appears there more than once.
#ifndef QPWM_TESTS_REFERENCE_OBSERVE_H_
#define QPWM_TESTS_REFERENCE_OBSERVE_H_

#include <optional>
#include <utility>
#include <vector>

#include "qpwm/core/answers.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/core/pairs.h"
#include "qpwm/core/tree_scheme.h"

namespace qpwm {

/// One element read: the witness parameter (none: the read is erased), the
/// element, and the owner's original weight of it.
struct ReferenceRead {
  std::optional<Tuple> witness;
  Tuple element;
  Weight original = 0;
};

inline std::optional<Weight> ReferenceReadWeight(const ReferenceRead& read,
                                                 const AnswerServer& suspect) {
  if (!read.witness) return std::nullopt;
  std::optional<Weight> found;
  for (const AnswerRow& row : suspect.Answer(*read.witness)) {
    if (row.element != read.element) continue;
    if (found) return std::nullopt;  // a duplicated row is no evidence
    found = row.weight;
  }
  return found;
}

/// reads[2i] and reads[2i+1] are pair i's plus and minus reads.
inline std::vector<PairObservation> ReferenceObservePairs(
    const std::vector<ReferenceRead>& reads, const AnswerServer& suspect) {
  std::vector<PairObservation> out;
  for (size_t i = 0; i + 1 < reads.size(); i += 2) {
    const std::optional<Weight> plus = ReferenceReadWeight(reads[i], suspect);
    const std::optional<Weight> minus = ReferenceReadWeight(reads[i + 1], suspect);
    PairObservation obs;
    if (!plus || !minus) {
      obs.erased = true;
    } else {
      obs.delta = (*plus - reads[i].original) - (*minus - reads[i + 1].original);
    }
    out.push_back(obs);
  }
  return out;
}

/// Local scheme: each element is read through the first parameter whose
/// result contains it.
inline std::vector<PairObservation> ReferenceObservePairs(
    const LocalScheme& scheme, const WeightMap& original,
    const AnswerServer& suspect) {
  const QueryIndex& index = scheme.index();
  std::vector<ReferenceRead> reads;
  for (const WeightPair& p : scheme.marking().pairs()) {
    for (const uint32_t w : {p.plus, p.minus}) {
      ReferenceRead read;
      const auto& witnesses = index.ParamsContaining(w);
      if (!witnesses.empty()) read.witness = index.param(witnesses[0]);
      read.element = index.active_element(w);
      read.original = original.Get(read.element);
      reads.push_back(std::move(read));
    }
  }
  return ReferenceObservePairs(reads, suspect);
}

/// Tree scheme: both nodes of a pair are read through the pair's witness.
inline std::vector<PairObservation> ReferenceObservePairs(
    const TreeScheme& scheme, const WeightMap& original,
    const AnswerServer& suspect) {
  std::vector<ReferenceRead> reads;
  for (const TreeScheme::DetectablePair& pair : scheme.pairs()) {
    for (const NodeId node : {pair.b_plus, pair.b_minus}) {
      reads.push_back({pair.witness, Tuple{node}, original.GetElem(node)});
    }
  }
  return ReferenceObservePairs(reads, suspect);
}

/// The library's reader on the same inputs.
template <typename Scheme>
std::vector<PairObservation> LibraryReadPairs(const Scheme& scheme,
                                              const WeightMap& original,
                                              const AnswerServer& suspect) {
  DetectScratch scratch;
  return ReadPairs(scheme.witness_plan(), scheme.SlotWeights(original), suspect,
                   scratch);
}

}  // namespace qpwm

#endif  // QPWM_TESTS_REFERENCE_OBSERVE_H_
