// Bottom-up tree automata over binary Sigma-trees, with the closure algebra
// needed to compile MSO (Lemma 2 infrastructure): product, complement,
// symbol remapping (cylindrification / projection / permutation of pebble
// tracks), determinization and minimization.
//
// Representation notes:
//  * Dta stores its transitions sparsely (a hash map): that is the shape the
//    compile algebra builds and rewrites. Evaluation runs on a StepTable, a
//    dense immutable copy: a query owns one inside its TreeQuery
//    (tree/query.h), compiled once.
//  * A Dta has `num_states()` real states plus an implicit *sink* with id
//    `sink()` == num_states(): every missing transition goes to the sink and
//    the sink absorbs. The sink has its own accepting flag so complementation
//    is a pure flag flip — no transition enumeration ever happens.
//  * Absent children (unary / leaf positions) are the distinguished value
//    kAbsentChild, matching the paper's '*' in delta.
#ifndef QPWM_TREE_AUTOMATON_H_
#define QPWM_TREE_AUTOMATON_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "qpwm/tree/bintree.h"
#include "qpwm/util/check.h"
#include "qpwm/util/status.h"

namespace qpwm {

/// Automaton state id.
using State = uint32_t;
/// The '*' pseudo-state for a missing child.
constexpr State kAbsentChild = UINT32_MAX;

class Nta;

/// Pebbled symbol of a node. With a parameter (param_arity == 1) the
/// automaton alphabet is Sigma x {0,1}^2 (track 0 = parameter a, track 1 =
/// result b); without, Sigma x {0,1} (track 0 = b).
inline uint32_t SymbolAt(uint32_t base_label, uint32_t base_count,
                         uint32_t param_arity, bool a_here, bool b_here) {
  uint32_t bits;
  if (param_arity == 0) {
    bits = b_here ? 1 : 0;
  } else {
    bits = (a_here ? 1 : 0) | (b_here ? 2u : 0);
  }
  return base_label + base_count * bits;
}

/// Deterministic bottom-up tree automaton (complete via the implicit sink).
class Dta {
 public:
  Dta(uint32_t num_states, uint32_t alphabet_size);

  uint32_t num_states() const { return num_states_; }
  uint32_t alphabet_size() const { return alphabet_size_; }
  /// Id of the implicit absorbing sink.
  State sink() const { return num_states_; }
  size_t num_transitions() const { return delta_.size(); }

  /// Adds delta(left, right, sym) = to. left/right: real state or
  /// kAbsentChild. Duplicate keys must agree.
  void AddTransition(State left, State right, uint32_t sym, State to);

  void SetAccepting(State q, bool accepting) {
    QPWM_CHECK_LE(q, num_states_);
    accepting_[q] = accepting;
  }
  bool IsAccepting(State q) const { return accepting_[q]; }

  /// delta with sink absorption and missing-key -> sink.
  State Step(State left, State right, uint32_t sym) const;

  /// Whether the automaton accepts `t`, with `symbols[v]` the (pebbled)
  /// label of node v: one run over a layout and a StepTable built for this
  /// call. For checking the compile algebra; a query that runs more than
  /// once is compiled into a TreeQuery and run over a layout built once.
  bool Accepts(const BinaryTree& t, const std::vector<uint32_t>& symbols) const;

  /// Language complement: flips every accepting flag (sink included).
  Dta Complement() const;

  /// Product automaton accepting the conjunction (or disjunction) of the two
  /// languages. Alphabets must match.
  static Dta Product(const Dta& a, const Dta& b, bool conjunction);

  /// View as a nondeterministic automaton (shares semantics exactly,
  /// including an accepting sink if this one has it).
  Nta ToNta() const;

  /// Language-preserving state minimization (partition refinement);
  /// also drops unreachable states.
  Dta Minimize() const;

  /// Re-keys the alphabet: old symbol s becomes every symbol in
  /// new_syms[s] (used for cylindrification / track permutation — the
  /// mapping must keep the automaton deterministic, which those do).
  Dta RemapSymbols(uint32_t new_alphabet_size,
                   const std::vector<std::vector<uint32_t>>& new_syms) const;

  /// True iff the automaton accepts no tree at all.
  bool IsEmpty() const;

  /// True iff it accepts every tree over its alphabet.
  bool IsUniversal() const { return Complement().IsEmpty(); }

  /// Language equivalence: L(a) == L(b) (alphabets must match).
  static bool Equivalent(const Dta& a, const Dta& b);

  /// Iterates stored transitions as fn(left, right, sym, to), in packed-key
  /// order — a deterministic order, so callers may hash or serialize what
  /// they see without re-sorting.
  template <typename Fn>
  void ForEachTransition(Fn&& fn) const {
    std::vector<std::pair<uint64_t, State>> entries;
    entries.reserve(delta_.size());
    // qpwm-lint: allow(unordered-iter) — collection pass; sorted below
    for (const auto& kv : delta_) entries.push_back(kv);
    std::sort(entries.begin(), entries.end());
    for (const auto& [key, to] : entries) {
      auto [l, r, sym] = UnpackKey(key);
      fn(l, r, sym, to);
    }
  }

 private:
  friend class Nta;

  static uint64_t PackKey(State l, State r, uint32_t sym);
  static std::tuple<State, State, uint32_t> UnpackKey(uint64_t key);

  uint32_t num_states_;
  uint32_t alphabet_size_;
  std::unordered_map<uint64_t, State> delta_;
  std::vector<bool> accepting_;  // size num_states_ + 1 (sink last)
};

/// A finalized tree relabelled into postorder, the order every automaton
/// run loop walks (StepTable::Run, EvaluateWa, MemberWa, FindMarkRegions):
/// one pass over it reads each node's children from positions just behind
/// it instead of loading node ids scattered over the tree's arrays.
///
/// Position p holds node id(p), its label and its children's positions,
/// both below p; a missing child is absent() (== size()). A subtree is the
/// range of positions ending at its root, so the tree's root sits at
/// size() - 1, and a right child sits just below its parent: the layout
/// stores one bit for it, so a position takes 12 bytes.
///
/// Built by its owner (once per TreeScheme::Plan, once per HonestTreeServer),
/// never by the tree itself. Build checks the labels, once, so the runs over
/// a layout check nothing per node.
class TreeLayout {
 public:
  /// Lays out `t` with `labels` (one per node id). InvalidArgument when `t`
  /// is empty, was never finalized (or its Finalize failed), grew after
  /// Finalize, or a label is missing or not below `base_count`.
  [[nodiscard]] static Result<TreeLayout> Build(const BinaryTree& t,
                                                const std::vector<uint32_t>& labels,
                                                uint32_t base_count);

  size_t size() const { return nodes_.size(); }
  /// The position standing for a missing child or a node outside the tree.
  uint32_t absent() const { return static_cast<uint32_t>(nodes_.size()); }
  /// Every label is below this.
  uint32_t base_count() const { return base_count_; }

  NodeId id(uint32_t p) const { return nodes_[p].id; }
  uint32_t label(uint32_t p) const { return nodes_[p].label_and_right >> 1; }
  uint32_t left(uint32_t p) const { return nodes_[p].left; }
  uint32_t right(uint32_t p) const {
    return (nodes_[p].label_and_right & 1) != 0 ? p - 1 : absent();
  }
  /// Position of node `v`; absent() for a node outside the tree.
  uint32_t pos(NodeId v) const { return v < size() ? pos_[v + 1] : absent(); }

 private:
  struct Node {
    NodeId id;
    uint32_t left;             // position, or absent()
    uint32_t label_and_right;  // label << 1 | (has a right child)
  };

  TreeLayout() = default;

  std::vector<Node> nodes_;
  std::vector<uint32_t> pos_;  // node id + 1 -> position; pos_[0] = absent()
  uint32_t base_count_ = 0;
};

/// Dense, immutable transition table of a Dta: every run loop (EvaluateWa,
/// MemberWa, FindMarkRegions, Dta::Accepts) steps through one instead of
/// the Dta's hash map. Symbols with identical transition columns share a
/// class; cells are laid out [class][left][right] with index 0 = absent
/// child, 1..k = real states and k+1 = the sink, whose row and column hold
/// the sink. So Step is two loads, with no hashing and no sink branch.
///
/// Size: classes x (k+2)^2 states, built in one pass over the transitions.
/// A TreeQuery builds it once and shares it; it is immutable, so concurrent
/// readers need no locking.
class StepTable {
 public:
  explicit StepTable(const Dta& dta);

  uint32_t num_states() const { return num_states_; }
  uint32_t alphabet_size() const { return static_cast<uint32_t>(class_offset_.size()); }
  /// Number of distinct transition columns.
  uint32_t num_classes() const { return num_classes_; }
  State sink() const { return num_states_; }
  bool IsAccepting(State q) const { return accepting_[q] != 0; }

  /// Dta::Step, exactly. left/right: a real state, the sink or kAbsentChild;
  /// sym < alphabet_size().
  State Step(State left, State right, uint32_t sym) const {
    // kAbsentChild + 1 wraps to 0, the absent-child index.
    return cells_[class_offset_[sym] + size_t{left + 1u} * width_ + (right + 1u)];
  }

  /// Bottom-up run over `layout`, in position order. Position p reads
  /// symbol label + `pebble` when p == `pebble_pos` (pass layout.absent()
  /// for no pebble), its label otherwise. Returns the states by position,
  /// followed by one kAbsentChild entry: the absent child's slot, so callers
  /// read a child's state without a branch.
  std::vector<State> Run(const TreeLayout& layout, uint32_t pebble_pos,
                         uint32_t pebble) const;

 private:
  uint32_t num_states_;
  uint32_t width_;  // num_states_ + 2: absent, real states, sink
  uint32_t num_classes_ = 0;
  std::vector<size_t> class_offset_;  // per symbol: class * width_^2
  std::vector<State> cells_;
  std::vector<uint8_t> accepting_;    // num_states_ + 1 (sink last)
};

/// Nondeterministic bottom-up tree automaton. Produced by projection; the
/// sink (id num_states()) behaves as in Dta: it is always a member of the
/// target set when a child is the sink or a key is missing, and may be
/// accepting.
class Nta {
 public:
  Nta(uint32_t num_states, uint32_t alphabet_size);

  uint32_t num_states() const { return num_states_; }
  uint32_t alphabet_size() const { return alphabet_size_; }
  State sink() const { return num_states_; }

  void AddTransition(State left, State right, uint32_t sym, State to);
  void SetAccepting(State q, bool accepting) {
    QPWM_CHECK_LE(q, num_states_);
    accepting_[q] = accepting;
  }
  bool IsAccepting(State q) const { return accepting_[q]; }

  /// Number of deterministic branches folded into each symbol (1 for a plain
  /// automaton; 2^k after projecting k tracks). When a key stores fewer
  /// targets than this, the missing branches died in the sink, so the sink
  /// joins the target set — this keeps projection exact even when the sink
  /// is accepting (complemented inputs).
  void SetVariants(uint32_t sym, uint32_t count) { variants_[sym] = count; }
  uint32_t Variants(uint32_t sym) const { return variants_[sym]; }

  /// Target states of delta(left, right, sym) for *real* child states or
  /// kAbsentChild, including the sink-absorption rule.
  std::vector<State> Targets(State left, State right, uint32_t sym) const;

  /// Re-keys the alphabet: old symbol s becomes every new symbol in
  /// new_syms[s]; merging (projection) is allowed.
  Nta RemapSymbols(uint32_t new_alphabet_size,
                   const std::vector<std::vector<uint32_t>>& new_syms) const;

  /// Subset construction. The result is complete over reachable subset
  /// combinations; its sink is unreachable (and non-accepting).
  Dta Determinize() const;

 private:
  uint32_t num_states_;
  uint32_t alphabet_size_;
  // Targets are stored with branch multiplicity (duplicates preserved).
  std::unordered_map<uint64_t, std::vector<State>> delta_;
  std::vector<bool> accepting_;
  std::vector<uint32_t> variants_;
};

}  // namespace qpwm

#endif  // QPWM_TREE_AUTOMATON_H_
