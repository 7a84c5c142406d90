#include "qpwm/tree/automaton.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <tuple>

#include "qpwm/util/hash.h"

namespace qpwm {
namespace {

constexpr uint32_t kMaxStates = (1u << 21) - 3;
// Partner slot in minimization signatures for an absent child.
constexpr uint32_t kAbsentClass = UINT32_MAX;

}  // namespace

// ---------------------------------------------------------------------------
// Dta
// ---------------------------------------------------------------------------

Dta::Dta(uint32_t num_states, uint32_t alphabet_size)
    : num_states_(num_states),
      alphabet_size_(alphabet_size),
      accepting_(num_states + 1, false) {
  QPWM_CHECK_LE(num_states, kMaxStates);
  QPWM_CHECK_LE(alphabet_size, kMaxStates);
}

uint64_t Dta::PackKey(State l, State r, uint32_t sym) {
  uint64_t lv = (l == kAbsentChild) ? 0 : static_cast<uint64_t>(l) + 1;
  uint64_t rv = (r == kAbsentChild) ? 0 : static_cast<uint64_t>(r) + 1;
  return (lv << 42) | (rv << 21) | sym;
}

std::tuple<State, State, uint32_t> Dta::UnpackKey(uint64_t key) {
  uint64_t lv = key >> 42;
  uint64_t rv = (key >> 21) & ((1u << 21) - 1);
  uint32_t sym = static_cast<uint32_t>(key & ((1u << 21) - 1));
  State l = lv == 0 ? kAbsentChild : static_cast<State>(lv - 1);
  State r = rv == 0 ? kAbsentChild : static_cast<State>(rv - 1);
  return {l, r, sym};
}

void Dta::AddTransition(State left, State right, uint32_t sym, State to) {
  QPWM_CHECK(left == kAbsentChild || left <= num_states_);
  QPWM_CHECK(right == kAbsentChild || right <= num_states_);
  QPWM_CHECK_LT(sym, alphabet_size_);
  QPWM_CHECK_LE(to, num_states_);
  auto [it, inserted] = delta_.emplace(PackKey(left, right, sym), to);
  QPWM_CHECK(inserted ? true : it->second == to);
}

State Dta::Step(State left, State right, uint32_t sym) const {
  if (left == sink() || right == sink()) return sink();
  auto it = delta_.find(PackKey(left, right, sym));
  return it == delta_.end() ? sink() : it->second;
}

bool Dta::Accepts(const BinaryTree& t, const std::vector<uint32_t>& symbols) const {
  const TreeLayout layout = TreeLayout::Build(t, symbols, alphabet_size_).ValueOrDie();
  return IsAccepting(StepTable(*this).Run(layout, layout.absent(), 0)[layout.size() - 1]);
}

Dta Dta::Complement() const {
  Dta out = *this;
  for (size_t q = 0; q <= num_states_; ++q) out.accepting_[q] = !out.accepting_[q];
  return out;
}

Dta Dta::Product(const Dta& a, const Dta& b, bool conjunction) {
  QPWM_CHECK_EQ(a.alphabet_size_, b.alphabet_size_);
  const uint32_t alphabet = a.alphabet_size_;

  // Reachable pairs, interned. The pair (sink_a, sink_b) is the result's
  // implicit sink and is never interned.
  std::unordered_map<uint64_t, State> intern;
  std::vector<std::pair<State, State>> pairs;
  std::deque<State> worklist;

  auto pack = [](State qa, State qb) {
    return (static_cast<uint64_t>(qa) << 32) | qb;
  };
  auto intern_pair = [&](State qa, State qb) -> State {
    auto [it, inserted] = intern.emplace(pack(qa, qb), static_cast<State>(pairs.size()));
    if (inserted) {
      pairs.emplace_back(qa, qb);
      worklist.push_back(it->second);
    }
    return it->second;
  };

  struct Pending {
    State l, r;
    uint32_t sym;
    State to;
  };
  std::vector<Pending> transitions;

  auto step_pair = [&](State la, State lb, State ra, State rb, uint32_t sym,
                       State lhs_id, State rhs_id) {
    State ta = a.Step(la, ra, sym);
    State tb = b.Step(lb, rb, sym);
    if (ta == a.sink() && tb == b.sink()) return;  // implicit result sink
    State to = intern_pair(ta, tb);
    transitions.push_back({lhs_id, rhs_id, sym, to});
  };

  // Leaf seeds.
  for (uint32_t sym = 0; sym < alphabet; ++sym) {
    step_pair(kAbsentChild, kAbsentChild, kAbsentChild, kAbsentChild, sym,
              kAbsentChild, kAbsentChild);
  }

  // Expansion: combine each newly discovered pair with everything known.
  size_t processed = 0;
  while (processed < pairs.size()) {
    State p = static_cast<State>(processed++);
    auto [pa, pb] = pairs[p];
    for (uint32_t sym = 0; sym < alphabet; ++sym) {
      step_pair(pa, pb, kAbsentChild, kAbsentChild, sym, p, kAbsentChild);
      step_pair(kAbsentChild, kAbsentChild, pa, pb, sym, kAbsentChild, p);
      // Note: pairs.size() grows during iteration; q < pairs.size() reads the
      // live size so every (p, q) combo is eventually covered by the outer
      // loop reaching q and re-combining with all earlier pairs, p included.
      for (State q = 0; q <= p; ++q) {
        auto [qa, qb] = pairs[q];
        step_pair(pa, pb, qa, qb, sym, p, q);
        if (q != p) step_pair(qa, qb, pa, pb, sym, q, p);
      }
    }
  }

  Dta out(static_cast<uint32_t>(pairs.size()), alphabet);
  for (const Pending& tr : transitions) out.AddTransition(tr.l, tr.r, tr.sym, tr.to);
  for (State q = 0; q < pairs.size(); ++q) {
    bool acc_a = a.IsAccepting(pairs[q].first);
    bool acc_b = b.IsAccepting(pairs[q].second);
    out.SetAccepting(q, conjunction ? (acc_a && acc_b) : (acc_a || acc_b));
  }
  bool sink_acc_a = a.IsAccepting(a.sink());
  bool sink_acc_b = b.IsAccepting(b.sink());
  out.SetAccepting(out.sink(),
                   conjunction ? (sink_acc_a && sink_acc_b) : (sink_acc_a || sink_acc_b));
  return out;
}

bool Dta::IsEmpty() const {
  // Forward closure from leaf transitions; the sink is reachable on every
  // nonempty alphabet (a one-node tree whose leaf key is missing — or, if
  // all leaf keys exist, it may still be unreachable, so seed only real
  // reachability plus the sink when some leaf key is absent).
  std::vector<bool> reachable(num_states_ + 1, false);
  size_t leaf_keys = 0;
  ForEachTransition([&](State l, State r, uint32_t, State to) {
    if (l == kAbsentChild && r == kAbsentChild) {
      reachable[to] = true;
      ++leaf_keys;
    }
  });
  if (leaf_keys < alphabet_size_) reachable[sink()] = true;

  bool changed = true;
  while (changed) {
    changed = false;
    ForEachTransition([&](State l, State r, uint32_t, State to) {
      bool l_ok = l == kAbsentChild || reachable[l];
      bool r_ok = r == kAbsentChild || reachable[r];
      if (l_ok && r_ok && !reachable[to]) {
        reachable[to] = true;
        changed = true;
      }
    });
    // Sink-involving parents: any reachable state can pair with the sink
    // (or have a missing key) and fall into the sink.
    if (!reachable[sink()]) {
      // The sink becomes reachable as soon as some (l, r, sym) combination
      // of reachable states has no stored transition. Checking that exactly
      // is as costly as completing the table; over-approximating the other
      // way (never via missing keys) would be unsound for emptiness when the
      // sink accepts. We instead check exhaustively but lazily:
      std::vector<State> live;
      for (State q = 0; q < num_states_; ++q) {
        if (reachable[q]) live.push_back(q);
      }
      std::vector<State> children = live;
      children.push_back(kAbsentChild);
      bool sink_hit = false;
      for (State l : children) {
        for (State r : children) {
          if (l == kAbsentChild && r == kAbsentChild) continue;
          for (uint32_t sym = 0; sym < alphabet_size_ && !sink_hit; ++sym) {
            if (delta_.find(PackKey(l, r, sym)) == delta_.end()) sink_hit = true;
          }
          if (sink_hit) break;
        }
        if (sink_hit) break;
      }
      if (sink_hit) {
        reachable[sink()] = true;
        changed = true;
      }
    }
  }
  for (State q = 0; q <= num_states_; ++q) {
    if (reachable[q] && accepting_[q]) return false;
  }
  return true;
}

bool Dta::Equivalent(const Dta& a, const Dta& b) {
  QPWM_CHECK_EQ(a.alphabet_size(), b.alphabet_size());
  // symmetric difference empty: (a & !b) | (!a & b)
  Dta left = Product(a, b.Complement(), true);
  Dta right = Product(a.Complement(), b, true);
  return Product(left, right, false).IsEmpty();
}

Nta Dta::ToNta() const {
  Nta out(num_states_, alphabet_size_);
  ForEachTransition([&](State l, State r, uint32_t sym, State to) {
    out.AddTransition(l, r, sym, to);
  });
  for (State q = 0; q <= num_states_; ++q) out.SetAccepting(q, accepting_[q]);
  return out;
}

Dta Dta::RemapSymbols(uint32_t new_alphabet_size,
                      const std::vector<std::vector<uint32_t>>& new_syms) const {
  QPWM_CHECK_EQ(new_syms.size(), alphabet_size_);
  Dta out(num_states_, new_alphabet_size);
  ForEachTransition([&](State l, State r, uint32_t sym, State to) {
    for (uint32_t ns : new_syms[sym]) out.AddTransition(l, r, ns, to);
  });
  out.accepting_ = accepting_;
  return out;
}

namespace {

// Minimization signature entry: (side, sym, partner class, target class).
using SigEntry = std::tuple<uint8_t, uint32_t, uint32_t, uint32_t>;

}  // namespace

Dta Dta::Minimize() const {
  const uint32_t n = num_states_ + 1;  // including sink (last id)

  // --- Reachability (forward, from leaf transitions). Sink always reachable.
  std::vector<bool> reachable(n, false);
  reachable[sink()] = true;
  bool changed = true;
  while (changed) {
    changed = false;
    ForEachTransition([&](State l, State r, uint32_t sym, State to) {
      (void)sym;
      bool l_ok = l == kAbsentChild || reachable[l];
      bool r_ok = r == kAbsentChild || reachable[r];
      if (l_ok && r_ok && !reachable[to]) {
        reachable[to] = true;
        changed = true;
      }
    });
  }

  // --- Partition refinement. Unreachable states are parked in a throwaway
  // class that never constrains anything (their transitions are ignored).
  std::vector<uint32_t> cls(n);
  for (State q = 0; q < n; ++q) {
    cls[q] = !reachable[q] ? 2u : (accepting_[q] ? 1u : 0u);
  }
  size_t num_classes = 3;

  for (;;) {
    // Build signatures from stored transitions (skipping sink-class targets:
    // those are indistinguishable from missing transitions).
    const uint32_t sink_cls = cls[sink()];
    std::vector<std::vector<SigEntry>> sig(n);
    ForEachTransition([&](State l, State r, uint32_t sym, State to) {
      bool l_ok = l == kAbsentChild || reachable[l];
      bool r_ok = r == kAbsentChild || reachable[r];
      if (!l_ok || !r_ok) return;
      if (cls[to] == sink_cls) return;
      uint32_t lc = l == kAbsentChild ? kAbsentClass : cls[l];
      uint32_t rc = r == kAbsentChild ? kAbsentClass : cls[r];
      if (l != kAbsentChild) sig[l].emplace_back(0, sym, rc, cls[to]);
      if (r != kAbsentChild) sig[r].emplace_back(1, sym, lc, cls[to]);
    });

    std::map<std::pair<uint32_t, std::vector<SigEntry>>, uint32_t> next_ids;
    std::vector<uint32_t> next(n);
    for (State q = 0; q < n; ++q) {
      if (!reachable[q]) {
        next[q] = UINT32_MAX;  // placeholder, remapped below
        continue;
      }
      auto& s = sig[q];
      std::sort(s.begin(), s.end());
      s.erase(std::unique(s.begin(), s.end()), s.end());
      auto key = std::make_pair(cls[q], std::move(s));
      auto [it, inserted] =
          next_ids.emplace(std::move(key), static_cast<uint32_t>(next_ids.size()));
      (void)inserted;
      next[q] = it->second;
    }
    uint32_t junk = static_cast<uint32_t>(next_ids.size());
    for (State q = 0; q < n; ++q) {
      if (!reachable[q]) next[q] = junk;
    }
    size_t new_count = next_ids.size() + 1;
    bool stable = new_count == num_classes;
    cls = std::move(next);
    num_classes = new_count;
    if (stable) break;
  }

  // --- Rebuild: sink's class becomes the new sink. Classes renumbered so the
  // sink class lands last; the junk class collapses into the sink as well
  // (unreachable states have no observable behavior).
  const uint32_t sink_cls = cls[sink()];
  uint32_t junk_cls = UINT32_MAX;  // class of unreachable states, if any
  for (State q = 0; q < n; ++q) {
    if (!reachable[q]) {
      junk_cls = cls[q];
      break;
    }
  }

  std::vector<uint32_t> renum(num_classes + 1, UINT32_MAX);
  uint32_t next_id = 0;
  for (State q = 0; q < n; ++q) {
    uint32_t c = cls[q];
    if (c == sink_cls || c == junk_cls) continue;
    if (renum[c] == UINT32_MAX) renum[c] = next_id++;
  }
  const uint32_t new_real = next_id;  // new sink id == new_real
  auto map_cls = [&](uint32_t c) {
    return (c == sink_cls || c == junk_cls) ? new_real : renum[c];
  };

  Dta out(new_real, alphabet_size_);
  std::unordered_map<uint64_t, State> dedup;
  ForEachTransition([&](State l, State r, uint32_t sym, State to) {
    bool l_ok = l == kAbsentChild || reachable[l];
    bool r_ok = r == kAbsentChild || reachable[r];
    if (!l_ok || !r_ok) return;
    if (map_cls(cls[to]) == new_real) return;  // to-sink: leave implicit
    State nl = l == kAbsentChild ? kAbsentChild : map_cls(cls[l]);
    State nr = r == kAbsentChild ? kAbsentChild : map_cls(cls[r]);
    if (nl == new_real || nr == new_real) return;  // from-sink: absorbed
    out.AddTransition(nl, nr, sym, map_cls(cls[to]));
  });
  for (State q = 0; q < n; ++q) {
    if (!reachable[q]) continue;
    out.SetAccepting(map_cls(cls[q]), accepting_[q]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// StepTable
// ---------------------------------------------------------------------------

StepTable::StepTable(const Dta& dta)
    : num_states_(dta.num_states()),
      width_(dta.num_states() + 2),
      class_offset_(dta.alphabet_size()),
      accepting_(dta.num_states() + 1) {
  const size_t plane = size_t{width_} * width_;
  // Each symbol's column as its (cell, target) list, in ForEachTransition's
  // (left, right) order. Entries with a sink child or the sink as target say
  // what the sink default says anyway, so they are left out and equal
  // columns compare equal.
  std::vector<std::vector<std::pair<size_t, State>>> columns(dta.alphabet_size());
  dta.ForEachTransition([&](State l, State r, uint32_t sym, State to) {
    if (l == sink() || r == sink() || to == sink()) return;
    columns[sym].emplace_back(size_t{l + 1u} * width_ + (r + 1u), to);
  });
  // Classes are numbered in order of their first symbol.
  std::map<std::vector<std::pair<size_t, State>>, uint32_t> class_of;
  std::vector<const std::vector<std::pair<size_t, State>>*> class_column;
  for (uint32_t sym = 0; sym < columns.size(); ++sym) {
    auto [it, inserted] =
        class_of.emplace(std::move(columns[sym]), static_cast<uint32_t>(class_of.size()));
    if (inserted) class_column.push_back(&it->first);
    class_offset_[sym] = it->second * plane;
  }
  num_classes_ = static_cast<uint32_t>(class_column.size());
  cells_.assign(num_classes_ * plane, sink());
  for (uint32_t c = 0; c < num_classes_; ++c) {
    for (const auto& [cell, to] : *class_column[c]) cells_[c * plane + cell] = to;
  }
  for (State q = 0; q <= num_states_; ++q) accepting_[q] = dta.IsAccepting(q) ? 1 : 0;
}

std::vector<State> StepTable::Run(const TreeLayout& layout, uint32_t pebble_pos,
                                  uint32_t pebble) const {
  // Every label is below base_count(), so every symbol read is in range.
  QPWM_CHECK_LE(layout.base_count() + pebble, alphabet_size());
  const size_t n = layout.size();
  std::vector<State> state(n + 1);
  state[n] = kAbsentChild;
  for (uint32_t p = 0; p < n; ++p) {
    const uint32_t sym = layout.label(p) + (p == pebble_pos ? pebble : 0);
    state[p] = Step(state[layout.left(p)], state[layout.right(p)], sym);
  }
  return state;
}

// ---------------------------------------------------------------------------
// TreeLayout
// ---------------------------------------------------------------------------

Result<TreeLayout> TreeLayout::Build(const BinaryTree& t,
                                     const std::vector<uint32_t>& labels,
                                     uint32_t base_count) {
  const size_t n = t.size();
  const std::vector<NodeId>& post = t.Postorder();
  if (n == 0 || t.root() == kNoNode || post.size() != n) {
    return Status::InvalidArgument("tree is empty or not finalized");
  }
  if (labels.size() != n) {
    return Status::InvalidArgument("one label per tree node required");
  }
  if (*std::max_element(labels.begin(), labels.end()) >= base_count ||
      base_count > UINT32_MAX >> 1) {
    return Status::InvalidArgument("tree label outside the base alphabet");
  }
  TreeLayout layout;
  layout.base_count_ = base_count;
  const auto absent = static_cast<uint32_t>(n);
  // pos_[v + 1] is node v's position and pos_[0] = absent, so kNoNode + 1
  // (wrapping to 0) maps a missing child to absent without a branch.
  layout.pos_.resize(n + 1);
  layout.pos_[0] = absent;
  for (uint32_t p = 0; p < n; ++p) layout.pos_[post[p] + 1] = p;
  // Filled in node id order: the tree's arrays are read sequentially, and
  // only the (smaller) position table is read at random.
  layout.nodes_.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    layout.nodes_[layout.pos_[v + 1]] = {
        v, layout.pos_[t.left(v) + 1], labels[v] << 1 | (t.right(v) != kNoNode ? 1u : 0u)};
  }
  return layout;
}

// ---------------------------------------------------------------------------
// Nta
// ---------------------------------------------------------------------------

Nta::Nta(uint32_t num_states, uint32_t alphabet_size)
    : num_states_(num_states),
      alphabet_size_(alphabet_size),
      accepting_(num_states + 1, false),
      variants_(alphabet_size, 1) {
  QPWM_CHECK_LE(num_states, kMaxStates);
  QPWM_CHECK_LE(alphabet_size, kMaxStates);
}

void Nta::AddTransition(State left, State right, uint32_t sym, State to) {
  QPWM_CHECK(left == kAbsentChild || left <= num_states_);
  QPWM_CHECK(right == kAbsentChild || right <= num_states_);
  QPWM_CHECK_LT(sym, alphabet_size_);
  QPWM_CHECK_LE(to, num_states_);
  delta_[Dta::PackKey(left, right, sym)].push_back(to);
}

std::vector<State> Nta::Targets(State left, State right, uint32_t sym) const {
  if (left == sink() || right == sink()) return {sink()};
  std::vector<State> out;
  auto it = delta_.find(Dta::PackKey(left, right, sym));
  if (it != delta_.end()) out = it->second;
  // A branch that stored no target died in the sink; the sink joins the set
  // exactly when some of the symbol's branches are missing.
  if (out.size() < variants_[sym]) out.push_back(sink());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Nta Nta::RemapSymbols(uint32_t new_alphabet_size,
                      const std::vector<std::vector<uint32_t>>& new_syms) const {
  QPWM_CHECK_EQ(new_syms.size(), alphabet_size_);
  Nta out(num_states_, new_alphabet_size);
  // Every consumer sorts target sets before use, so fill order is free.
  // qpwm-lint: allow(unordered-iter) -- targets sorted by all consumers
  for (const auto& [key, targets] : delta_) {
    auto [l, r, sym] = Dta::UnpackKey(key);
    for (uint32_t ns : new_syms[sym]) {
      for (State t : targets) out.AddTransition(l, r, ns, t);
    }
  }
  out.accepting_ = accepting_;
  // Each new symbol accumulates the branch counts of its preimages.
  std::vector<uint32_t> counts(new_alphabet_size, 0);
  for (uint32_t sym = 0; sym < alphabet_size_; ++sym) {
    for (uint32_t ns : new_syms[sym]) counts[ns] += variants_[sym];
  }
  for (uint32_t ns = 0; ns < new_alphabet_size; ++ns) {
    if (counts[ns] > 0) out.variants_[ns] = counts[ns];
  }
  return out;
}

Dta Nta::Determinize() const {
  // --- Symbol-class compression. Symbols with identical transition rows
  // (and branch counts) are language-interchangeable; subset construction
  // runs over one representative per class and the result is expanded back
  // afterwards. This is what keeps the D^2 x |Sigma| table affordable: the
  // pebble-track alphabets here are large but highly redundant.
  {
    // Exact per-symbol row: (branch count, sorted list of (child key, sorted
    // targets)). Exactness matters — a hash collision here would silently
    // merge languages.
    using Row = std::pair<uint32_t, std::vector<std::pair<uint64_t, std::vector<State>>>>;
    std::vector<Row> row(alphabet_size_);
    for (uint32_t sym = 0; sym < alphabet_size_; ++sym) row[sym].first = variants_[sym];
    // qpwm-lint: allow(unordered-iter) -- rows are sorted before hashing
    for (const auto& [key, targets] : delta_) {
      auto [l, r, sym] = Dta::UnpackKey(key);
      std::vector<State> sorted = targets;
      std::sort(sorted.begin(), sorted.end());
      row[sym].second.emplace_back(Dta::PackKey(l, r, 0), std::move(sorted));
    }
    std::map<Row, uint32_t> class_of_row;
    std::vector<std::vector<uint32_t>> members;
    std::vector<uint32_t> class_of_sym(alphabet_size_);
    for (uint32_t sym = 0; sym < alphabet_size_; ++sym) {
      std::sort(row[sym].second.begin(), row[sym].second.end());
      auto [it, inserted] =
          class_of_row.emplace(std::move(row[sym]), static_cast<uint32_t>(members.size()));
      if (inserted) members.emplace_back();
      class_of_sym[sym] = it->second;
      members[it->second].push_back(sym);
    }
    if (members.size() < alphabet_size_) {
      // Build the compressed NTA over class representatives, determinize it
      // (recursively — the compressed alphabet has all-distinct classes so
      // this recursion happens exactly once), then expand.
      Nta compressed(num_states_, static_cast<uint32_t>(members.size()));
      // One source entry per compressed key (reps only): order cannot vary.
      // qpwm-lint: allow(unordered-iter) -- single entry per compressed key
      for (const auto& [key, targets] : delta_) {
        auto [l, r, sym] = Dta::UnpackKey(key);
        if (members[class_of_sym[sym]][0] != sym) continue;  // reps only
        for (State t : targets) compressed.AddTransition(l, r, class_of_sym[sym], t);
      }
      for (uint32_t c = 0; c < members.size(); ++c) {
        compressed.SetVariants(c, variants_[members[c][0]]);
      }
      compressed.accepting_ = accepting_;
      Dta small = compressed.Determinize().Minimize();
      return small.RemapSymbols(alphabet_size_, members);
    }
  }

  std::map<std::vector<State>, State> intern;
  std::vector<std::vector<State>> subsets;

  // When the sink is non-accepting, the {sink} subset is pure garbage: it
  // absorbs (Targets(sink, *, s) = {sink}) and never accepts, so it can be
  // the *result's* implicit sink — its transitions are neither stored nor
  // expanded. This is what keeps subset construction tractable on sparse
  // automata.
  const bool garbage_sink = !accepting_[sink()];
  const std::vector<State> sink_subset{sink()};
  constexpr State kToSink = UINT32_MAX - 7;

  auto intern_subset = [&](std::vector<State> s) -> State {
    if (garbage_sink && s == sink_subset) return kToSink;
    auto [it, inserted] = intern.emplace(std::move(s), static_cast<State>(subsets.size()));
    if (inserted) subsets.push_back(it->first);
    return it->second;
  };

  // Allocation-free inner loop: `seen` is a membership bitmap reused across
  // calls, `out` collects the union of Targets without intermediate vectors.
  std::vector<uint8_t> seen(num_states_ + 2, 0);
  auto combine = [&](const std::vector<State>* sl, const std::vector<State>* sr,
                     uint32_t sym) -> std::vector<State> {
    std::vector<State> out;
    auto add_all = [&](State ql, State qr) {
      if (ql == sink() || qr == sink()) {
        if (!seen[sink()]) {
          seen[sink()] = 1;
          out.push_back(sink());
        }
        return;
      }
      auto it = delta_.find(Dta::PackKey(ql, qr, sym));
      size_t stored = 0;
      if (it != delta_.end()) {
        stored = it->second.size();
        for (State t : it->second) {
          if (!seen[t]) {
            seen[t] = 1;
            out.push_back(t);
          }
        }
      }
      if (stored < variants_[sym] && !seen[sink()]) {
        seen[sink()] = 1;
        out.push_back(sink());
      }
    };
    if (sl == nullptr && sr == nullptr) {
      add_all(kAbsentChild, kAbsentChild);
    } else if (sr == nullptr) {
      for (State ql : *sl) add_all(ql, kAbsentChild);
    } else if (sl == nullptr) {
      for (State qr : *sr) add_all(kAbsentChild, qr);
    } else {
      for (State ql : *sl) {
        for (State qr : *sr) add_all(ql, qr);
      }
    }
    for (State t : out) seen[t] = 0;
    std::sort(out.begin(), out.end());
    return out;
  };

  struct Pending {
    State l, r;
    uint32_t sym;
    State to;
  };
  std::vector<Pending> transitions;

  auto record = [&](State l, State r, uint32_t sym, State to) {
    if (to == kToSink) return;  // implicit in the result
    transitions.push_back({l, r, sym, to});
  };

  // Leaf seeds.
  for (uint32_t sym = 0; sym < alphabet_size_; ++sym) {
    record(kAbsentChild, kAbsentChild, sym, intern_subset(combine(nullptr, nullptr, sym)));
  }

  const bool trace = std::getenv("QPWM_MSO_TRACE") != nullptr;
  size_t processed = 0;
  while (processed < subsets.size()) {
    State p = static_cast<State>(processed++);
    if (trace && processed % 64 == 0) {
      std::fprintf(stderr, "[determinize] processed=%zu discovered=%zu transitions=%zu\n",
                   processed, subsets.size(), transitions.size());
    }
    std::vector<State> sp = subsets[p];  // copy: subsets may reallocate
    for (uint32_t sym = 0; sym < alphabet_size_; ++sym) {
      record(p, kAbsentChild, sym, intern_subset(combine(&sp, nullptr, sym)));
      record(kAbsentChild, p, sym, intern_subset(combine(nullptr, &sp, sym)));
      for (State q = 0; q <= p; ++q) {
        std::vector<State> sq = subsets[q];
        record(p, q, sym, intern_subset(combine(&sp, &sq, sym)));
        if (q != p) {
          record(q, p, sym, intern_subset(combine(&sq, &sp, sym)));
        }
      }
    }
  }

  Dta out(static_cast<uint32_t>(subsets.size()), alphabet_size_);
  for (const Pending& tr : transitions) out.AddTransition(tr.l, tr.r, tr.sym, tr.to);
  for (State s = 0; s < subsets.size(); ++s) {
    bool acc = false;
    for (State q : subsets[s]) acc = acc || accepting_[q];
    out.SetAccepting(s, acc);
  }
  return out;
}

}  // namespace qpwm
