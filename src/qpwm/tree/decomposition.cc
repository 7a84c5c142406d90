#include "qpwm/tree/decomposition.h"

#include <algorithm>
#include <bit>

#include "qpwm/util/check.h"
#include "qpwm/util/hash.h"
#include "qpwm/util/random.h"

namespace qpwm {
namespace {

/// The signatures of one search attempt: fixed-width rows of region-root
/// states (one per hole-state combination), keyed by the whole row in an
/// open-addressing table.
class SignatureTable {
 public:
  /// Empties the table for up to `max_rows` rows of `width` states.
  void Reset(size_t width, size_t max_rows) {
    width_ = width;
    rows_.clear();
    owners_.clear();
    size_t capacity = 8;
    while (capacity < 2 * max_rows) capacity <<= 1;
    slots_.assign(capacity, 0);
    mask_ = capacity - 1;
  }

  /// The owner of the stored row equal to `row`; if there is none, stores
  /// `row` for `owner` and returns kNoOwner.
  static constexpr uint32_t kNoOwner = UINT32_MAX;
  uint32_t FindOrInsert(const State* row, uint32_t owner) {
    uint64_t h = 0;
    for (size_t c = 0; c < width_; ++c) h = HashCombine(h, row[c]);
    for (size_t slot = (h >> 32) & mask_;; slot = (slot + 1) & mask_) {
      const uint32_t entry = slots_[slot];  // row index + 1; 0 = empty
      if (entry == 0) {
        slots_[slot] = static_cast<uint32_t>(owners_.size()) + 1;
        rows_.insert(rows_.end(), row, row + width_);
        owners_.push_back(owner);
        return kNoOwner;
      }
      if (std::equal(row, row + width_, rows_.begin() + (entry - 1) * width_)) {
        return owners_[entry - 1];
      }
    }
  }

 private:
  size_t width_ = 0;
  size_t mask_ = 0;
  std::vector<State> rows_;
  std::vector<uint32_t> owners_;
  std::vector<uint32_t> slots_;
};

}  // namespace

std::vector<MarkRegion> FindMarkRegions(const TreeLayout& layout, const TreeQuery& query,
                                        const DecompositionOptions& options,
                                        DecompositionStats* stats,
                                        const std::vector<bool>* candidate_filter) {
  QPWM_CHECK_EQ(layout.base_count(), query.base_count());
  const StepTable& table = query.table();
  const uint32_t param_arity = query.param_arity();
  const size_t n = layout.size();
  QPWM_CHECK(candidate_filter == nullptr || candidate_filter->size() == n);
  const uint32_t absent = layout.absent();
  const uint32_t base_count = layout.base_count();
  const uint32_t b_pebble = base_count << param_arity;
  const size_t m_plus = table.num_states() + 1;
  const size_t min_size = options.min_region_size > 0
                              ? options.min_region_size
                              : std::min<size_t>(2 * m_plus, 8);
  const size_t max_size =
      options.max_region_size > 0 ? options.max_region_size : 64 * m_plus;
  Rng rng(options.shuffle_seed);

  // One pass over the layout in position (post)order computes, per subtree,
  // the global DP — s0 (the state with no pebbles) and, with a parameter,
  // ach = the states achievable with the a pebble somewhere inside — next
  // to the sweep's own counts, and runs the pair searches. A finished
  // subtree's values are only read by its parent, so they wait on a stack
  // (the right child's on top) instead of filling per-node arrays; only
  // closed region roots keep theirs, for the searches that meet them as
  // holes.
  struct Subtree {
    State s0;
    uint32_t start;       // first position: the subtree is [start, root]
    uint32_t unassigned;  // nodes in no closed region
    uint32_t attempted;   // region size at the last failed search on the path
  };
  // ach as a bitset of `words` 32-bit words, iterated in ascending order.
  const size_t words = param_arity == 1 ? (m_plus + 31) / 32 : 0;
  auto for_each_state = [words](const uint32_t* bits, auto&& fn) {
    for (size_t w = 0; w < words; ++w) {
      for (uint32_t rest = bits[w]; rest != 0; rest &= rest - 1) {
        fn(static_cast<State>(w * 32 + std::countr_zero(rest)));
      }
    }
  };
  // Entry 0 of the stack stands for an absent child (an empty subtree), so
  // both children are read without branching on absent ones.
  std::vector<Subtree> pending{{kAbsentChild, absent, 0, 0}};
  std::vector<uint32_t> pending_ach(words, 0);
  std::vector<uint32_t> ach(words);  // the current subtree's

  // Per position: 0 = in no closed region, kInRegion = in one, and r + 1 =
  // the root of region r, whose s0, start and ach are kept below.
  constexpr uint32_t kInRegion = UINT32_MAX;
  std::vector<uint32_t> region_at(n, 0);
  std::vector<State> root_s0;
  std::vector<uint32_t> root_start;
  std::vector<uint32_t> root_ach;  // `words` per region

  std::vector<MarkRegion> regions;

  // Scratch of the current attempt, reused across attempts. Its k region
  // nodes have local indices 0..k-1 in position order (the region root is
  // k-1), local index k is the absent child and k+1+h is hole h.
  std::vector<uint32_t> node_pos;    // local -> position
  std::vector<uint32_t> hole_pos;    // hole -> position
  std::vector<uint32_t> local_of(n + 1);  // position (or absent) -> local index
  std::vector<uint32_t> label;       // local -> label
  std::vector<uint32_t> lchild, rchild, parent;  // local -> local
  std::vector<uint32_t> candidates;  // local indices
  std::vector<uint32_t> combo_hole;  // combo c >= 1 puts combo_state[c - 1]
  std::vector<State> combo_state;    // on hole combo_hole[c - 1]
  std::vector<State> base;           // [local][combo]: states without b
  std::vector<State> sig;            // [combo]: region-root states with b
  SignatureTable seen;

  // Collects the k unassigned nodes and the holes of the candidate region
  // rooted at p, whose subtree starts at `first`: the subtree's positions
  // scanned backward, jumping over each hole's subtree. Holes come out in
  // the scan's (root, right, left) preorder; nodes are stored back to
  // front, so in position order.
  auto collect_region = [&](uint32_t p, uint32_t first, size_t k) {
    node_pos.resize(k);
    hole_pos.clear();
    size_t next = k;
    for (uint32_t q = p + 1; q > first;) {
      const uint32_t w = q - 1;
      if (region_at[w] != 0) {
        QPWM_CHECK_NE(region_at[w], kInRegion);
        hole_pos.push_back(w);
        q = root_start[region_at[w] - 1];
      } else {
        QPWM_CHECK_GT(next, 0u);
        node_pos[--next] = w;
        q = w;
      }
    }
    QPWM_CHECK_EQ(next, 0u);
  };

  // Tries to find a neutral pair in the collected region; returns true on
  // success and fills b_plus / b_minus.
  auto find_pair = [&](NodeId& b_plus, NodeId& b_minus) {
    if (stats != nullptr) ++stats->attempts;
    const auto k = static_cast<uint32_t>(node_pos.size());

    // Candidate order is keyed: the attacker cannot predict which collision
    // pair carries the bit.
    candidates.resize(k);
    size_t num_candidates = 0;
    for (uint32_t i = 0; i < k; ++i) {
      candidates[num_candidates] = i;
      num_candidates += candidate_filter == nullptr ||
                        (*candidate_filter)[layout.id(node_pos[i])];
    }
    candidates.resize(num_candidates);
    rng.Shuffle(candidates);
    if (candidates.size() < 2) return false;

    // Reachable hole-state combinations: the all-quiet one (combo 0), plus
    // (when the query has a parameter) each single hole carrying the pebble.
    combo_hole.clear();
    combo_state.clear();
    if (param_arity == 1) {
      for (uint32_t h = 0; h < hole_pos.size(); ++h) {
        const uint32_t r = region_at[hole_pos[h]] - 1;
        for_each_state(&root_ach[r * words], [&](State q) {
          if (q == root_s0[r]) return;
          combo_hole.push_back(h);
          combo_state.push_back(q);
        });
      }
    }
    const size_t width = 1 + combo_hole.size();

    // Local children and parents (the parents recorded for the absent slot
    // and the holes are never read).
    const size_t slots = k + 1 + hole_pos.size();
    for (uint32_t i = 0; i < k; ++i) local_of[node_pos[i]] = i;
    local_of[absent] = k;
    for (uint32_t h = 0; h < hole_pos.size(); ++h) local_of[hole_pos[h]] = k + 1 + h;
    label.resize(k);
    lchild.resize(k);
    rchild.resize(k);
    parent.resize(slots);
    for (uint32_t i = 0; i < k; ++i) {
      label[i] = layout.label(node_pos[i]);
      lchild[i] = local_of[layout.left(node_pos[i])];
      rchild[i] = local_of[layout.right(node_pos[i])];
      parent[lchild[i]] = i;
      parent[rchild[i]] = i;
    }

    // Every combination's states without the b pebble, computed once.
    base.resize(slots * width);
    std::fill_n(base.begin() + k * width, width, kAbsentChild);
    for (uint32_t h = 0; h < hole_pos.size(); ++h) {
      std::fill_n(base.begin() + (k + 1 + h) * width, width,
                  root_s0[region_at[hole_pos[h]] - 1]);
    }
    for (size_t c = 1; c < width; ++c) {
      base[(k + 1 + combo_hole[c - 1]) * width + c] = combo_state[c - 1];
    }
    for (uint32_t i = 0; i < k; ++i) {
      const State* l = &base[lchild[i] * width];
      const State* r = &base[rchild[i] * width];
      State* out = &base[i * width];
      for (size_t c = 0; c < width; ++c) out[c] = table.Step(l[c], r[c], label[i]);
    }

    // The b pebble changes only the states on the path from b up to the
    // region root; every other state is the combination's base state.
    sig.resize(width);
    seen.Reset(width, candidates.size());
    for (uint32_t b : candidates) {
      {
        const State* l = &base[lchild[b] * width];
        const State* r = &base[rchild[b] * width];
        const uint32_t sym = label[b] + b_pebble;
        for (size_t c = 0; c < width; ++c) sig[c] = table.Step(l[c], r[c], sym);
      }
      for (uint32_t u = b; u != k - 1; u = parent[u]) {
        const uint32_t up = parent[u];
        const bool from_left = lchild[up] == u;
        const State* other = &base[(from_left ? rchild[up] : lchild[up]) * width];
        for (size_t c = 0; c < width; ++c) {
          const State mine = sig[c];
          sig[c] = table.Step(from_left ? mine : other[c], from_left ? other[c] : mine,
                              label[up]);
        }
      }
      const uint32_t first = seen.FindOrInsert(sig.data(), b);
      if (first != SignatureTable::kNoOwner) {
        b_plus = layout.id(node_pos[first]);
        b_minus = layout.id(node_pos[b]);
        return true;
      }
    }
    return false;
  };

  // Closes the collected region rooted at p (subtree `done`).
  auto close_region = [&](uint32_t p, const Subtree& done, NodeId b_plus,
                          NodeId b_minus) {
    MarkRegion region;
    region.root = layout.id(p);
    region.holes.reserve(hole_pos.size());
    for (uint32_t w : hole_pos) region.holes.push_back(layout.id(w));
    region.nodes.reserve(node_pos.size());
    for (uint32_t w : node_pos) {
      region_at[w] = kInRegion;
      region.nodes.push_back(layout.id(w));
    }
    region.b_plus = b_plus;
    region.b_minus = b_minus;
    region_at[p] = static_cast<uint32_t>(regions.size()) + 1;
    root_s0.push_back(done.s0);
    root_start.push_back(done.start);
    root_ach.insert(root_ach.end(), ach.begin(), ach.end());
    if (stats != nullptr) {
      stats->covered_nodes += node_pos.size();
      if (b_plus != kNoNode) {
        ++stats->paired;
      } else {
        ++stats->unpaired;
      }
    }
    regions.push_back(std::move(region));
  };

  for (uint32_t p = 0; p < n; ++p) {
    const uint32_t sym = layout.label(p);
    // Pop the children (entry 0 for an absent one).
    size_t top = pending.size() - 1;
    const size_t ri = layout.right(p) != absent ? top : 0;
    top -= ri != 0;
    const size_t li = layout.left(p) != absent ? top : 0;
    top -= li != 0;
    const Subtree l = pending[li];
    const Subtree r = pending[ri];

    Subtree done{table.Step(l.s0, r.s0, sym), std::min({l.start, r.start, p}),
                 1 + l.unassigned + r.unassigned, std::max(l.attempted, r.attempted)};
    // ach: a at p itself, in the left subtree, in the right subtree.
    std::fill(ach.begin(), ach.end(), 0);
    auto add = [&](State q) { ach[q / 32] |= 1u << (q % 32); };
    if (words > 0) {
      add(table.Step(l.s0, r.s0, sym + base_count));
      for_each_state(&pending_ach[li * words],
                     [&](State q) { add(table.Step(q, r.s0, sym)); });
      for_each_state(&pending_ach[ri * words],
                     [&](State q) { add(table.Step(l.s0, q, sym)); });
    }

    // Search once the region reaches min_size, then again only once it has
    // doubled since the last failure on this path (geometric retry keeps
    // the total work near-linear); past max_size it closes either way.
    const size_t count = done.unassigned;
    if (count >= min_size && (count >= 2 * size_t{done.attempted} || count > max_size)) {
      collect_region(p, done.start, count);
      NodeId b_plus = kNoNode, b_minus = kNoNode;
      if (find_pair(b_plus, b_minus)) {
        close_region(p, done, b_plus, b_minus);
        done.unassigned = done.attempted = 0;
      } else if (count > max_size) {
        close_region(p, done, kNoNode, kNoNode);
        done.unassigned = done.attempted = 0;
      } else {
        done.attempted = done.unassigned;
      }
    }
    pending.resize(top + 1);
    pending.push_back(done);
    pending_ach.resize((top + 1) * words);
    pending_ach.insert(pending_ach.end(), ach.begin(), ach.end());
  }

  return regions;
}

}  // namespace qpwm
