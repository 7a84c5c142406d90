#include "qpwm/capacity/capacity.h"

#include <algorithm>
#include <bit>

#include "qpwm/util/check.h"

namespace qpwm {
namespace {

// Shared DFS counter. `exact` selects drift == d versus |drift| <= d.
class Counter {
 public:
  Counter(const MarkCountProblem& problem, int64_t d, bool exact)
      : problem_(problem), d_(d), exact_(exact) {
    QPWM_CHECK(!problem.moves.empty());
    min_move_ = *std::min_element(problem.moves.begin(), problem.moves.end());
    max_move_ = *std::max_element(problem.moves.begin(), problem.moves.end());
    in_sets_.resize(problem.num_elements);
    for (size_t a = 0; a < problem_.sets.size(); ++a) {
      for (uint32_t e : problem_.sets[a]) {
        QPWM_CHECK_LT(e, problem.num_elements);
        in_sets_[e].push_back(static_cast<uint32_t>(a));
      }
    }
    sum_.assign(problem_.sets.size(), 0);
    remaining_.resize(problem_.sets.size());
    for (size_t a = 0; a < problem_.sets.size(); ++a) {
      remaining_[a] = static_cast<int64_t>(problem_.sets[a].size());
    }
  }

  uint64_t Run() {
    // Constraints must be satisfiable before any assignment — in particular
    // an *empty* set (a parameter whose answer has no perturbable element)
    // pins its drift to 0 forever.
    for (size_t a = 0; a < problem_.sets.size(); ++a) {
      if (remaining_[a] == 0 ? !Closed(a) : !Feasible(a)) return 0;
    }
    return Dfs(0);
  }

 private:
  bool Feasible(size_t a) const {
    const int64_t lo = sum_[a] + remaining_[a] * min_move_;
    const int64_t hi = sum_[a] + remaining_[a] * max_move_;
    if (exact_) return lo <= d_ && d_ <= hi;
    // |drift| <= d: the reachable interval must intersect [-d, d].
    return lo <= d_ && hi >= -d_;
  }

  bool Closed(size_t a) const {
    if (exact_) return sum_[a] == d_;
    return sum_[a] >= -d_ && sum_[a] <= d_;
  }

  uint64_t Dfs(uint32_t element) {
    if (element == problem_.num_elements) return 1;
    uint64_t total = 0;
    for (int32_t move : problem_.moves) {
      bool ok = true;
      for (uint32_t a : in_sets_[element]) {
        sum_[a] += move;
        --remaining_[a];
      }
      for (uint32_t a : in_sets_[element]) {
        if (remaining_[a] == 0 ? !Closed(a) : !Feasible(a)) {
          ok = false;
          break;
        }
      }
      if (ok) total += Dfs(element + 1);
      for (uint32_t a : in_sets_[element]) {
        sum_[a] -= move;
        ++remaining_[a];
      }
    }
    return total;
  }

  const MarkCountProblem& problem_;
  const int64_t d_;
  const bool exact_;
  int64_t min_move_ = 0;
  int64_t max_move_ = 0;
  std::vector<std::vector<uint32_t>> in_sets_;
  std::vector<int64_t> sum_;
  std::vector<int64_t> remaining_;
};

}  // namespace

MarkCountProblem ProblemFromQuery(const QueryIndex& index) {
  MarkCountProblem out;
  out.num_elements = index.num_active();
  out.sets.reserve(index.num_params());
  for (size_t i = 0; i < index.num_params(); ++i) {
    const std::span<const uint32_t> row = index.ResultFor(i);
    if (!row.empty()) out.sets.emplace_back(row.begin(), row.end());
  }
  return out;
}

uint64_t CountMarkingsExact(const MarkCountProblem& problem, int64_t d) {
  return Counter(problem, d, /*exact=*/true).Run();
}

uint64_t CountMarkingsAtMost(const MarkCountProblem& problem, int64_t d) {
  return Counter(problem, d, /*exact=*/false).Run();
}

uint64_t Permanent01(const std::vector<std::vector<uint8_t>>& matrix) {
  const size_t n = matrix.size();
  QPWM_CHECK_LE(n, 30u);
  if (n == 0) return 1;
  for (const auto& row : matrix) QPWM_CHECK_EQ(row.size(), n);

  // Ryser with Gray-code subset enumeration over columns.
  // perm = (-1)^n * sum_S (-1)^{|S|} prod_i (sum_{j in S} a_ij)
  std::vector<int64_t> row_sum(n, 0);
  int64_t total = 0;
  uint32_t prev = 0;
  for (uint64_t k = 1; k < (uint64_t{1} << n); ++k) {
    uint32_t gray = static_cast<uint32_t>(k ^ (k >> 1));
    uint32_t changed_bit = gray ^ prev;
    int col = std::countr_zero(changed_bit);
    int sign_add = (gray & changed_bit) ? 1 : -1;
    for (size_t i = 0; i < n; ++i) row_sum[i] += sign_add * matrix[i][col];
    prev = gray;

    int64_t prod = 1;
    for (size_t i = 0; i < n && prod != 0; ++i) prod *= row_sum[i];
    int parity = (static_cast<size_t>(std::popcount(gray)) % 2 == n % 2) ? 1 : -1;
    total += parity * prod;
  }
  QPWM_CHECK_GE(total, 0);
  return static_cast<uint64_t>(total);
}

MarkCountProblem PermanentReduction(const std::vector<std::vector<uint8_t>>& matrix) {
  const size_t n = matrix.size();
  // Elements = edges; one constraint set per vertex (rows and columns):
  // drift exactly 1 with moves {0, +1} forces one chosen edge per vertex —
  // chosen edge sets are exactly the perfect matchings.
  MarkCountProblem out;
  out.moves = {0, +1};
  std::vector<std::vector<uint32_t>> row_sets(n), col_sets(n);
  uint32_t edge = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (matrix[i][j]) {
        row_sets[i].push_back(edge);
        col_sets[j].push_back(edge);
        ++edge;
      }
    }
  }
  out.num_elements = edge;
  for (auto& s : row_sets) out.sets.push_back(std::move(s));
  for (auto& s : col_sets) out.sets.push_back(std::move(s));
  return out;
}

}  // namespace qpwm
