// Tests of the benchmark's quantile helpers: the plain interpolated
// quantile, and the block quantile that keeps a stall in part of a run
// from moving a reported median or p90.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "common.h"

using qpwm_bench::BlockQuantile;
using qpwm_bench::Quantile;

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void PlainQuantileInterpolates() {
  const std::vector<double> v = {4, 1, 3, 2};
  Expect(Near(Quantile(v, 0.5), 2.5), "median of 1..4 is 2.5");
  Expect(Near(Quantile(v, 0.9), 3.7), "p90 of 1..4 interpolates to 3.7");
  Expect(Quantile({}, 0.5) == 0, "no samples read 0");
}

void FewSamplesFormOneBlock() {
  std::vector<double> v;
  for (int i = 0; i < 59; ++i) v.push_back((i * 37) % 59);
  Expect(Near(BlockQuantile(v, 0.5), Quantile(v, 0.5)),
         "under three blocks' worth, the median is the plain one");
  Expect(Near(BlockQuantile(v, 0.9), Quantile(v, 0.9)),
         "under three blocks' worth, p90 is the plain one");
}

void SteadySamplesAgreeWithPlainQuantile() {
  // The same cycle of values in every block: each block's quantile, and so
  // their median, equals the quantile of the whole run.
  std::vector<double> v;
  for (int block = 0; block < 10; ++block) {
    for (int i = 0; i < 20; ++i) v.push_back(i);
  }
  Expect(Near(BlockQuantile(v, 0.5), Quantile(v, 0.5)), "steady median");
  Expect(Near(BlockQuantile(v, 0.9), Quantile(v, 0.9)), "steady p90");
}

void StallInPartOfARunIsIgnored() {
  // 400 samples of 1.0 with noise, and a stall that triples a contiguous
  // fifth of them: the plain p90 lands in the stall, the block p90 does not.
  std::vector<double> v;
  for (int i = 0; i < 400; ++i) {
    const double base = 1.0 + 0.01 * (i % 10);
    v.push_back(i >= 200 && i < 280 ? 3 * base : base);
  }
  Expect(Quantile(v, 0.9) > 2.9, "the stall moves the plain p90");
  Expect(BlockQuantile(v, 0.9) < 1.1, "the stall does not move the block p90");
  Expect(BlockQuantile(v, 0.5) < 1.1, "nor the block median");
}

void BlocksCoverEverySample() {
  // Ascending samples, 25 blocks' worth capped at 20 blocks: block medians
  // rise evenly, so their median is the run's median.
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(i);
  Expect(Near(BlockQuantile(v, 0.5), Quantile(v, 0.5)),
         "ascending samples: median of block medians is the median");
}

}  // namespace

int main() {
  PlainQuantileInterpolates();
  FewSamplesFormOneBlock();
  SteadySamplesAgreeWithPlainQuantile();
  StallInPartOfARunIsIgnored();
  BlocksCoverEverySample();
  if (failures == 0) std::cout << "stats_test: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
