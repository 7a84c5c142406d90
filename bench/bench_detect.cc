// bench_detect — the determinism gates of the parallel multi-suspect
// detection fan-out, plus its one performance gate. Detection time itself
// is measured, with bounds, by the `detect-trace` workload in benchmark/.
//
// Instance: a degree-4 bounded-degree graph with a distance-4 ball query
// (answer sets of a few dozen rows, shared by many pair reads) and one
// marked copy per suspect, each carrying a distinct message.
//
// Exits 1 if any check fails:
//   * the planned scheme has non-zero capacity;
//   * a clean detection recovers the embedded bits;
//   * DetectMany at 1, 2 and 8 threads is identical to a serial loop of
//     single-suspect detections (marks, margins, erasure counts);
//   * on more than one hardware thread, DetectMany at 8 threads is faster
//     than that serial loop (best of three runs each);
//   * with --sweep, DetectMany at 1 and 8 threads is identical to the serial
//     loop at 5*10^4, 2*10^5 and 10^6 elements (distance-2 balls, 8
//     suspects).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "qpwm/core/adversarial.h"
#include "qpwm/core/answers.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/logic/query.h"
#include "qpwm/structure/generators.h"
#include "qpwm/util/parallel.h"
#include "qpwm/util/random.h"

using namespace qpwm;

namespace {

constexpr size_t kDegree = 4;
constexpr size_t kRedundancy = 5;

bool SameDetection(const AdversarialDetection& a, const AdversarialDetection& b) {
  if (a.mark.size() != b.mark.size() || a.margins != b.margins ||
      a.min_margin != b.min_margin || a.group_sizes != b.group_sizes ||
      a.bit_erased != b.bit_erased || a.pairs_erased != b.pairs_erased ||
      a.bits_recovered != b.bits_recovered || a.bits_erased != b.bits_erased) {
    return false;
  }
  for (size_t i = 0; i < a.mark.size(); ++i) {
    if (a.mark.Get(i) != b.mark.Get(i)) return false;
  }
  return true;
}

bool SameDetections(const std::vector<AdversarialDetection>& a,
                    const std::vector<AdversarialDetection>& b) {
  if (a.size() != b.size()) return false;
  for (size_t s = 0; s < a.size(); ++s) {
    if (!SameDetection(a[s], b[s])) return false;
  }
  return true;
}

/// Best of three wall times of `fn`, in milliseconds.
template <typename Fn>
double BestOfThreeMs(Fn&& fn) {
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    best = rep == 0 ? ms : std::min(best, ms);
  }
  return best;
}

/// One planned scheme over a bounded-degree instance and one honest server
/// per suspect, each serving a copy marked with its own message.
struct Workload {
  Structure g;
  std::unique_ptr<QueryIndex> index;
  WeightMap weights;
  std::unique_ptr<LocalScheme> scheme;
  std::unique_ptr<AdversarialScheme> adv;
  std::vector<BitVec> messages;
  std::vector<std::unique_ptr<HonestServer>> servers;
  std::vector<const AnswerServer*> suspects;

  Workload(size_t n, uint32_t qrho, size_t num_suspects) : weights(1, 0) {
    Rng rng(42);
    g = RandomBoundedDegreeGraph(n, kDegree, 3 * n, false, rng);
    DistanceQuery query(qrho);
    index = std::make_unique<QueryIndex>(g, query, AllParams(g, 1));
    weights = RandomWeights(g, 1000, 9999, rng);
    LocalSchemeOptions opts;
    opts.epsilon = 0.02;
    opts.key = {42, 99};
    opts.encoding = PairEncoding::kAntipodal;
    scheme = std::make_unique<LocalScheme>(LocalScheme::Plan(*index, opts).ValueOrDie());
    adv = std::make_unique<AdversarialScheme>(*scheme, kRedundancy);
    for (size_t s = 0; s < num_suspects; ++s) {
      BitVec msg(adv->CapacityBits());
      Rng msg_rng(1000 + s);
      for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, msg_rng.Coin());
      servers.push_back(std::make_unique<HonestServer>(*index, adv->Embed(weights, msg)));
      suspects.push_back(servers.back().get());
      messages.push_back(std::move(msg));
    }
  }

  /// The serial bar: one single-suspect detection per suspect.
  std::vector<AdversarialDetection> DetectSerially() const {
    std::vector<AdversarialDetection> out;
    for (const AnswerServer* s : suspects) {
      out.push_back(adv->Detect(weights, *s).ValueOrDie());
    }
    return out;
  }

  /// Whether DetectMany reproduces `expected` at every thread count given.
  bool FanoutIdentical(const std::vector<AdversarialDetection>& expected,
                       std::initializer_list<size_t> thread_counts) const {
    bool identical = true;
    for (size_t threads : thread_counts) {
      SetParallelThreads(threads);
      identical &= SameDetections(expected, adv->DetectMany(weights, suspects));
    }
    SetParallelThreads(0);  // restore the env/hardware default
    return identical;
  }
};

int Fail(const char* what) {
  std::cerr << "FAIL: " << what << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool sweep = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--sweep") {
      sweep = true;
    } else {
      std::cerr << "usage: bench_detect [--sweep]\n";
      return 2;
    }
  }

  // Serving-heavy regime: distance-4 balls on a degree-4 graph give large
  // answer sets with ~7x witness sharing.
  const Workload w(2000, 4, 32);
  if (w.adv->CapacityBits() == 0) return Fail("planned scheme has zero capacity");
  std::cout << "planned " << w.scheme->CapacityBits() << " pairs ("
            << w.adv->CapacityBits() << " message bits), " << w.suspects.size()
            << " suspects\n";

  const std::vector<AdversarialDetection> serial = w.DetectSerially();
  for (size_t i = 0; i < serial[0].mark.size(); ++i) {
    if (serial[0].mark.Get(i) != w.messages[0].Get(i)) {
      return Fail("clean detection recovered a wrong bit");
    }
  }
  if (!w.FanoutIdentical(serial, {1, 2, 8})) {
    return Fail("detection output differs across threads");
  }
  std::cout << "DetectMany at 1/2/8T identical to the serial loop\n";

  // The thread pool must beat the serial loop wherever it has cores to use.
  std::vector<AdversarialDetection> out;
  const double serial_ms = BestOfThreeMs([&] { out = w.DetectSerially(); });
  SetParallelThreads(8);
  const double pooled_ms =
      BestOfThreeMs([&] { out = w.adv->DetectMany(w.weights, w.suspects); });
  SetParallelThreads(0);
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  std::cout << "serial loop " << serial_ms << " ms, DetectMany@8T " << pooled_ms
            << " ms on " << hardware_threads << " hardware threads\n";
  if (hardware_threads > 1 && !(pooled_ms < serial_ms)) {
    return Fail("parallel detection is not faster than the serial loop");
  }

  // Fan-out at large n. Distance-2 balls keep the answer index a small
  // constant per parameter; at most 8 suspects bound the marked copies.
  if (sweep) {
    for (size_t n : {size_t{50000}, size_t{200000}, size_t{1000000}}) {
      const Workload sw(n, 2, 8);
      const bool identical = sw.FanoutIdentical(sw.DetectSerially(), {1, 8});
      std::cout << "sweep n=" << n << ": DetectMany at 1/8T "
                << (identical ? "identical" : "DIFFERS") << " to the serial loop\n";
      if (!identical) return Fail("sweep detections differ across thread counts");
    }
  }
  return 0;
}
