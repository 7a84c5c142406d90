// E5 — Theorem 3 / Proposition 2: the local-query scheme on bounded-degree
// structures. For each (degree bound k, |universe|, epsilon) cell we report
// ntp, candidate pairs, selected bits l, the verified distortion bound
// against the budget ceil(1/eps), marker success statistics (Prop 2's 3/4),
// and detector recovery over random marks. Ablations: class pairing on/off,
// paper-random vs greedy selection.
#include <iostream>
#include <optional>
#include <string>

#include "qpwm/core/distortion.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/logic/query.h"
#include "qpwm/structure/generators.h"
#include "qpwm/util/json.h"
#include "qpwm/util/random.h"
#include "qpwm/util/str.h"
#include "qpwm/util/table.h"

using namespace qpwm;

namespace {

struct CellResult {
  size_t ntp = 0;
  size_t candidates = 0;
  size_t bits = 0;
  uint32_t bound = 0;
  uint32_t budget = 0;
  int tries = 0;
  bool detected = true;
};

CellResult RunCell(size_t n, size_t k, double epsilon, LocalSchemeOptions base,
                   uint64_t seed) {
  Rng rng(seed);
  Structure g = RandomBoundedDegreeGraph(n, k, 3 * n, false, rng);
  auto query = AtomQuery::Adjacency("E");
  QueryIndex index(g, *query, AllParams(g, 1));
  WeightMap w = RandomWeights(g, 100, 999, rng);

  base.epsilon = epsilon;
  base.key = {seed, seed ^ 0x1234};
  auto scheme = LocalScheme::Plan(index, base).ValueOrDie();

  CellResult out;
  out.ntp = scheme.NumTypes();
  out.candidates = scheme.CandidatePairs();
  out.bits = scheme.CapacityBits();
  out.bound = scheme.DistortionBound();
  out.budget = scheme.Budget();
  out.tries = scheme.TriesUsed();
  if (out.bits > 0) {
    BitVec mark(out.bits);
    for (size_t i = 0; i < out.bits; ++i) mark.Set(i, rng.Coin());
    WeightMap marked = scheme.Embed(w, mark);
    HonestServer server(index, marked);
    auto detected = scheme.Detect(w, server);
    out.detected = detected.ok() && detected.value() == mark;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<std::string> json_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json_path = "BENCH_plan.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::cerr << "usage: bench_local_scheme [--json[=PATH]]\n";
      return 2;
    }
  }

  std::cout << "=== bench_local_scheme: Theorem 3 on STRUCT_k ===\n";

  JsonWriter json;
  json.BeginObject();
  json.Key("schema_version").Int(1);
  json.Key("local_scheme").BeginObject();
  json.Key("sweep").BeginArray();
  TextTable sweep("Capacity and distortion vs |U|, k, epsilon (query E(u,v))");
  sweep.SetHeader({"|U|", "k", "1/eps", "ntp", "pairs", "bits l", "bound", "budget",
                   "tries", "detect"});
  for (size_t k : {2, 3, 4}) {
    for (size_t n : {200, 1000, 4000}) {
      for (double inv_eps : {1.0, 2.0, 4.0}) {
        CellResult r = RunCell(n, k, 1.0 / inv_eps, {}, n * 31 + k);
        sweep.AddRow({StrCat(n), StrCat(k), StrCat(inv_eps), StrCat(r.ntp),
                      StrCat(r.candidates), StrCat(r.bits), StrCat(r.bound),
                      StrCat(r.budget), StrCat(r.tries),
                      r.detected ? "OK" : "FAIL"});
        json.BeginObject();
        json.Key("n").UInt(n);
        json.Key("k").UInt(k);
        json.Key("inv_eps").Double(inv_eps);
        json.Key("ntp").UInt(r.ntp);
        json.Key("candidate_pairs").UInt(r.candidates);
        json.Key("bits").UInt(r.bits);
        json.Key("distortion_bound").UInt(r.bound);
        json.Key("budget").UInt(r.budget);
        json.Key("tries").Int(r.tries);
        json.Key("detected").Bool(r.detected);
        json.EndObject();
      }
    }
  }
  json.EndArray();
  json.EndObject();
  json.EndObject();
  sweep.Print(std::cout);
  std::cout << "shape check: bits grow with |U| at fixed (k, eps); the verified "
               "bound never exceeds the budget; detection is exact.\n";

  // Marker success probability (Proposition 2's >= 3/4): count first-try
  // epsilon-good subsets over independent keys.
  {
    TextTable success("Marker success statistics over 40 keys (n=1000, k=3)");
    success.SetHeader({"1/eps", "first-try ok", "mean tries"});
    for (double inv_eps : {1.0, 2.0, 4.0}) {
      int first_try = 0;
      int total_tries = 0;
      for (uint64_t key = 0; key < 40; ++key) {
        Rng rng(9000 + key);
        Structure g = RandomBoundedDegreeGraph(1000, 3, 3000, false, rng);
        auto query = AtomQuery::Adjacency("E");
        QueryIndex index(g, *query, AllParams(g, 1));
        LocalSchemeOptions opts;
        opts.epsilon = 1.0 / inv_eps;
        opts.key = {key, key + 99};
        auto scheme = LocalScheme::Plan(index, opts).ValueOrDie();
        first_try += scheme.TriesUsed() <= 1;
        total_tries += scheme.TriesUsed();
      }
      success.AddRow({StrCat(inv_eps), StrCat(first_try, "/40"),
                      FmtDouble(total_tries / 40.0, 2)});
    }
    success.Print(std::cout);
    std::cout << "Prop 2 claims success probability >= 3/4 per try.\n";
  }

  // Ablations.
  {
    TextTable ablation("Ablation (n=2000, k=3, 1/eps=2): pairing and selection");
    ablation.SetHeader({"variant", "bits l", "bound", "tries"});
    struct Variant {
      const char* name;
      LocalSchemeOptions opts;
    };
    std::vector<Variant> variants;
    variants.push_back({"class pairing + random (paper)", {}});
    {
      LocalSchemeOptions o;
      o.class_pairing = false;
      variants.push_back({"arbitrary pairing + random", o});
    }
    {
      LocalSchemeOptions o;
      o.selection = PairSelection::kGreedy;
      variants.push_back({"class pairing + greedy", o});
    }
    for (auto& variant : variants) {
      CellResult r = RunCell(2000, 3, 0.5, variant.opts, 777);
      ablation.AddRow({variant.name, StrCat(r.bits), StrCat(r.bound),
                       StrCat(r.tries)});
    }
    ablation.Print(std::cout);
  }

  if (json_path) {
    if (!WriteJsonFile(*json_path, json)) {
      std::cerr << "FAIL: cannot write " << *json_path << "\n";
      return 1;
    }
    std::cout << "wrote " << *json_path << "\n";
  }
  return 0;
}
