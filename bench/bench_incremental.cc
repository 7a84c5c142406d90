// E10 — Theorems 7 and 8: incremental watermarking.
//   Weights-only updates: propagate the mark through rounds of bulk weight
//     refreshes and verify the bound and detection survive every round.
//   Type-preserving structural updates: verify the check accepts
//     type-preserving edits and flags type-creating ones, and report the
//     survival of the embedded pairs.
//
// --json[=PATH] additionally writes BENCH_incremental.json (the results
// under "incremental", with a top-level schema_version), so CI can baseline
// the Theorem 7/8 numbers.
#include <iostream>
#include <optional>
#include <string>

#include "qpwm/core/distortion.h"
#include "qpwm/core/incremental.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/logic/query.h"
#include "qpwm/structure/generators.h"
#include "qpwm/util/json.h"
#include "qpwm/util/random.h"
#include "qpwm/util/str.h"
#include "qpwm/util/table.h"

using namespace qpwm;

int main(int argc, char** argv) {
  std::optional<std::string> json_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json_path = "BENCH_incremental.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::cerr << "usage: bench_incremental [--json[=PATH]]\n";
      return 2;
    }
  }

  std::cout << "=== bench_incremental: Theorems 7 and 8 ===\n";

  JsonWriter json;
  json.BeginObject();
  json.Key("schema_version").Int(1);
  json.Key("incremental").BeginObject();

  // Theorem 7: weights-only update storm.
  bool all_detected = true;
  {
    Rng rng(71);
    Structure g = RandomBoundedDegreeGraph(800, 3, 2400, false, rng);
    auto query = AtomQuery::Adjacency("E");
    QueryIndex index(g, *query, AllParams(g, 1));
    WeightMap original = RandomWeights(g, 100, 9999, rng);

    LocalSchemeOptions opts;
    opts.epsilon = 0.5;
    opts.key = {71, 72};
    auto scheme = LocalScheme::Plan(index, opts).ValueOrDie();
    BitVec mark(scheme.CapacityBits());
    for (size_t i = 0; i < mark.size(); ++i) mark.Set(i, rng.Coin());
    WeightMap marked = scheme.Embed(original, mark);

    TextTable table("Weights-only updates: mark survival over rounds");
    table.SetHeader({"round", "weights changed", "global distortion", "detected"});
    json.Key("weights_only").BeginArray();
    for (int round = 1; round <= 8; ++round) {
      WeightMap new_original = original;
      size_t changed = 0;
      for (ElemId e = 0; e < g.universe_size(); ++e) {
        if (rng.Bernoulli(0.3)) {
          new_original.SetElem(e, rng.Uniform(100, 9999));
          ++changed;
        }
      }
      marked = PropagateWeightsOnlyUpdate(original, marked, new_original);
      original = new_original;

      HonestServer server(index, marked);
      auto detected = scheme.Detect(original, server);
      const bool ok = detected.ok() && detected.value() == mark;
      all_detected &= ok;
      const Weight distortion = GlobalDistortion(index, original, marked);
      table.AddRow({StrCat(round), StrCat(changed), StrCat(distortion),
                    ok ? "OK" : "FAIL"});
      json.BeginObject()
          .Key("round").Int(round)
          .Key("weights_changed").UInt(changed)
          .Key("global_distortion").Int(distortion)
          .Key("detected").Bool(ok)
          .EndObject();
    }
    json.EndArray();
    table.Print(std::cout);
    std::cout << "the detector is only sensitive to the mark delta M (Theorem 7): "
                 "arbitrary weight refreshes never break it.\n";
  }

  // Theorem 8: structural updates.
  {
    TextTable table("Structural updates: type preservation check");
    table.SetHeader({"update", "type preserving", "old/new types",
                     "surviving pairs", "new bound"});
    json.Key("structural").BeginArray();

    auto report = [&](const char* name, const LocalScheme& scheme,
                      const QueryIndex& updated) {
      UpdateCheck check = CheckTypePreservingUpdate(scheme, updated);
      table.AddRow({name, check.type_preserving ? "yes" : "NO",
                    StrCat(check.old_types, "/", check.new_types),
                    StrCat(check.surviving_pairs, "/", scheme.CapacityBits()),
                    StrCat(check.new_cost_bound)});
      json.BeginObject()
          .Key("update").String(name)
          .Key("type_preserving").Bool(check.type_preserving)
          .Key("old_types").UInt(check.old_types)
          .Key("new_types").UInt(check.new_types)
          .Key("surviving_pairs").UInt(check.surviving_pairs)
          .Key("planned_pairs").UInt(scheme.CapacityBits())
          .Key("new_cost_bound").UInt(check.new_cost_bound)
          .EndObject();
    };

    auto query = AtomQuery::Adjacency("E");
    LocalSchemeOptions opts;
    opts.key = {81, 82};

    // Base: a long symmetric cycle.
    Structure cycle = CycleGraph(60, true);
    QueryIndex cycle_index(cycle, *query, AllParams(cycle, 1));
    auto scheme = LocalScheme::Plan(cycle_index, opts).ValueOrDie();

    // (a) identical structure.
    report("none (identity)", scheme, cycle_index);

    // (b) type-preserving: relabeled cycle (same single type).
    Structure rotated(GraphSignature(), 60);
    for (ElemId i = 0; i < 60; ++i) {
      ElemId a = (i * 7 + 1) % 60;
      ElemId b = (a + 1) % 60;
      rotated.AddTuple(size_t{0}, Tuple{a, b});
      rotated.AddTuple(size_t{0}, Tuple{b, a});
    }
    rotated.Seal();
    QueryIndex rotated_index(rotated, *query, AllParams(rotated, 1));
    report("rewire into another 2-regular graph", scheme, rotated_index);

    // (c) type-creating: cut one edge (endpoints appear).
    Structure cut(GraphSignature(), 60);
    for (ElemId i = 0; i + 1 < 60; ++i) {
      cut.AddTuple(size_t{0}, Tuple{i, static_cast<ElemId>(i + 1)});
      cut.AddTuple(size_t{0}, Tuple{static_cast<ElemId>(i + 1), i});
    }
    cut.Seal();
    QueryIndex cut_index(cut, *query, AllParams(cut, 1));
    report("cut one edge (cycle -> path)", scheme, cut_index);

    json.EndArray();
    table.Print(std::cout);
    std::cout << "type-preserving updates keep the mark valid without "
                 "re-marking (Theorem 8); type-creating updates are flagged for "
                 "the brute-force re-mark path.\n";
  }

  json.Key("all_rounds_detected").Bool(all_detected);
  json.EndObject();
  json.EndObject();

  if (json_path) {
    if (!WriteJsonFile(*json_path, json)) {
      std::cerr << "FAIL: cannot write " << *json_path << "\n";
      return 1;
    }
    std::cout << "wrote " << *json_path << "\n";
  }
  return all_detected ? 0 : 1;
}
