// bench_trace — the fingerprint tracing campaign: coalition size x collusion
// attack x codec, each cell one channel observation plus a TraceMany scan
// over a 10^5-candidate Tardos codeword pool.
//
// The acceptance headline: a design-size (c=5) coalition is traced — at
// least one coalition member accused, zero innocents — out of 10^5 candidate
// codewords, under every composed attack in the grid (collusion forge plus a
// structural deletion/insertion stack), for both the identity and hamming
// codecs. Honest cells (the untouched original, an unrelated database) must
// accuse nobody.
//
// Determinism: the headline cells are re-traced at 1, 4 and 8 threads and
// the full trace output (verdict, threshold, every accusation score at full
// double precision) must be byte-identical; any thread-dependent output
// fails the run. Timings (candidates/sec) are reported but excluded from the
// comparison — they are the only nondeterministic numbers in the file.
//
// --json[=PATH] writes BENCH_trace.json: the campaign under
// "trace_campaign", with a top-level schema_version (artifact-only per the
// baseline policy: uploaded, never committed).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "qpwm/coding/coded_watermark.h"
#include "qpwm/coding/codec.h"
#include "qpwm/coding/fingerprint.h"
#include "qpwm/core/adversarial.h"
#include "qpwm/core/attack.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/logic/query.h"
#include "qpwm/structure/generators.h"
#include "qpwm/util/json.h"
#include "qpwm/util/parallel.h"
#include "qpwm/util/random.h"
#include "qpwm/util/str.h"
#include "qpwm/util/table.h"

using namespace qpwm;

namespace {

double TimeMs(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Full-precision canonical rendering of everything deterministic in a trace
/// result — the string the thread-identity check compares byte for byte.
std::string CanonicalTrace(const TraceResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << static_cast<int>(r.kind) << '|' << r.threshold << '|'
     << r.max_achievable << '|' << r.null_variance << '|' << r.max_term << '|'
     << r.candidates << '|' << r.pruned;
  for (const Accusation& a : r.accused) {
    os << ";A" << a.recipient << ':' << a.score << ':' << a.log10_fp;
  }
  for (const Accusation& a : r.top) {
    os << ";T" << a.recipient << ':' << a.score << ':' << a.log10_fp;
  }
  return os.str();
}

struct Workload {
  Structure g;
  std::unique_ptr<AtomQuery> query;
  std::unique_ptr<QueryIndex> index;
  WeightMap weights;
  std::unique_ptr<LocalScheme> scheme;

  Workload(size_t n, uint64_t seed) : weights(1, 0) {
    Rng rng(seed);
    g = RandomBoundedDegreeGraph(n, 3, 3 * n, false, rng);
    query = AtomQuery::Adjacency("E");
    index = std::make_unique<QueryIndex>(g, *query, AllParams(g, 1));
    weights = RandomWeights(g, 1000, 9999, rng);
    LocalSchemeOptions opts;
    opts.epsilon = 0.25;
    opts.key = {seed, seed + 1};
    opts.encoding = PairEncoding::kAntipodal;
    scheme = std::make_unique<LocalScheme>(
        LocalScheme::Plan(*index, opts).ValueOrDie());
  }
};

struct CellResult {
  std::string codec;
  std::string attack;
  size_t coalition = 0;
  uint64_t candidates = 0;
  std::vector<uint64_t> members;
  std::vector<double> member_scores;
  TraceResult trace;
  size_t traced_members = 0;
  size_t innocents = 0;
  size_t elements_erased = 0;
  size_t rows_inserted = 0;
  size_t positions_scored = 0;
  size_t channel_bits_erased = 0;
  double observe_ms = 0;
  double trace_ms = 0;
  uint64_t cell_seed = 0;
};

struct HonestResult {
  std::string codec;
  std::string suspect;
  TraceResult trace;
  double trace_ms = 0;
};

struct DeterminismCell {
  std::string codec;
  std::string attack;
  bool identical = true;
};

/// Spread coalition members deterministically over the candidate pool.
std::vector<uint64_t> CoalitionMembers(size_t c, uint64_t candidates) {
  std::vector<uint64_t> out;
  for (size_t k = 0; k < c; ++k) {
    out.push_back((static_cast<uint64_t>(k) + 1) * candidates /
                  (static_cast<uint64_t>(c) + 1));
  }
  return out;
}

size_t CountTraced(const TraceResult& r, const std::vector<uint64_t>& members,
                   size_t* innocents) {
  size_t traced = 0;
  *innocents = 0;
  for (const Accusation& a : r.accused) {
    bool member = false;
    for (uint64_t m : members) member |= (m == a.recipient);
    if (member) {
      ++traced;
    } else {
      ++*innocents;
    }
  }
  return traced;
}

}  // namespace

int main(int argc, char** argv) {
  size_t n = 100000;
  size_t redundancy = 3;
  uint64_t candidates = 100000;
  size_t design_c = 5;
  uint64_t seed = 1;
  std::optional<std::string> json_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json_path = "BENCH_trace.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--n" && i + 1 < argc) {
      n = std::stoul(argv[++i]);
    } else if (arg == "--candidates" && i + 1 < argc) {
      candidates = std::stoull(argv[++i]);
    } else if (arg == "--redundancy" && i + 1 < argc) {
      redundancy = std::stoul(argv[++i]);
    } else if (arg == "--design-c" && i + 1 < argc) {
      design_c = std::stoul(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::stoull(argv[++i]);
    } else {
      std::cerr << "usage: bench_trace [--json[=PATH]] [--n N] "
                   "[--candidates C] [--redundancy R] [--design-c C] "
                   "[--seed S]\n";
      return 2;
    }
  }

  std::cout << "=== bench_trace: Tardos fingerprint tracing campaign (n=" << n
            << ", candidates=" << candidates << ", design c=" << design_c
            << ") ===\n";

  SetParallelThreads(0);
  Workload wl(n, seed);
  AdversarialScheme adv(*wl.scheme, redundancy);
  if (adv.CapacityBits() == 0) {
    std::cerr << "FAIL: planned scheme has zero capacity\n";
    return 1;
  }

  // The unrelated honest suspect: same schema and domain, fresh weights.
  WeightMap unrelated = wl.weights;
  {
    Rng urng(seed + 17);
    unrelated.ForEach([&](const Tuple& t, Weight) {
      unrelated.Set(t, urng.Uniform(1000, 9999));
    });
  }

  // Light structural tier stacked on every collusion forge: independent
  // deletion plus spurious insertions, per-cell seeded.
  const double kDeletionFrac = 0.03;
  const double kInsertionFrac = 0.02;

  const std::vector<size_t> kCoalitions = {1, 2, design_c, design_c + 3};
  const std::vector<std::string> kCodecs = {"identity", "hamming"};

  std::vector<CellResult> grid;
  std::vector<HonestResult> honest;
  std::vector<DeterminismCell> determinism;
  bool thread_identical = true;
  bool internal_error = false;
  uint64_t tag = 0;

  for (const std::string& codec_spec : kCodecs) {
    auto codec = MakeCodec(codec_spec).ValueOrDie();
    CodedWatermark wm(adv, *codec);
    if (wm.PayloadBits() == 0) {
      std::cerr << "FAIL: zero payload bits for codec " << codec_spec << "\n";
      return 1;
    }
    TardosOptions topts;
    topts.design_c = design_c;
    topts.seed = seed + 1000;
    FingerprintedWatermark fp(wm, topts);

    // Honest cells: nobody gets accused, full candidate pool.
    for (const auto& [name, weights] :
         std::vector<std::pair<std::string, const WeightMap*>>{
             {"original", &wl.weights}, {"unrelated", &unrelated}}) {
      HonestServer server(*wl.index, *weights);
      FingerprintObservation obs;
      Result<FingerprintObservation> observed =
          fp.Observe(wl.weights, server);
      if (!observed.ok()) {
        std::cerr << "FAIL: honest observe: " << observed.status() << "\n";
        return 1;
      }
      obs = std::move(observed).value();
      HonestResult h;
      h.codec = codec_spec;
      h.suspect = name;
      h.trace_ms = TimeMs([&] { h.trace = fp.TraceMany(obs, candidates); });
      honest.push_back(std::move(h));
    }

    for (size_t c : kCoalitions) {
      // Headline rows (single leaker, design-size coalition) scan the full
      // pool; the flanking rows scan a tenth to keep the campaign fast.
      const uint64_t cell_candidates =
          (c == 1 || c == design_c) ? candidates : std::max<uint64_t>(candidates / 10, 1000);
      const std::vector<uint64_t> members = CoalitionMembers(c, cell_candidates);
      std::vector<WeightMap> copies;
      std::vector<const WeightMap*> copy_ptrs;
      for (uint64_t m : members) copies.push_back(fp.EmbedFor(wl.weights, m));
      for (const WeightMap& copy : copies) copy_ptrs.push_back(&copy);

      // A single leaker has nothing to collude with: one cell, no forge.
      const std::vector<std::string> attacks =
          c == 1 ? std::vector<std::string>{"none"} : KnownCollusionSpecs();
      for (const std::string& attack_spec : attacks) {
        CellResult cell;
        cell.codec = codec_spec;
        cell.attack = attack_spec;
        cell.coalition = c;
        cell.candidates = cell_candidates;
        cell.members = members;
        cell.cell_seed = seed + (++tag) * 1000003;

        WeightMap forged = copies[0];
        if (attack_spec != "none") {
          auto attack = MakeCollusionAttack(attack_spec).ValueOrDie();
          Rng arng(cell.cell_seed);
          Result<WeightMap> hybrid = attack->Forge(copy_ptrs, arng);
          if (!hybrid.ok()) {
            std::cerr << "FAIL: forge " << attack_spec << ": "
                      << hybrid.status() << "\n";
            return 1;
          }
          forged = std::move(hybrid).value();
        }

        ComposedAttackSpec aspec;
        aspec.deletion_frac = kDeletionFrac;
        aspec.insertion_frac = kInsertionFrac;
        aspec.seed = cell.cell_seed + 1;
        ComposedSuspect suspect = ApplyComposedAttack(
            *wl.index, wl.scheme->marking().pairs(), adv.Redundancy(), forged,
            aspec);
        cell.elements_erased = suspect.elements_erased;
        cell.rows_inserted = suspect.rows_inserted;

        FingerprintObservation obs;
        cell.observe_ms = TimeMs([&] {
          Result<FingerprintObservation> observed =
              fp.Observe(wl.weights, *suspect.server);
          if (!observed.ok()) {
            std::cerr << "FAIL: observe: " << observed.status() << "\n";
            internal_error = true;
            return;
          }
          obs = std::move(observed).value();
        });
        if (internal_error) return 1;
        cell.positions_scored = obs.positions_scored;
        cell.channel_bits_erased = obs.channel.message.bits_erased;
        cell.trace_ms =
            TimeMs([&] { cell.trace = fp.TraceMany(obs, cell_candidates); });
        cell.traced_members =
            CountTraced(cell.trace, members, &cell.innocents);
        for (uint64_t m : members) {
          cell.member_scores.push_back(fp.Score(obs, m));
        }

        // Thread-identity check on the headline coalition cells: the full
        // observe + trace pipeline re-run at 1, 4 and 8 threads must emit
        // byte-identical canonical output.
        if (c == design_c &&
            (attack_spec == "averaging" || attack_spec.rfind("interleave", 0) == 0)) {
          DeterminismCell d;
          d.codec = codec_spec;
          d.attack = attack_spec;
          std::string reference;
          for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
            SetParallelThreads(threads);
            FingerprintObservation tobs =
                fp.Observe(wl.weights, *suspect.server).ValueOrDie();
            const std::string canon =
                CanonicalTrace(fp.TraceMany(tobs, cell_candidates));
            if (reference.empty()) {
              reference = canon;
            } else if (canon != reference) {
              d.identical = false;
            }
          }
          SetParallelThreads(0);
          thread_identical &= d.identical;
          determinism.push_back(d);
        }

        grid.push_back(std::move(cell));
      }
    }
  }

  // --- Report ---------------------------------------------------------------
  TextTable table(StrCat("Tracing grid (fp budget 1e-6, ",
                         "structural tier: del ", FmtDouble(kDeletionFrac, 2),
                         " + ins ", FmtDouble(kInsertionFrac, 2), ")"));
  table.SetHeader({"codec", "c", "attack", "cands", "verdict", "traced",
                   "innocent", "threshold", "top score", "cand/s"});
  for (const CellResult& cell : grid) {
    const double top_score = cell.trace.top.empty() ? 0 : cell.trace.top[0].score;
    table.AddRow(
        {cell.codec, StrCat(cell.coalition), cell.attack,
         StrCat(cell.candidates), TraceVerdictKindName(cell.trace.kind),
         StrCat(cell.traced_members, "/", cell.coalition),
         StrCat(cell.innocents), FmtDouble(cell.trace.threshold, 1),
         FmtDouble(top_score, 1),
         FmtDouble(1000.0 * static_cast<double>(cell.candidates) /
                       std::max(cell.trace_ms, 1e-9), 0)});
  }
  table.Print(std::cout);

  for (const HonestResult& h : honest) {
    std::cout << "honest " << h.codec << "/" << h.suspect << ": "
              << TraceVerdictKindName(h.trace.kind) << ", "
              << h.trace.accused.size() << " accused\n";
  }
  for (const DeterminismCell& d : determinism) {
    std::cout << "thread-identity " << d.codec << "/" << d.attack
              << " @ {1,4,8}: " << (d.identical ? "identical" : "DIFFERS")
              << "\n";
  }

  // --- Acceptance -----------------------------------------------------------
  bool zero_innocents = true;
  bool headline_traced = true;
  for (const CellResult& cell : grid) {
    zero_innocents &= (cell.innocents == 0);
    if (cell.coalition <= design_c) {
      headline_traced &= (cell.traced_members >= 1 &&
                          cell.trace.kind == TraceVerdictKind::kTraced);
    }
  }
  for (const HonestResult& h : honest) {
    zero_innocents &= h.trace.accused.empty();
  }
  const bool pass = zero_innocents && headline_traced && thread_identical;
  std::cout << "acceptance: headline c<=" << design_c << " traced: "
            << (headline_traced ? "yes" : "NO")
            << "; zero innocents: " << (zero_innocents ? "yes" : "NO")
            << "; thread-identical: " << (thread_identical ? "yes" : "NO")
            << "\n";

  if (json_path) {
    JsonWriter w;
    w.BeginObject();
    w.Key("schema_version").Int(1);
    w.Key("trace_campaign").BeginObject();
    w.Key("instance").BeginObject();
    w.Key("n").UInt(n);
    w.Key("redundancy").UInt(redundancy);
    w.Key("channel_bits").UInt(adv.CapacityBits());
    w.Key("seed").UInt(seed);
    w.EndObject();
    w.Key("code").BeginObject();
    w.Key("design_c").UInt(design_c);
    w.Key("fp_threshold").Double(1e-6);
    w.Key("candidates").UInt(candidates);
    w.EndObject();
    w.Key("structural_tier").BeginObject();
    w.Key("deletion_frac").Double(kDeletionFrac);
    w.Key("insertion_frac").Double(kInsertionFrac);
    w.EndObject();
    w.Key("hardware_threads").UInt(std::thread::hardware_concurrency());
    w.Key("grid").BeginArray();
    for (const CellResult& cell : grid) {
      w.BeginObject();
      w.Key("codec").String(cell.codec);
      w.Key("coalition").UInt(cell.coalition);
      w.Key("attack").String(cell.attack);
      w.Key("candidates").UInt(cell.candidates);
      w.Key("cell_seed").UInt(cell.cell_seed);
      w.Key("positions").UInt(cell.trace.candidates == 0
                                  ? 0
                                  : cell.positions_scored);
      w.Key("channel_bits_erased").UInt(cell.channel_bits_erased);
      w.Key("elements_erased").UInt(cell.elements_erased);
      w.Key("rows_inserted").UInt(cell.rows_inserted);
      w.Key("verdict").String(TraceVerdictKindName(cell.trace.kind));
      w.Key("threshold").Double(cell.trace.threshold);
      w.Key("max_achievable").Double(cell.trace.max_achievable);
      w.Key("traced_members").UInt(cell.traced_members);
      w.Key("innocents_accused").UInt(cell.innocents);
      w.Key("pruned").UInt(cell.trace.pruned);
      w.Key("accused").BeginArray();
      for (size_t i = 0; i < cell.trace.accused.size() && i < 10; ++i) {
        const Accusation& a = cell.trace.accused[i];
        w.BeginObject();
        w.Key("recipient").UInt(a.recipient);
        w.Key("score").Double(a.score);
        w.Key("log10_fp").Double(a.log10_fp);
        w.EndObject();
      }
      w.EndArray();
      w.Key("members").BeginArray();
      for (uint64_t m : cell.members) w.UInt(m);
      w.EndArray();
      w.Key("member_scores").BeginArray();
      for (double s : cell.member_scores) w.Double(s);
      w.EndArray();
      w.Key("observe_ms").Double(cell.observe_ms);
      w.Key("trace_ms").Double(cell.trace_ms);
      w.Key("candidates_per_sec")
          .Double(1000.0 * static_cast<double>(cell.candidates) /
                  std::max(cell.trace_ms, 1e-9));
      w.EndObject();
    }
    w.EndArray();
    w.Key("honest").BeginArray();
    for (const HonestResult& h : honest) {
      w.BeginObject();
      w.Key("codec").String(h.codec);
      w.Key("suspect").String(h.suspect);
      w.Key("verdict").String(TraceVerdictKindName(h.trace.kind));
      w.Key("accused").UInt(h.trace.accused.size());
      w.Key("trace_ms").Double(h.trace_ms);
      w.EndObject();
    }
    w.EndArray();
    w.Key("determinism").BeginObject();
    w.Key("threads").BeginArray();
    w.UInt(1).UInt(4).UInt(8);
    w.EndArray();
    w.Key("cells").BeginArray();
    for (const DeterminismCell& d : determinism) {
      w.BeginObject();
      w.Key("codec").String(d.codec);
      w.Key("attack").String(d.attack);
      w.Key("identical").Bool(d.identical);
      w.EndObject();
    }
    w.EndArray();
    w.Key("identical").Bool(thread_identical);
    w.EndObject();
    w.Key("acceptance").BeginObject();
    w.Key("headline_coalition").UInt(design_c);
    w.Key("headline_traced").Bool(headline_traced);
    w.Key("zero_innocents").Bool(zero_innocents);
    w.Key("thread_identical").Bool(thread_identical);
    w.Key("pass").Bool(pass);
    w.EndObject();
    w.EndObject();
    w.EndObject();
    if (!WriteJsonFile(*json_path, w)) {
      std::cerr << "FAIL: cannot write " << *json_path << "\n";
      return 1;
    }
    std::cout << "wrote " << *json_path << "\n";
  }

  if (!pass) {
    std::cerr << "FAIL: tracing acceptance criteria not met\n";
    return 1;
  }
  return 0;
}
