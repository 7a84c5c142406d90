// qpwm — command-line watermarking of CSV tables and XML documents.
//
// Subcommands:
//   mark-csv    --in data.csv --schema col:key,col2:weight:col --query CQ
//               --param-column col --key K0:K1 --eps E --mark BITS --out out.csv
//   detect-csv  --original data.csv --suspect sus.csv (same flags as mark-csv)
//   mark-xml    --in doc.xml --weight-tags tag[,tag] --xpath XPATH
//               --key K0:K1 --mark BITS --out out.xml
//   detect-xml  --original doc.xml --suspect sus.xml (same flags as mark-xml)
//
// The secret key is two 64-bit hex words. --mark is a 0/1 string; it is
// padded with zeros to the scheme's capacity (truncated marks are rejected).
// --redundancy R spreads each mark bit over R pairs (majority vote on
// detection); --min-margin M sets the confidence threshold. --codec C layers
// an error-correcting message codec over the pair channel (soft-decision
// decoding, interleaved blocks, verdict with a false-positive bound);
// omitting it — or passing identity — keeps the raw channel path.
//
// Detection is erasure-aware: suspects with deleted rows / dropped subtrees
// are aligned back onto the original by key, missing pair elements abstain,
// and a partial report (bits recovered / erased, per-bit margins) is printed.
//
// Exit codes: 0 = ok (mark found / full match), 1 = no mark found (recovered
// bits contradict --mark), 2 = I/O, parse or usage error, 3 = partial
// detection below threshold (erasures present or margin < --min-margin).
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "qpwm/coding/coded_watermark.h"
#include "qpwm/coding/codec.h"
#include "qpwm/coding/fingerprint.h"
#include "qpwm/core/adversarial.h"
#include "qpwm/core/attack.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/core/tree_scheme.h"
#include "qpwm/logic/conjunctive.h"
#include "qpwm/relational/csv.h"
#include "qpwm/relational/table.h"
#include "qpwm/util/str.h"
#include "qpwm/util/table.h"
#include "qpwm/xml/encode.h"
#include "qpwm/xml/parser.h"
#include "qpwm/xml/xpath.h"

using namespace qpwm;

namespace {

// Exit codes (documented in Usage): keep distinct so scripts can tell "the
// mark is not there" from "the invocation is broken" from "inconclusive".
constexpr int kExitOk = 0;
constexpr int kExitNoMark = 1;
constexpr int kExitError = 2;
constexpr int kExitPartial = 3;

struct Args {
  std::unordered_map<std::string, std::string> flags;

  bool Has(const std::string& name) const { return flags.count(name) > 0; }
  Result<std::string> Get(const std::string& name) const {
    auto it = flags.find(name);
    if (it == flags.end()) return Status::InvalidArgument("missing --" + name);
    return it->second;
  }
  std::string GetOr(const std::string& name, std::string fallback) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
};

// Every flag any subcommand understands. Parsing is strict: an unknown flag,
// a flag without a value, or a non-numeric value where a number is expected
// is a usage error (exit 2), never a silent ignore or an uncaught throw.
const char* const kKnownFlags[] = {
    "in",    "out",          "original",   "suspect",    "schema",
    "table", "query",        "param-column", "key",      "eps",
    "mark",  "redundancy",   "min-margin", "weight-tags", "xpath",
    "codec", "fingerprint",  "recipient",  "fp-seed",    "design-c",
};

bool IsKnownFlag(const std::string& name) {
  for (const char* known : kKnownFlags) {
    if (name == known) return true;
  }
  return false;
}

// Strict double parse: the whole value must be a decimal number.
Result<double> ParseDouble(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end == text.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("--" + flag + " needs a number, got '" +
                                   text + "'");
  }
  return value;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::InvalidArgument("cannot write " + path);
  out << content;
  return Status::OK();
}

Result<PrfKey> ParseKey(const std::string& text) {
  auto parts = Split(text, ':');
  if (parts.size() != 2) {
    return Status::InvalidArgument("--key must be two hex words, K0:K1");
  }
  PrfKey key;
  try {
    key.k0 = std::stoull(parts[0], nullptr, 16);
    key.k1 = std::stoull(parts[1], nullptr, 16);
  } catch (...) {
    return Status::InvalidArgument("--key words must be hex integers");
  }
  return key;
}

// schema: "order:key,region:key,revenue:weight:order"
Result<std::vector<ColumnSpec>> ParseSchema(const std::string& text) {
  std::vector<ColumnSpec> out;
  for (const std::string& part : Split(text, ',')) {
    auto fields = Split(part, ':');
    if (fields.size() == 2 && fields[1] == "key") {
      out.push_back({fields[0], ColumnRole::kKey, ""});
    } else if (fields.size() == 3 && fields[1] == "weight") {
      out.push_back({fields[0], ColumnRole::kWeight, fields[2]});
    } else {
      return Status::InvalidArgument("bad schema entry '" + part +
                                     "' (want name:key or name:weight:of)");
    }
  }
  if (out.empty()) return Status::InvalidArgument("empty --schema");
  return out;
}

Result<BitVec> ParseMark(const std::string& bits, size_t capacity) {
  for (char c : bits) {
    if (c != '0' && c != '1') {
      return Status::InvalidArgument("--mark must be a 0/1 string");
    }
  }
  if (bits.size() > capacity) {
    return Status::CapacityExhausted(StrCat("mark has ", bits.size(),
                                            " bits but capacity is ", capacity));
  }
  BitVec mark(capacity);
  for (size_t i = 0; i < bits.size(); ++i) mark.Set(i, bits[i] == '1');
  return mark;
}

// The codec the invocation asked for, or null for the raw-channel path.
// `--codec identity` is defined to be the uncoded pass-through, so it keeps
// the pre-coding report format and exit-code logic bit for bit.
Result<std::unique_ptr<MessageCodec>> CodecFromArgs(const Args& args) {
  if (!args.Has("codec")) return std::unique_ptr<MessageCodec>();
  auto codec = MakeCodec(args.Get("codec").ValueOrDie());
  if (!codec.ok()) return codec.status();
  if (codec.value()->Name() == "identity") return std::unique_ptr<MessageCodec>();
  return codec;
}

Result<size_t> ParseRedundancy(const Args& args) {
  const std::string text = args.GetOr("redundancy", "1");
  char* end = nullptr;
  long value = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || value < 1) {
    return Status::InvalidArgument("--redundancy must be a positive integer");
  }
  return static_cast<size_t>(value);
}

// --- Fingerprint mode (--fingerprint N) -------------------------------------
//
// Marking embeds the --recipient's Tardos codeword (instead of an explicit
// --mark); detection traces the suspect against all N candidate codewords and
// exits 0 (traced), 1 (no mark) or 3 (untraceable) — never accusing anyone
// whose score clears less than the pool-wide false-positive budget.

// Strict unsigned parse for an optional flag; `min_value` guards nonsense
// like a zero-sized candidate pool.
Result<uint64_t> ParseU64Flag(const Args& args, const std::string& flag,
                              uint64_t fallback, uint64_t min_value) {
  if (!args.Has(flag)) return fallback;
  const std::string text = args.GetOr(flag, "");
  char* end = nullptr;
  errno = 0;
  const uint64_t value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || end == text.c_str() || *end != '\0' || errno == ERANGE ||
      text[0] == '-' || value < min_value) {
    return Status::InvalidArgument(StrCat("--", flag,
                                          " needs an unsigned integer >= ",
                                          min_value, ", got '", text, "'"));
  }
  return value;
}

Result<TardosOptions> TardosFromArgs(const Args& args) {
  TardosOptions opts;
  auto design = ParseU64Flag(args, "design-c", opts.design_c, 1);
  if (!design.ok()) return design.status();
  opts.design_c = static_cast<size_t>(design.value());
  auto seed = ParseU64Flag(args, "fp-seed", opts.seed, 0);
  if (!seed.ok()) return seed.status();
  opts.seed = seed.value();
  return opts;
}

// mark-* with --fingerprint: embeds the recipient's codeword.
Result<WeightMap> FingerprintMark(const Args& args,
                                  const AdversarialScheme& adv,
                                  const WeightMap& weights) {
  if (args.Has("mark")) {
    return Status::InvalidArgument(
        "--mark and --fingerprint are mutually exclusive");
  }
  auto pool = ParseU64Flag(args, "fingerprint", 0, 1);
  if (!pool.ok()) return pool.status();
  if (!args.Has("recipient")) {
    return Status::InvalidArgument("--fingerprint marking needs --recipient");
  }
  auto recipient = ParseU64Flag(args, "recipient", 0, 0);
  if (!recipient.ok()) return recipient.status();
  if (recipient.value() >= pool.value()) {
    return Status::InvalidArgument(
        "--recipient must be below the --fingerprint pool size");
  }
  auto codec = MakeCodec(args.GetOr("codec", "identity"));
  if (!codec.ok()) return codec.status();
  auto topts = TardosFromArgs(args);
  if (!topts.ok()) return topts.status();
  CodedWatermark wm(adv, *codec.value());
  if (wm.PayloadBits() == 0) {
    return Status::CapacityExhausted("no payload capacity for fingerprinting");
  }
  FingerprintedWatermark fp(wm, topts.value());
  std::cout << "fingerprint: recipient " << recipient.value() << " of "
            << pool.value() << " candidate(s), codeword " << fp.code().length()
            << " bit(s) (codec " << codec.value()->Name() << ", design c="
            << topts.value().design_c << ", seed " << topts.value().seed
            << ")\n";
  return fp.EmbedFor(weights, recipient.value());
}

// detect-* with --fingerprint: one channel observation, then the scan over
// the full candidate pool. Returns the process exit code.
Result<int> FingerprintTrace(const Args& args, const AdversarialScheme& adv,
                             const WeightMap& original,
                             BatchAnswerServer& server) {
  if (args.Has("mark")) {
    return Status::InvalidArgument(
        "--mark and --fingerprint are mutually exclusive");
  }
  auto pool = ParseU64Flag(args, "fingerprint", 0, 1);
  if (!pool.ok()) return pool.status();
  auto codec = MakeCodec(args.GetOr("codec", "identity"));
  if (!codec.ok()) return codec.status();
  auto topts = TardosFromArgs(args);
  if (!topts.ok()) return topts.status();
  CodedWatermark wm(adv, *codec.value());
  if (wm.PayloadBits() == 0) {
    return Status::CapacityExhausted("no payload capacity for fingerprinting");
  }
  FingerprintedWatermark fp(wm, topts.value());
  auto obs = fp.Observe(original, server);
  if (!obs.ok()) return obs.status();
  const AdversarialDetection& ch = obs.value().channel.channel;
  std::cout << "channel: " << ch.bits_recovered << " bit(s) recovered, "
            << ch.bits_erased << " erased; pairs erased: " << ch.pairs_erased
            << "\n";
  TraceResult traced = fp.TraceMany(obs.value(), pool.value());
  std::cout << "trace: " << traced.candidates << " candidate(s), "
            << obs.value().positions_scored << " scored position(s), threshold "
            << FmtDouble(traced.threshold, 1) << ", pruned " << traced.pruned
            << "\n";
  for (const Accusation& a : traced.accused) {
    std::cout << "ACCUSED recipient " << a.recipient << ": score "
              << FmtDouble(a.score, 1) << ", log10(fp) <= "
              << FmtDouble(a.log10_fp, 1) << "\n";
  }
  std::cout << "verdict: " << TraceVerdictKindName(traced.kind) << "\n";
  return traced.ExitCode();
}

// Prints the partial-detection report and maps it to an exit code. Erased
// bits are shown as '?'; the match against --mark (if given) only judges
// recovered bits.
int ReportDetection(const Args& args, const AdversarialDetection& d) {
  std::string bits;
  for (size_t i = 0; i < d.mark.size(); ++i) {
    bits += d.bit_erased[i] ? '?' : (d.mark.Get(i) ? '1' : '0');
  }
  std::cout << "detected: " << bits << " (? = erased)\n";
  std::cout << "bits: " << d.bits_recovered << " recovered, " << d.bits_erased
            << " erased; pairs erased: " << d.pairs_erased << "\n";
  std::cout << "per-bit margins:";
  for (size_t i = 0; i < d.margins.size(); ++i) {
    std::cout << ' ' << FmtDouble(d.margins[i], 2);
  }
  std::cout << "\nmin margin over recovered bits: " << FmtDouble(d.min_margin, 2)
            << "\n";

  auto threshold = ParseDouble("min-margin", args.GetOr("min-margin", "0"));
  if (!threshold.ok()) {
    std::cerr << threshold.status() << "\n";
    return kExitError;
  }
  bool below_threshold =
      d.bits_recovered == 0 || d.min_margin < threshold.value();

  if (args.Has("mark")) {
    auto expected = ParseMark(args.GetOr("mark", ""), d.mark.size());
    if (!expected.ok()) {
      std::cerr << expected.status() << "\n";
      return kExitError;
    }
    size_t mismatched = 0;
    for (size_t i = 0; i < d.mark.size(); ++i) {
      if (!d.bit_erased[i] && d.mark.Get(i) != expected.value().Get(i)) {
        ++mismatched;
      }
    }
    if (mismatched > 0) {
      std::cout << "NO MATCH (" << mismatched << " recovered bit(s) differ)\n";
      return kExitNoMark;
    }
    if (d.bits_erased > 0 || below_threshold) {
      std::cout << "PARTIAL MATCH (recovered bits agree, but "
                << d.bits_erased << " bit(s) erased, min margin "
                << FmtDouble(d.min_margin, 2) << ")\n";
      return kExitPartial;
    }
    std::cout << "MATCH\n";
    return kExitOk;
  }
  if (d.bits_erased > 0 || below_threshold) return kExitPartial;
  return kExitOk;
}

// Prints the coded-detection report: channel accounting, decoded payload
// with correction counts, and the verdict with its false-positive bound.
// The exit code is the verdict's, except that a --mark contradicted by
// recovered payload bits forces NO MATCH.
int ReportCodedDetection(const Args& args, const CodedWatermark& wm,
                         const CodedDetection& d) {
  const AdversarialDetection& ch = d.channel;
  std::cout << "channel: " << ch.bits_recovered << " bit(s) recovered, "
            << ch.bits_erased << " erased; pairs erased: " << ch.pairs_erased
            << "\n";
  std::string bits;
  for (size_t i = 0; i < d.message.payload.size(); ++i) {
    bits += d.message.bit_erased[i] ? '?' : (d.message.payload.Get(i) ? '1' : '0');
  }
  std::cout << "codec " << wm.codec().Name() << ": decoded " << bits
            << " (? = erased), corrected " << d.message.corrected
            << " channel bit(s), filled " << d.message.filled << " erasure(s)\n";
  std::cout << "verdict: " << VerdictToString(d.verdict) << "\n";

  if (args.Has("mark")) {
    auto expected = ParseMark(args.GetOr("mark", ""), d.message.payload.size());
    if (!expected.ok()) {
      std::cerr << expected.status() << "\n";
      return kExitError;
    }
    size_t mismatched = 0;
    for (size_t i = 0; i < d.message.payload.size(); ++i) {
      if (!d.message.bit_erased[i] &&
          d.message.payload.Get(i) != expected.value().Get(i)) {
        ++mismatched;
      }
    }
    if (mismatched > 0) {
      std::cout << "NO MATCH (" << mismatched << " recovered bit(s) differ)\n";
      return kExitNoMark;
    }
  }
  return d.verdict.ExitCode();
}

// --- CSV workflow -----------------------------------------------------------

struct CsvSetup {
  Database db;
  // Heap-allocated: the QueryIndex (and through it the scheme) holds a
  // pointer to instance->structure, which must survive the move of this
  // struct out of SetupCsv.
  std::unique_ptr<RelationalInstance> instance;
  std::unique_ptr<ConjunctiveQuery> query;
  std::unique_ptr<QueryIndex> index;
  std::unique_ptr<LocalScheme> scheme;
  std::vector<ColumnSpec> schema;
  std::string table_name;
};

Result<CsvSetup> SetupCsv(const Args& args, const std::string& csv_path) {
  CsvSetup setup;
  auto csv = ReadFile(csv_path);
  if (!csv.ok()) return csv.status();
  auto schema_text = args.Get("schema");
  if (!schema_text.ok()) return schema_text.status();
  auto schema = ParseSchema(schema_text.value());
  if (!schema.ok()) return schema.status();
  setup.schema = schema.value();
  setup.table_name = args.GetOr("table", "T");

  auto table = TableFromCsv(setup.table_name, setup.schema, csv.value());
  if (!table.ok()) return table.status();
  setup.db.AddTable(std::move(table).value());
  auto instance = ToWeightedStructure(setup.db);
  if (!instance.ok()) return instance.status();
  setup.instance =
      std::make_unique<RelationalInstance>(std::move(instance).value());

  auto query_text = args.Get("query");
  if (!query_text.ok()) return query_text.status();
  auto query = ConjunctiveQuery::Parse(query_text.value());
  if (!query.ok()) return query.status();
  setup.query = std::make_unique<ConjunctiveQuery>(std::move(query).value());
  const Status fits = setup.query->CheckSignature(setup.instance->structure.signature());
  if (!fits.ok()) return fits;

  // Parameter domain: all values of --param-column, or the full universe.
  std::vector<Tuple> domain;
  if (args.Has("param-column")) {
    if (setup.query->ParamArity() != 1) {
      return Status::InvalidArgument("--param-column needs a 1-parameter query");
    }
    const Table* t = setup.db.Find(setup.table_name).ValueOrDie();
    auto col = t->ColumnIndex(args.Get("param-column").ValueOrDie());
    if (!col.ok()) return col.status();
    std::set<std::string> seen;
    for (size_t r = 0; r < t->num_rows(); ++r) {
      const std::string& value = t->KeyAt(r, col.value());
      if (!seen.insert(value).second) continue;
      domain.push_back(Tuple{setup.instance->structure.FindElement(value).ValueOrDie()});
    }
  } else {
    domain = AllParams(setup.instance->structure, setup.query->ParamArity());
  }
  setup.index = std::make_unique<QueryIndex>(setup.instance->structure, *setup.query,
                                             std::move(domain));

  LocalSchemeOptions opts;
  auto key = ParseKey(args.GetOr("key", "c0ffee:7ea"));
  if (!key.ok()) return key.status();
  opts.key = key.value();
  auto eps = ParseDouble("eps", args.GetOr("eps", "0.5"));
  if (!eps.ok()) return eps.status();
  opts.epsilon = eps.value();
  auto scheme = LocalScheme::Plan(*setup.index, opts);
  if (!scheme.ok()) return scheme.status();
  setup.scheme = std::make_unique<LocalScheme>(std::move(scheme).value());
  return setup;
}

int MarkCsv(const Args& args) {
  auto in = args.Get("in");
  if (!in.ok()) {
    std::cerr << in.status() << "\n";
    return kExitError;
  }
  auto setup = SetupCsv(args, in.value());
  if (!setup.ok()) {
    std::cerr << setup.status() << "\n";
    return kExitError;
  }
  CsvSetup& s = setup.value();
  auto redundancy = ParseRedundancy(args);
  if (!redundancy.ok()) {
    std::cerr << redundancy.status() << "\n";
    return kExitError;
  }
  AdversarialScheme adv(*s.scheme, redundancy.value());
  std::cout << "capacity: " << adv.CapacityBits() << " bits at redundancy "
            << adv.Redundancy() << " (" << s.scheme->CapacityBits()
            << " pairs), bound <= " << s.scheme->Budget() << " per query\n";

  if (args.Has("fingerprint")) {
    auto marked = FingerprintMark(args, adv, s.instance->weights);
    if (!marked.ok()) {
      std::cerr << marked.status() << "\n";
      return kExitError;
    }
    auto marked_db = ApplyWeightsToDatabase(s.db, *s.instance, marked.value());
    if (!marked_db.ok()) {
      std::cerr << marked_db.status() << "\n";
      return kExitError;
    }
    Status written = WriteFile(
        args.GetOr("out", in.value() + ".marked"),
        TableToCsv(*marked_db.value().Find(s.table_name).ValueOrDie()));
    if (!written.ok()) {
      std::cerr << written << "\n";
      return kExitError;
    }
    return kExitOk;
  }

  auto codec = CodecFromArgs(args);
  if (!codec.ok()) {
    std::cerr << codec.status() << "\n";
    return kExitError;
  }
  std::optional<CodedWatermark> wm;
  if (codec.value()) {
    wm.emplace(adv, *codec.value());
    std::cout << "codec " << codec.value()->Name() << ": payload "
              << wm->PayloadBits() << " bit(s) over " << wm->UsedChannelBits()
              << " channel bit(s)\n";
  }
  auto mark = ParseMark(args.GetOr("mark", "1"),
                        wm ? wm->PayloadBits() : adv.CapacityBits());
  if (!mark.ok()) {
    std::cerr << mark.status() << "\n";
    return kExitError;
  }
  WeightMap marked = wm ? wm->Embed(s.instance->weights, mark.value())
                        : adv.Embed(s.instance->weights, mark.value());
  auto marked_db = ApplyWeightsToDatabase(s.db, *s.instance, marked);
  if (!marked_db.ok()) {
    std::cerr << marked_db.status() << "\n";
    return kExitError;
  }
  std::string out_csv =
      TableToCsv(*marked_db.value().Find(s.table_name).ValueOrDie());
  Status written = WriteFile(args.GetOr("out", in.value() + ".marked"), out_csv);
  if (!written.ok()) {
    std::cerr << written << "\n";
    return kExitError;
  }
  std::cout << "embedded " << mark.value().ToString() << "\n";
  return kExitOk;
}

int DetectCsv(const Args& args) {
  auto original = args.Get("original");
  if (!original.ok()) {
    std::cerr << original.status() << "\n";
    return kExitError;
  }
  auto setup = SetupCsv(args, original.value());
  if (!setup.ok()) {
    std::cerr << setup.status() << "\n";
    return kExitError;
  }
  CsvSetup& s = setup.value();

  auto suspect_path = args.Get("suspect");
  if (!suspect_path.ok()) {
    std::cerr << suspect_path.status() << "\n";
    return kExitError;
  }
  auto suspect_csv = ReadFile(suspect_path.value());
  if (!suspect_csv.ok()) {
    std::cerr << suspect_csv.status() << "\n";
    return kExitError;
  }
  auto suspect_table = TableFromCsv(s.table_name, s.schema, suspect_csv.value());
  if (!suspect_table.ok()) {
    std::cerr << suspect_table.status() << "\n";
    return kExitError;
  }
  Database suspect_db;
  suspect_db.AddTable(std::move(suspect_table).value());
  auto suspect_instance = ToWeightedStructure(suspect_db);
  if (!suspect_instance.ok()) {
    std::cerr << suspect_instance.status() << "\n";
    return kExitError;
  }
  auto redundancy = ParseRedundancy(args);
  if (!redundancy.ok()) {
    std::cerr << redundancy.status() << "\n";
    return kExitError;
  }

  // Align the suspect's elements back onto the original universe by key;
  // rows the attacker deleted become erasures, not failures.
  AlignedSuspect aligned =
      AlignSuspectInstance(*s.instance, suspect_instance.value());
  std::cout << "alignment: " << aligned.matched << " matched, "
            << aligned.missing << " deleted, " << aligned.extra
            << " inserted element(s)\n";
  HonestServer base(*s.index, aligned.weights);
  TamperedAnswerServer server(base);
  for (ElemId e = 0; e < aligned.present.size(); ++e) {
    if (!aligned.present[e]) server.Erase(Tuple{e});
  }

  AdversarialScheme adv(*s.scheme, redundancy.value());
  if (args.Has("fingerprint")) {
    auto code = FingerprintTrace(args, adv, s.instance->weights, server);
    if (!code.ok()) {
      std::cerr << code.status() << "\n";
      return kExitError;
    }
    return code.value();
  }
  auto codec = CodecFromArgs(args);
  if (!codec.ok()) {
    std::cerr << codec.status() << "\n";
    return kExitError;
  }
  if (codec.value()) {
    CodedWatermark wm(adv, *codec.value());
    auto detection = wm.Detect(s.instance->weights, server);
    if (!detection.ok()) {
      std::cerr << detection.status() << "\n";
      return kExitError;
    }
    return ReportCodedDetection(args, wm, detection.value());
  }
  auto detection = adv.Detect(s.instance->weights, server);
  if (!detection.ok()) {
    std::cerr << detection.status() << "\n";
    return kExitError;
  }
  return ReportDetection(args, detection.value());
}

// --- XML workflow -------------------------------------------------------------

struct XmlSetup {
  XmlDocument doc;
  // Heap-allocated: the planned TreeScheme holds pointers to encoded->tree
  // and its label vector, which must survive the move of this struct out of
  // SetupXml.
  std::unique_ptr<EncodedXml> encoded;
  std::unique_ptr<XPathQuery> query;
  std::unique_ptr<TrackedDta> automaton;
  std::unique_ptr<TreeScheme> scheme;
};

Result<XmlSetup> SetupXml(const Args& args, const std::string& xml_path) {
  XmlSetup setup;
  auto xml = ReadFile(xml_path);
  if (!xml.ok()) return xml.status();
  auto doc = ParseXml(xml.value());
  if (!doc.ok()) return doc.status();
  setup.doc = std::move(doc).value();

  auto tags_text = args.Get("weight-tags");
  if (!tags_text.ok()) return tags_text.status();
  std::set<std::string> tags;
  for (const std::string& tag : Split(tags_text.value(), ',')) tags.insert(tag);
  auto encoded = EncodeXml(setup.doc, tags);
  if (!encoded.ok()) return encoded.status();
  setup.encoded = std::make_unique<EncodedXml>(std::move(encoded).value());

  auto xpath_text = args.Get("xpath");
  if (!xpath_text.ok()) return xpath_text.status();
  auto query = XPathQuery::Parse(xpath_text.value());
  if (!query.ok()) return query.status();
  setup.query = std::make_unique<XPathQuery>(std::move(query).value());
  auto automaton = setup.query->Compile(*setup.encoded);
  if (!automaton.ok()) return automaton.status();
  setup.automaton = std::make_unique<TrackedDta>(std::move(automaton).value());

  TreeSchemeOptions opts;
  auto key = ParseKey(args.GetOr("key", "c0ffee:7ea"));
  if (!key.ok()) return key.status();
  opts.key = key.value();
  auto scheme = TreeScheme::Plan(setup.encoded->tree, setup.encoded->tree.labels(),
                                 static_cast<uint32_t>(setup.encoded->sigma.size()),
                                 setup.automaton->dta,
                                 setup.query->has_param() ? 1 : 0, opts);
  if (!scheme.ok()) return scheme.status();
  setup.scheme = std::make_unique<TreeScheme>(std::move(scheme).value());
  return setup;
}

int MarkXml(const Args& args) {
  auto in = args.Get("in");
  if (!in.ok()) {
    std::cerr << in.status() << "\n";
    return kExitError;
  }
  auto setup = SetupXml(args, in.value());
  if (!setup.ok()) {
    std::cerr << setup.status() << "\n";
    return kExitError;
  }
  XmlSetup& s = setup.value();
  auto redundancy = ParseRedundancy(args);
  if (!redundancy.ok()) {
    std::cerr << redundancy.status() << "\n";
    return kExitError;
  }
  AdversarialScheme adv(*s.scheme, redundancy.value());
  std::cout << "capacity: " << adv.CapacityBits() << " bits at redundancy "
            << adv.Redundancy() << " (" << s.scheme->CapacityBits()
            << " pairs), per-query distortion <= " << s.scheme->DistortionBound()
            << "\n";
  if (args.Has("fingerprint")) {
    auto marked = FingerprintMark(args, adv, s.encoded->weights);
    if (!marked.ok()) {
      std::cerr << marked.status() << "\n";
      return kExitError;
    }
    XmlDocument out_doc = ApplyWeights(s.doc, *s.encoded, marked.value());
    Status written = WriteFile(args.GetOr("out", in.value() + ".marked"),
                               SerializeXml(out_doc));
    if (!written.ok()) {
      std::cerr << written << "\n";
      return kExitError;
    }
    return kExitOk;
  }
  auto codec = CodecFromArgs(args);
  if (!codec.ok()) {
    std::cerr << codec.status() << "\n";
    return kExitError;
  }
  std::optional<CodedWatermark> wm;
  if (codec.value()) {
    wm.emplace(adv, *codec.value());
    std::cout << "codec " << codec.value()->Name() << ": payload "
              << wm->PayloadBits() << " bit(s) over " << wm->UsedChannelBits()
              << " channel bit(s)\n";
  }
  auto mark = ParseMark(args.GetOr("mark", "1"),
                        wm ? wm->PayloadBits() : adv.CapacityBits());
  if (!mark.ok()) {
    std::cerr << mark.status() << "\n";
    return kExitError;
  }
  WeightMap marked = wm ? wm->Embed(s.encoded->weights, mark.value())
                        : adv.Embed(s.encoded->weights, mark.value());
  XmlDocument out_doc = ApplyWeights(s.doc, *s.encoded, marked);
  Status written =
      WriteFile(args.GetOr("out", in.value() + ".marked"), SerializeXml(out_doc));
  if (!written.ok()) {
    std::cerr << written << "\n";
    return kExitError;
  }
  std::cout << "embedded " << mark.value().ToString() << "\n";
  return kExitOk;
}

int DetectXml(const Args& args) {
  auto original = args.Get("original");
  if (!original.ok()) {
    std::cerr << original.status() << "\n";
    return kExitError;
  }
  auto setup = SetupXml(args, original.value());
  if (!setup.ok()) {
    std::cerr << setup.status() << "\n";
    return kExitError;
  }
  XmlSetup& s = setup.value();

  auto suspect_path = args.Get("suspect");
  if (!suspect_path.ok()) {
    std::cerr << suspect_path.status() << "\n";
    return kExitError;
  }
  auto suspect_xml = ReadFile(suspect_path.value());
  if (!suspect_xml.ok()) {
    std::cerr << suspect_xml.status() << "\n";
    return kExitError;
  }
  auto suspect_doc = ParseXml(suspect_xml.value());
  if (!suspect_doc.ok()) {
    std::cerr << suspect_doc.status() << "\n";
    return kExitError;
  }
  auto redundancy = ParseRedundancy(args);
  if (!redundancy.ok()) {
    std::cerr << redundancy.status() << "\n";
    return kExitError;
  }
  std::set<std::string> tags;
  for (const std::string& tag : Split(args.Get("weight-tags").ValueOrDie(), ',')) {
    tags.insert(tag);
  }

  // Align the suspect's weight records back onto the original tree by record
  // signature; dropped subtrees become erasures, not failures.
  auto aligned = AlignSuspectWeights(s.doc, *s.encoded, suspect_doc.value(), tags);
  if (!aligned.ok()) {
    std::cerr << aligned.status() << "\n";
    return kExitError;
  }
  std::cout << "alignment: " << aligned.value().matched << " matched, "
            << aligned.value().missing << " deleted, " << aligned.value().extra
            << " inserted record(s)\n";
  HonestTreeServer base(s.encoded->tree, s.encoded->tree.labels(),
                        static_cast<uint32_t>(s.encoded->sigma.size()),
                        s.automaton->dta, s.query->has_param() ? 1 : 0,
                        aligned.value().weights);
  TamperedAnswerServer server(base);
  for (NodeId v = 0; v < aligned.value().present.size(); ++v) {
    if (!aligned.value().present[v]) server.Erase(Tuple{v});
  }

  AdversarialScheme adv(*s.scheme, redundancy.value());
  if (args.Has("fingerprint")) {
    auto code = FingerprintTrace(args, adv, s.encoded->weights, server);
    if (!code.ok()) {
      std::cerr << code.status() << "\n";
      return kExitError;
    }
    return code.value();
  }
  auto codec = CodecFromArgs(args);
  if (!codec.ok()) {
    std::cerr << codec.status() << "\n";
    return kExitError;
  }
  if (codec.value()) {
    CodedWatermark wm(adv, *codec.value());
    auto detection = wm.Detect(s.encoded->weights, server);
    if (!detection.ok()) {
      std::cerr << detection.status() << "\n";
      return kExitError;
    }
    return ReportCodedDetection(args, wm, detection.value());
  }
  auto detection = adv.Detect(s.encoded->weights, server);
  if (!detection.ok()) {
    std::cerr << detection.status() << "\n";
    return kExitError;
  }
  return ReportDetection(args, detection.value());
}

void Usage() {
  std::cerr <<
      "usage: qpwm <mark-csv|detect-csv|mark-xml|detect-xml> [--flag value]...\n"
      "  mark-csv   --in F --schema C --query Q [--param-column C] [--key K0:K1]\n"
      "             [--eps E] [--mark BITS] [--redundancy R] [--codec C] [--out F]\n"
      "  detect-csv --original F --suspect F [--min-margin M] (+ mark-csv flags)\n"
      "  mark-xml   --in F --weight-tags T[,T] --xpath X [--key K0:K1]\n"
      "             [--mark BITS] [--redundancy R] [--codec C] [--out F]\n"
      "  detect-xml --original F --suspect F [--min-margin M] (+ mark-xml flags)\n"
      "flags:\n"
      "  --redundancy R  spread each channel bit over R weight pairs; detection\n"
      "                  takes an erasure-aware majority vote per group (default 1)\n"
      "  --min-margin M  raw-channel confidence threshold: a detection whose\n"
      "                  minimum vote margin is below M reports PARTIAL (default 0)\n"
      "  --codec C       layer a message codec over the channel: " "\n"
      "                  " << KnownCodecSpecs() << ".\n"
      "                  Non-identity codecs interleave codewords across pair\n"
      "                  groups, decode with soft margins, and report a verdict\n"
      "                  with a false-positive bound; identity (or omitting the\n"
      "                  flag) keeps the raw channel path\n"
      "  --fingerprint N fingerprint mode over an N-candidate Tardos code.\n"
      "                  mark-*: embed --recipient R's codeword (R < N);\n"
      "                  detect-*: trace the suspect against all N codewords\n"
      "                  and print any accusations with their false-positive\n"
      "                  bounds. --fp-seed S (default 1) seeds the code,\n"
      "                  --design-c C (default 5) sets the design coalition\n"
      "                  size; both must match between mark and detect.\n"
      "                  Mutually exclusive with --mark\n"
      "exit codes: 0 ok / match / traced, 1 mark contradicted or no mark,\n"
      "            2 I/O or usage error, 3 partial detection (erasures, margin\n"
      "            below --min-margin, a false-positive bound above threshold,\n"
      "            or an untraceable fingerprint)\n";
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    }
  }
  if (argc < 2) {
    Usage();
    return 2;
  }
  std::string command = argv[1];
  Args args;
  // Flags come in "--name value" pairs and must be known; anything else is a
  // usage error, never silently ignored.
  for (int i = 2; i < argc; i += 2) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || !IsKnownFlag(flag.substr(2))) {
      std::cerr << "unknown flag '" << flag << "'\n";
      Usage();
      return 2;
    }
    if (i + 1 >= argc) {
      std::cerr << flag << " requires a value\n";
      Usage();
      return 2;
    }
    args.flags[flag.substr(2)] = argv[i + 1];
  }
  if (command == "mark-csv") return MarkCsv(args);
  if (command == "detect-csv") return DetectCsv(args);
  if (command == "mark-xml") return MarkXml(args);
  if (command == "detect-xml") return DetectXml(args);
  Usage();
  return 2;
}
