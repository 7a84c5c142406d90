#include "qpwm/stream/report.h"

#include <algorithm>

#include "qpwm/coding/verdict.h"
#include "qpwm/util/json.h"

namespace qpwm {
namespace {

void WriteKindCounts(JsonWriter& w, const char* key,
                     const std::vector<uint64_t>& counts) {
  w.Key(key).BeginObject();
  for (size_t k = 0; k < counts.size() && k < kNumUpdateKinds; ++k) {
    if (counts[k] == 0) continue;
    w.Key(UpdateKindName(static_cast<UpdateKind>(k))).UInt(counts[k]);
  }
  w.EndObject();
}

void WriteOutcome(JsonWriter& w, const DetectOutcome& o) {
  w.BeginObject();
  w.Key("pass").UInt(o.pass).Key("epoch").UInt(o.epoch);
  w.Key("gave_up").Bool(o.gave_up);
  w.Key("attempts").UInt(o.attempts).Key("ticks").UInt(o.ticks);
  if (!o.gave_up) {
    w.Key("verdict").String(VerdictKindName(o.verdict));
    w.Key("payload_correct").Bool(o.payload_correct);
    w.Key("log10_fp_bound").Fixed4(o.log10_fp_bound);
    w.Key("bits_erased").UInt(o.bits_erased);
    w.Key("pairs_erased").UInt(o.pairs_erased);
    w.Key("votes_cast").UInt(o.votes_cast);
  }
  w.EndObject();
}

}  // namespace

TickPercentiles PercentilesOf(std::vector<uint64_t> values) {
  TickPercentiles p;
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  auto rank = [&](double q) {
    // Nearest-rank: ceil(q * n), 1-based, clamped.
    size_t r = static_cast<size_t>(q * static_cast<double>(values.size()) + 0.9999);
    if (r < 1) r = 1;
    if (r > values.size()) r = values.size();
    return values[r - 1];
  };
  p.p50 = rank(0.50);
  p.p90 = rank(0.90);
  p.p99 = rank(0.99);
  return p;
}

StreamReport BuildStreamReport(const UpdateGenerator& generator,
                               const StreamServer& server,
                               const EpochDetector& detector,
                               const DetectOutcome& final_audit) {
  StreamReport r;
  r.generated = generator.generated();
  r.hostile_generated = generator.hostile_generated();
  r.generated_by_kind.assign(generator.generated_by_kind().begin(),
                             generator.generated_by_kind().end());
  r.counters = server.counters();
  r.passes = detector.outcomes();
  r.retried = detector.retried();
  r.gave_up = detector.gave_up();
  std::vector<uint64_t> completed_ticks;
  for (const DetectOutcome& o : r.passes) {
    if (!o.gave_up) {
      ++r.passes_completed;
      completed_ticks.push_back(o.ticks);
    }
  }
  r.latency = PercentilesOf(std::move(completed_ticks));
  r.final_audit = final_audit;
  return r;
}

void WriteStreamReportJson(JsonWriter& w, const StreamReport& r) {
  w.BeginObject();
  w.Key("traffic").BeginObject();
  w.Key("generated").UInt(r.generated);
  w.Key("hostile_generated").UInt(r.hostile_generated);
  WriteKindCounts(w, "generated_by_kind", r.generated_by_kind);
  w.EndObject();

  const StreamCounters& c = r.counters;
  w.Key("admission").BeginObject();
  w.Key("submitted").UInt(c.submitted);
  w.Key("applied").UInt(c.applied);
  w.Key("rejected").UInt(c.rejected);
  w.Key("rejected_by_code").BeginObject();
  for (size_t i = 0; i < kNumStatusCodes; ++i) {
    if (c.rejected_by_code[i] == 0) continue;
    w.Key(StatusCodeName(static_cast<StatusCode>(i))).UInt(c.rejected_by_code[i]);
  }
  w.EndObject();
  WriteKindCounts(w, "applied_by_kind",
                  std::vector<uint64_t>(c.applied_by_kind.begin(),
                                        c.applied_by_kind.end()));
  WriteKindCounts(w, "rejected_by_kind",
                  std::vector<uint64_t>(c.rejected_by_kind.begin(),
                                        c.rejected_by_kind.end()));
  w.Key("fallback_epochs").UInt(c.fallback_epochs);
  w.Key("epochs_sealed").UInt(c.epochs_sealed);
  w.Key("accounted").Bool(r.Accounted());
  w.EndObject();

  w.Key("detection").BeginObject();
  w.Key("passes_completed").UInt(r.passes_completed);
  w.Key("retried").UInt(r.retried);
  w.Key("gave_up").UInt(r.gave_up);
  w.Key("latency_ticks").BeginObject();
  w.Key("p50").UInt(r.latency.p50);
  w.Key("p90").UInt(r.latency.p90);
  w.Key("p99").UInt(r.latency.p99);
  w.EndObject();
  w.Key("passes").BeginArray();
  for (const DetectOutcome& o : r.passes) WriteOutcome(w, o);
  w.EndArray();
  w.Key("final_audit");
  WriteOutcome(w, r.final_audit);
  w.EndObject();
  w.EndObject();
}

std::string StreamReportToJson(const StreamReport& r) {
  JsonWriter w;
  WriteStreamReportJson(w, r);
  // A copy, not a move: the copy is allocated at the document's exact size,
  // while the writer's buffer carries the slack of its geometric growth.
  return std::string(w.str());
}

}  // namespace qpwm
