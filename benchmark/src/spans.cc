#include "spans.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace qpwm_bench {

namespace {

// Innermost open span of this thread, so nested calls find their parent.
thread_local int32_t tls_span = -1;
thread_local uint64_t tls_request = 0;

}  // namespace

int32_t SpanRecorder::Begin(const char* name, uint64_t request,
                            int32_t parent) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanRecorder::End(int32_t id, uint64_t items) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
  spans_[static_cast<size_t>(id)].items = items;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

ScopedSpan::ScopedSpan(SpanRecorder* rec, const char* name)
    : ScopedSpan(rec, name, tls_request, tls_span) {}

ScopedSpan::ScopedSpan(SpanRecorder* rec, const char* name, uint64_t request)
    : ScopedSpan(rec, name, request, tls_span) {}

ScopedSpan::ScopedSpan(SpanRecorder* rec, const char* name, uint64_t request,
                       int32_t parent)
    : rec_(rec), request_(request) {
  if (rec_ == nullptr) return;
  id_ = rec_->Begin(name, request, parent);
  saved_id_ = tls_span;
  saved_request_ = tls_request;
  tls_span = id_;
  tls_request = request;
}

ScopedSpan::~ScopedSpan() {
  if (rec_ == nullptr) return;
  rec_->End(id_, items_);
  tls_span = saved_id_;
  tls_request = saved_request_;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

RequestTotals TotalsByRequest(const std::vector<Span>& spans,
                              const std::vector<int64_t>& self_ns) {
  RequestTotals out;
  for (size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = out[spans[i].name][spans[i].request];
    t.self_s += static_cast<double>(self_ns[i]) * 1e-9;
    t.total_s += static_cast<double>(spans[i].duration_ns()) * 1e-9;
    ++t.calls;
    t.items += spans[i].items;
  }
  return out;
}

std::string SpansToJson(const std::vector<Span>& spans,
                        const std::vector<int64_t>& self_ns) {
  int64_t origin = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i == 0 || spans[i].start_ns < origin) origin = spans[i].start_ns;
  }
  std::ostringstream os;
  os << "{\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) os << ",\n";
    os << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"start_ns\":" << (s.start_ns - origin)
       << ",\"end_ns\":" << (s.end_ns - origin) << ",\"parent\":" << s.parent
       << ",\"request\":" << s.request << ",\"items\":" << s.items
       << ",\"self_ns\":" << self_ns[i] << "}";
  }
  os << "]}\n";
  return os.str();
}

}  // namespace qpwm_bench
