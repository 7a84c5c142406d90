// Timing wrappers around a suspect AnswerServer, used by the traced run only.
//
// Detection picks its serving path by the server's kind: a BatchAnswerServer
// is asked for one AnswerAllFlat round trip, any other server is asked one
// Answer() per parameter. A wrapper that changed the kind would change the
// path being measured, so WrapTimed returns a batch wrapper (forwarding
// AnswerBatch and AnswerAllFlat to the inner server's own overrides) for a
// batch inner server and a plain wrapper otherwise. Every call opens one
// span whose item count is the number of parameters served.
#ifndef QPWM_BENCHMARK_TIMED_SERVER_H_
#define QPWM_BENCHMARK_TIMED_SERVER_H_

#include <memory>
#include <vector>

#include "qpwm/core/answers.h"
#include "spans.h"

namespace qpwm_bench {

class TimedServer : public qpwm::AnswerServer {
 public:
  TimedServer(const qpwm::AnswerServer& inner, SpanRecorder* rec,
              const char* span_name)
      : inner_(&inner), rec_(rec), name_(span_name) {}

  qpwm::AnswerSet Answer(const qpwm::Tuple& params) const override {
    ScopedSpan span(rec_, name_);
    span.set_items(1);
    return inner_->Answer(params);
  }

 private:
  const qpwm::AnswerServer* inner_;
  SpanRecorder* rec_;
  const char* name_;
};

class TimedBatchServer : public qpwm::BatchAnswerServer {
 public:
  TimedBatchServer(const qpwm::BatchAnswerServer& inner, SpanRecorder* rec,
                   const char* span_name)
      : inner_(&inner), rec_(rec), name_(span_name) {}

  qpwm::AnswerSet Answer(const qpwm::Tuple& params) const override {
    ScopedSpan span(rec_, name_);
    span.set_items(1);
    return inner_->Answer(params);
  }
  std::vector<qpwm::AnswerSet> AnswerBatch(
      const std::vector<qpwm::Tuple>& params) const override {
    ScopedSpan span(rec_, name_);
    span.set_items(params.size());
    return inner_->AnswerBatch(params);
  }
  void AnswerAllFlat(const std::vector<qpwm::Tuple>& params,
                     qpwm::FlatAnswerBatch& out) const override {
    ScopedSpan span(rec_, name_);
    span.set_items(params.size());
    inner_->AnswerAllFlat(params, out);
  }

 private:
  const qpwm::BatchAnswerServer* inner_;
  SpanRecorder* rec_;
  const char* name_;
};

/// Wraps `inner` in a timing server of the same kind. `inner` must outlive
/// the wrapper.
inline std::unique_ptr<qpwm::AnswerServer> WrapTimed(
    const qpwm::AnswerServer& inner, SpanRecorder* rec, const char* span_name) {
  if (const auto* batch = dynamic_cast<const qpwm::BatchAnswerServer*>(&inner)) {
    return std::make_unique<TimedBatchServer>(*batch, rec, span_name);
  }
  return std::make_unique<TimedServer>(inner, rec, span_name);
}

}  // namespace qpwm_bench

#endif  // QPWM_BENCHMARK_TIMED_SERVER_H_
