#include "qpwm/stream/detect_loop.h"

#include <utility>

#include "qpwm/util/check.h"

namespace qpwm {

EpochDetector::EpochDetector(const CodedWatermark& coded, BitVec payload,
                             uint64_t seed, DetectLoopOptions options)
    : coded_(&coded), payload_(std::move(payload)), seed_(seed),
      options_(options) {
  QPWM_CHECK_EQ(payload_.size(), coded.PayloadBits());
  QPWM_CHECK(options_.max_attempts >= 1);
}

std::optional<DetectOutcome> EpochDetector::Tick(const StreamSnapshot& snap) {
  if (backoff_windows_ > 0) {
    --backoff_windows_;
    ticks_in_pass_ += options_.backoff_window_ticks;
    return std::nullopt;
  }

  const FaultPlan plan = MakeFaultPlan(seed_, attempt_counter_++, options_.faults);
  FaultyAnswerServer faulty(*snap.serving, plan);
  Result<CodedDetection> detection =
      coded_->Detect(snap.original, faulty);
  ++attempts_in_pass_;
  ticks_in_pass_ += faulty.ticks();

  // A pass whose epoch was yanked (or whose answer batch failed, or — belt
  // and braces — whose snapshot was retired under it) produced garbage
  // observations; discard them and retry against the next snapshot.
  const bool lost = faulty.faulted() || !detection.ok();
  if (lost) {
    if (attempts_in_pass_ >= options_.max_attempts) {
      DetectOutcome out;
      out.pass = pass_counter_++;
      out.epoch = snap.epoch;
      out.gave_up = true;
      out.attempts = attempts_in_pass_;
      out.ticks = ticks_in_pass_;
      ++gave_up_;
      attempts_in_pass_ = 0;
      ticks_in_pass_ = 0;
      outcomes_.push_back(out);
      return out;
    }
    ++retried_;
    backoff_windows_ = attempts_in_pass_;  // bounded linear backoff
    return std::nullopt;
  }

  DetectOutcome out = Judge(detection.value(), snap.epoch, attempts_in_pass_,
                            ticks_in_pass_);
  out.pass = pass_counter_++;
  attempts_in_pass_ = 0;
  ticks_in_pass_ = 0;
  outcomes_.push_back(out);
  return out;
}

DetectOutcome EpochDetector::Audit(const StreamSnapshot& snap) const {
  FaultyAnswerServer clean(*snap.serving, FaultPlan{});
  Result<CodedDetection> detection =
      coded_->Detect(snap.original, clean);
  QPWM_CHECK(detection.ok());
  return Judge(detection.value(), snap.epoch, /*attempts=*/1, clean.ticks());
}

DetectOutcome EpochDetector::Judge(const CodedDetection& detection,
                                   uint64_t epoch, uint32_t attempts,
                                   uint64_t ticks) const {
  DetectOutcome out;
  out.epoch = epoch;
  out.attempts = attempts;
  out.ticks = ticks;
  out.verdict = detection.verdict.kind;
  out.log10_fp_bound = detection.verdict.log10_fp_bound;
  out.bits_erased = detection.message.bits_erased;
  out.pairs_erased = detection.channel.pairs_erased;
  out.votes_cast = detection.verdict.votes_cast;
  out.payload_correct = detection.message.payload.size() == payload_.size();
  for (size_t i = 0; out.payload_correct && i < payload_.size(); ++i) {
    out.payload_correct = detection.message.payload.Get(i) == payload_.Get(i);
  }
  return out;
}

}  // namespace qpwm
