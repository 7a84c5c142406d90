// The coded watermark channel: payload -> codeword -> interleaved pair
// groups, and back through soft-decision decoding with a stated
// false-positive bound.
//
// Layering (each stage wraps the previous, nothing is bypassed):
//
//   payload bits  --MessageCodec::Encode-->  codeword bits
//   codeword bits --BlockInterleaver------>  channel bits (pair groups)
//   channel bits  --AdversarialScheme----->  antipodal pair deltas
//
// and on detection the reverse: AdversarialScheme::Detect produces per-group
// soft votes (signed vote differences + erasure flags), the interleaver
// gathers them back into codeword order, the codec decodes, and the verdict
// bounds the probability that an unrelated database would fake the result.
//
// With the identity codec the codeword equals the payload, the interleaver
// is the identity permutation, and Embed/the channel half of Detect are
// bit-identical to the raw AdversarialScheme — the uncoded path is the
// degenerate case, not a separate code path.
#ifndef QPWM_CODING_CODED_WATERMARK_H_
#define QPWM_CODING_CODED_WATERMARK_H_

#include <memory>
#include <vector>

#include "qpwm/coding/codec.h"
#include "qpwm/coding/interleaver.h"
#include "qpwm/coding/verdict.h"
#include "qpwm/core/adversarial.h"

namespace qpwm {

struct CodedOptions {
  /// Stripe codewords across the channel (see interleaver.h). Off = each
  /// codeword occupies a contiguous group range, the burst-fragile layout
  /// kept as an ablation for the fault campaign.
  bool interleave = true;
  VerdictOptions verdict;
};

/// Full report of one coded detection run.
struct CodedDetection {
  /// The raw channel-level report (group votes, margins, erasures) — same
  /// object AdversarialScheme::Detect returns, nothing is hidden by coding.
  AdversarialDetection channel;
  /// Decoded payload with per-bit confidences and correction accounting.
  DecodedMessage message;
  /// Statistical verdict over the decoded payload.
  DetectionVerdict verdict;
};

/// A message codec threaded through an AdversarialScheme. The scheme and
/// codec must outlive the wrapper.
class CodedWatermark {
 public:
  CodedWatermark(const AdversarialScheme& channel, const MessageCodec& codec,
                 CodedOptions options = {});

  /// Payload capacity after coding overhead: k * floor(channel bits / n).
  size_t PayloadBits() const { return payload_bits_; }
  /// Channel bits carrying code symbols; trailing groups stay zero.
  size_t UsedChannelBits() const { return used_bits_; }
  const MessageCodec& codec() const { return *codec_; }
  const AdversarialScheme& channel() const { return *channel_; }

  /// Embeds a payload of PayloadBits() bits.
  WeightMap Embed(const WeightMap& original, const BitVec& payload) const;

  /// Detects, decodes, and judges. Never fails on structural damage —
  /// erasures flow through the decoder into a partial verdict.
  [[nodiscard]] Result<CodedDetection> Detect(const WeightMap& original,
                                const AnswerServer& suspect) const;

  /// Multi-suspect fan-out: the channel reads run on the thread pool via
  /// AdversarialScheme::DetectMany; decoding and judging are deterministic
  /// per suspect, so results are index-aligned and bit-identical to serial
  /// Detect calls for any thread count.
  std::vector<CodedDetection> DetectMany(
      const WeightMap& original,
      const std::vector<const AnswerServer*>& suspects) const;

  /// The channel word Embed writes: codec + interleaver applied to payload,
  /// zero-padded to the channel's full width. Exposed for tests and for the
  /// fault campaign's region-deletion targeting.
  BitVec ChannelWord(const BitVec& payload) const;

 private:
  CodedDetection DecodeChannel(AdversarialDetection detection) const;
  size_t SlotOf(size_t codeword_index) const;

  const AdversarialScheme* channel_;
  const MessageCodec* codec_;
  CodedOptions options_;
  size_t used_bits_ = 0;
  size_t payload_bits_ = 0;
  BlockInterleaver interleaver_;
};

}  // namespace qpwm

#endif  // QPWM_CODING_CODED_WATERMARK_H_
