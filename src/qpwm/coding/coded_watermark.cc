#include "qpwm/coding/coded_watermark.h"

#include <utility>

#include "qpwm/util/check.h"

namespace qpwm {

CodedWatermark::CodedWatermark(const AdversarialScheme& channel,
                               const MessageCodec& codec, CodedOptions options)
    : channel_(&channel),
      codec_(&codec),
      options_(options),
      used_bits_(codec.UsedBits(channel.CapacityBits())),
      payload_bits_(codec.PayloadBits(channel.CapacityBits())),
      interleaver_(std::max<size_t>(codec.NumBlocks(channel.CapacityBits()), 1),
                   codec.BlockLength()) {}

size_t CodedWatermark::SlotOf(size_t codeword_index) const {
  return options_.interleave ? interleaver_.Spread(codeword_index)
                             : codeword_index;
}

BitVec CodedWatermark::ChannelWord(const BitVec& payload) const {
  QPWM_CHECK_EQ(payload.size(), payload_bits_);
  const BitVec codeword = codec_->Encode(payload);
  QPWM_CHECK_EQ(codeword.size(), used_bits_);
  BitVec word(channel_->CapacityBits());
  for (size_t i = 0; i < used_bits_; ++i) {
    word.Set(SlotOf(i), codeword.Get(i));
  }
  return word;
}

WeightMap CodedWatermark::Embed(const WeightMap& original,
                                const BitVec& payload) const {
  return channel_->Embed(original, ChannelWord(payload));
}

CodedDetection CodedWatermark::DecodeChannel(AdversarialDetection detection) const {
  const size_t redundancy = channel_->Redundancy();
  std::vector<SoftBit> soft(used_bits_);
  for (size_t i = 0; i < used_bits_; ++i) {
    const size_t slot = SlotOf(i);
    soft[i].erased = detection.bit_erased[slot];
    // Signed confidence: the group's integer vote difference, scaled so a
    // unanimous full group is +-1. The mark bit's sign is already carried by
    // the difference (positive = bit 1).
    soft[i].value = static_cast<double>(detection.vote_diffs[slot]) /
                    static_cast<double>(redundancy);
  }

  CodedDetection out;
  out.message = codec_->Decode(soft);

  // Verdict statistic: vote mass behind the re-encoded codeword, counted in
  // integer pair votes (u), over the votes actually cast on used groups (N).
  const BitVec codeword = codec_->Encode(out.message.payload);
  int64_t vote_weight = 0;
  uint64_t votes_cast = 0;
  size_t agree = 0;
  size_t disagree = 0;
  size_t erased = 0;
  for (size_t i = 0; i < used_bits_; ++i) {
    const size_t slot = SlotOf(i);
    if (detection.bit_erased[slot]) {
      ++erased;
      continue;
    }
    const int32_t diff = detection.vote_diffs[slot];
    const int sign = codeword.Get(i) ? +1 : -1;
    vote_weight += sign * static_cast<int64_t>(diff);
    votes_cast += detection.votes_cast[slot];
    if (diff == 0) continue;  // abstained: neither agreement nor conflict
    if ((diff > 0) == codeword.Get(i)) {
      ++agree;
    } else {
      ++disagree;
    }
  }
  out.verdict =
      JudgeDetection(vote_weight, votes_cast, out.message.payload.size(),
                     out.message.bits_erased, agree, disagree, erased,
                     options_.verdict);
  out.channel = std::move(detection);
  return out;
}

Result<CodedDetection> CodedWatermark::Detect(const WeightMap& original,
                                              const AnswerServer& suspect) const {
  auto detection = channel_->Detect(original, suspect);
  if (!detection.ok()) return detection.status();
  return DecodeChannel(std::move(detection).value());
}

std::vector<CodedDetection> CodedWatermark::DetectMany(
    const WeightMap& original,
    const std::vector<const AnswerServer*>& suspects) const {
  std::vector<AdversarialDetection> raw = channel_->DetectMany(original, suspects);
  std::vector<CodedDetection> out;
  out.reserve(raw.size());
  for (AdversarialDetection& d : raw) out.push_back(DecodeChannel(std::move(d)));
  return out;
}

}  // namespace qpwm
