// JsonWriter: the one JSON emitter behind every report the project writes
// (the stream soak report, the fault campaign, the lint report and the bench
// artifacts). An ordered, append-only writer — objects, arrays and scalars
// with comma management — and no parser.
//
// Header-only so tools that do not link the library (qpwm_lint) can use it.
//
// Number formats are fixed per call so a report's bytes never depend on
// stream state: Double is printf's "%.6g" (the iostream default), Fixed4 is
// "%.4f". Non-finite doubles are written as null. Strings escape '"', '\\'
// and every byte below 0x20.
#ifndef QPWM_UTIL_JSON_H_
#define QPWM_UTIL_JSON_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace qpwm {

class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }

  JsonWriter& Key(std::string_view k) {
    Comma();
    AppendString(k);
    out_ += ':';
    pending_value_ = true;
    return *this;
  }

  JsonWriter& String(std::string_view v) {
    Comma();
    AppendString(v);
    return *this;
  }
  JsonWriter& UInt(uint64_t v) {
    Comma();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Int(int64_t v) {
    Comma();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Bool(bool v) {
    Comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  /// Six significant digits ("%.6g").
  JsonWriter& Double(double v) { return Number(v, /*fixed4=*/false); }
  /// Fixed point with four decimals ("%.4f").
  JsonWriter& Fixed4(double v) { return Number(v, /*fixed4=*/true); }

  const std::string& str() const { return out_; }

 private:
  void Comma() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (!needs_comma_.empty() && needs_comma_.back()) out_ += ',';
    if (!needs_comma_.empty()) needs_comma_.back() = true;
  }

  JsonWriter& Open(char c) {
    Comma();
    out_ += c;
    needs_comma_.push_back(false);
    return *this;
  }

  JsonWriter& Close(char c) {
    needs_comma_.pop_back();
    out_ += c;
    if (!needs_comma_.empty()) needs_comma_.back() = true;
    return *this;
  }

  JsonWriter& Number(double v, bool fixed4) {
    Comma();
    if (!std::isfinite(v)) {
      out_ += "null";
      return *this;
    }
    // snprintf rather than std::to_chars: the latter's lookup tables add
    // ~0.2 MB to the resident set of a process that writes reports.
    // 352 bytes fit any finite double in either format (DBL_MAX has 309
    // integer digits).
    char buf[352];
    if (fixed4) {
      std::snprintf(buf, sizeof(buf), "%.4f", v);
    } else {
      std::snprintf(buf, sizeof(buf), "%.6g", v);
    }
    out_ += buf;
    return *this;
  }

  void AppendString(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      const auto u = static_cast<unsigned char>(c);
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (u < 0x20) {
            constexpr char kHex[] = "0123456789abcdef";
            out_ += "\\u00";
            out_ += kHex[u >> 4];
            out_ += kHex[u & 0xf];
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> needs_comma_;
  bool pending_value_ = false;
};

/// Writes the finished document and a trailing newline to `path`,
/// replacing the file. Returns false if it cannot be written.
inline bool WriteJsonFile(const std::string& path, const JsonWriter& w) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << w.str() << '\n';
  return static_cast<bool>(out);
}

}  // namespace qpwm

#endif  // QPWM_UTIL_JSON_H_
