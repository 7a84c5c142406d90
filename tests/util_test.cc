#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <unordered_set>

#include "qpwm/util/bitvec.h"
#include "qpwm/util/hash.h"
#include "qpwm/util/json.h"
#include "qpwm/util/random.h"
#include "qpwm/util/status.h"
#include "qpwm/util/str.h"
#include "qpwm/util/table.h"

namespace qpwm {
namespace {

// --- Status / Result ---------------------------------------------------

TEST(StatusTest, OkIsOk) {
  Status s = Status::OK();
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad epsilon");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad epsilon");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.ValueOrDie(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string v = std::move(r).ValueOrDie();
  EXPECT_EQ(v, "payload");
}

// --- Rng ----------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 3);
}

TEST(RngTest, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Below(17), 17u);
}

TEST(RngTest, UniformInclusiveRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.Uniform(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, BernoulliRoughlyFair) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(9);
  auto sample = rng.SampleWithoutReplacement(50, 20);
  std::set<size_t> set(sample.begin(), sample.end());
  EXPECT_EQ(set.size(), 20u);
  for (size_t s : sample) EXPECT_LT(s, 50u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// --- Hash / PRF ----------------------------------------------------------

TEST(HashTest, SipHashReferenceVector) {
  // Reference test vector from the SipHash paper: key 000102...0f,
  // input 000102...0e -> 0xa129ca6149be45e5.
  PrfKey key{0x0706050403020100ULL, 0x0F0E0D0C0B0A0908ULL};
  unsigned char input[15];
  for (int i = 0; i < 15; ++i) input[i] = static_cast<unsigned char>(i);
  EXPECT_EQ(SipHash24(key, input, sizeof(input)), 0xA129CA6149BE45E5ULL);
}

TEST(HashTest, PrfKeyedDiffers) {
  PrfKey k1{1, 2}, k2{1, 3};
  EXPECT_NE(Prf(k1, "hello"), Prf(k2, "hello"));
}

TEST(HashTest, DeriveGivesIndependentSubkeys) {
  PrfKey k{42, 43};
  PrfKey d1 = k.Derive(1), d2 = k.Derive(2);
  EXPECT_FALSE(d1.k0 == d2.k0 && d1.k1 == d2.k1);
  EXPECT_NE(Prf(d1, "x"), Prf(d2, "x"));
}

TEST(HashTest, HashBytesSpreads) {
  std::unordered_set<uint64_t> values;
  for (int i = 0; i < 1000; ++i) {
    values.insert(HashBytes(&i, sizeof(i)));
  }
  EXPECT_EQ(values.size(), 1000u);
}

// --- BitVec ---------------------------------------------------------------

TEST(BitVecTest, DefaultAllZero) {
  BitVec v(70);
  EXPECT_EQ(v.size(), 70u);
  EXPECT_EQ(v.Count(), 0u);
  for (size_t i = 0; i < 70; ++i) EXPECT_FALSE(v.Get(i));
}

TEST(BitVecTest, SetGetFlip) {
  BitVec v(100);
  v.Set(0, true);
  v.Set(63, true);
  v.Set(64, true);
  v.Set(99, true);
  EXPECT_EQ(v.Count(), 4u);
  v.Flip(63);
  EXPECT_FALSE(v.Get(63));
  EXPECT_EQ(v.Count(), 3u);
}

TEST(BitVecTest, Uint64RoundTrip) {
  BitVec v = BitVec::FromUint64(0b1011010, 7);
  EXPECT_EQ(v.ToUint64(), 0b1011010u);
  EXPECT_EQ(v.ToString(), "0101101");  // bit 0 first
}

TEST(BitVecTest, StringRoundTrip) {
  BitVec v = BitVec::FromString("0110010011");
  EXPECT_EQ(v.ToString(), "0110010011");
  EXPECT_EQ(v.Count(), 5u);
}

TEST(BitVecTest, HammingDistance) {
  BitVec a = BitVec::FromString("101010");
  BitVec b = BitVec::FromString("100110");
  EXPECT_EQ(a.HammingDistance(b), 2u);
  EXPECT_EQ(a.HammingDistance(a), 0u);
}

TEST(BitVecTest, Equality) {
  EXPECT_EQ(BitVec::FromString("101"), BitVec::FromString("101"));
  EXPECT_NE(BitVec::FromString("101"), BitVec::FromString("100"));
  EXPECT_NE(BitVec::FromString("101"), BitVec::FromString("1010"));
}

TEST(BitVecTest, AllOnesConstructor) {
  BitVec v(67, true);
  EXPECT_EQ(v.Count(), 67u);
}

// --- Strings ----------------------------------------------------------------

TEST(StrTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StrTest, JoinRoundTrip) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, "::"), "x::y::z");
}

TEST(StrTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \n\t"), "hi");
  EXPECT_EQ(StripWhitespace("\r\n"), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(StrTest, StrCatMixesTypes) {
  EXPECT_EQ(StrCat("n=", 42, ", p=", 1.5), "n=42, p=1.5");
}

TEST(StrTest, StartsWith) {
  EXPECT_TRUE(StartsWith("P_label", "P_"));
  EXPECT_FALSE(StartsWith("P", "P_"));
}

// --- TextTable ---------------------------------------------------------------

TEST(TableTest, RendersAlignedRows) {
  TextTable t("demo");
  t.SetHeader({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "10000"});
  std::ostringstream os;
  t.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 10000 |"), std::string::npos);
}

TEST(TableTest, FmtDouble) {
  EXPECT_EQ(FmtDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FmtDouble(2.0, 0), "2");
}

// --- JsonWriter --------------------------------------------------------------

TEST(JsonWriterTest, NestedContainersPlaceCommasBetweenSiblingsOnly) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a").UInt(1);
  w.Key("empty").BeginArray().EndArray();
  w.Key("list").BeginArray();
  w.Int(-2).BeginObject().Key("x").Bool(true).Key("y").Bool(false).EndObject();
  w.BeginArray().EndArray();
  w.String("s");
  w.EndArray();
  w.Key("inner").BeginObject().Key("k").BeginObject().EndObject().EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(),
            R"({"a":1,"empty":[],"list":[-2,{"x":true,"y":false},[],"s"],)"
            R"("inner":{"k":{}}})");
}

TEST(JsonWriterTest, EscapesQuotesBackslashesAndEveryControlByte) {
  JsonWriter w;
  w.BeginArray().String("say \"hi\" \\ done").String("a\nb\tc\rd");
  std::string controls;
  for (int c = 0; c < 0x20; ++c) controls += static_cast<char>(c);
  w.String(controls).String("\x7f\xc3\xa9").EndArray();
  EXPECT_EQ(w.str(),
            R"(["say \"hi\" \\ done","a\nb\tc\u000dd",)"
            R"("\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n)"
            R"(\u000b\u000c\u000d\u000e\u000f\u0010\u0011\u0012\u0013\u0014)"
            R"(\u0015\u0016\u0017\u0018\u0019\u001a\u001b\u001c\u001d\u001e)"
            R"(\u001f",)"
            "\"\x7f\xc3\xa9\"]");
  // Object keys go through the same escaping.
  JsonWriter k;
  k.BeginObject().Key("a\rb").UInt(0).EndObject();
  EXPECT_EQ(k.str(), R"({"a\u000db":0})");
}

TEST(JsonWriterTest, NonFiniteDoublesAreNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(std::numeric_limits<double>::infinity());
  w.Double(-std::numeric_limits<double>::infinity());
  w.Double(std::numeric_limits<double>::quiet_NaN());
  w.Fixed4(std::numeric_limits<double>::quiet_NaN());
  w.Fixed4(-std::numeric_limits<double>::infinity());
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null,null,null,null]");
}

TEST(JsonWriterTest, NumberFormatsMatchPrintf) {
  JsonWriter w;
  w.BeginArray();
  // Double: printf "%.6g", the iostream default.
  w.Double(0.1).Double(1.0).Double(1234567.0).Double(1e-7).Double(-0.5);
  // Fixed4: printf "%.4f".
  w.Fixed4(0.0).Fixed4(2.0).Fixed4(-12.34567).Fixed4(1e-5).Fixed4(123456789.0);
  w.EndArray();
  EXPECT_EQ(w.str(),
            "[0.1,1,1.23457e+06,1e-07,-0.5,"
            "0.0000,2.0000,-12.3457,0.0000,123456789.0000]");
}

}  // namespace
}  // namespace qpwm
