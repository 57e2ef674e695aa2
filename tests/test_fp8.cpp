// TestFloat-style exhaustive verification of the FP8/FP4 conversion
// layer (numeric/fp8.hpp). The conversion spaces are tiny — 256 codes
// per fp8 format, 16 per fp4 — so every encoding is checked, against an
// INDEPENDENT reference built here from the format definition alone:
// decode via the textbook sign/exponent/mantissa formula, encode via
// brute-force nearest-value search over the full finite code set with
// the tie broken toward the even mantissa slot. RNE ties, subnormals,
// overflow saturation and the NaN policy are additionally pinned
// against hand-computed constants so a bug in BOTH implementations
// would still have to agree with arithmetic done by hand.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "numeric/fp8.hpp"

namespace protea::numeric {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

struct RefFormat {
  int mant_bits;
  int bias;
  bool has_inf;    // top exponent field = inf/NaN (e5m2)
  bool top_nan;    // top exponent + all-ones mantissa = NaN (e4m3)
  int code_bits;   // 8 for fp8, 4 for fp4
};

constexpr RefFormat kRefE4M3{3, 7, false, true, 8};
constexpr RefFormat kRefE5M2{2, 15, true, false, 8};
constexpr RefFormat kRefE2M1{1, 1, false, false, 4};

enum class RefClass { kFinite, kInfinite, kNotANumber };

/// Textbook decode: value = (-1)^s * m * 2^(e-bias-mant_bits) with
/// m = mantissa (exp field 0) or 2^mant_bits + mantissa (normal).
double ref_decode(unsigned code, const RefFormat& f, RefClass& cls) {
  const int m = f.mant_bits;
  const int exp_bits = f.code_bits - 1 - m;
  const int sign = (code >> (f.code_bits - 1)) & 1;
  const int exp_field = static_cast<int>((code >> m) & ((1u << exp_bits) - 1));
  const int mant = static_cast<int>(code & ((1u << m) - 1));
  const int e_max = (1 << exp_bits) - 1;
  cls = RefClass::kFinite;
  if (f.has_inf && exp_field == e_max) {
    cls = mant == 0 ? RefClass::kInfinite : RefClass::kNotANumber;
    return sign != 0 ? -1.0 : 1.0;  // sign carrier for inf
  }
  if (f.top_nan && exp_field == e_max && mant == (1 << m) - 1) {
    cls = RefClass::kNotANumber;
    return 0.0;
  }
  double v;
  if (exp_field == 0) {
    v = mant * std::pow(2.0, 1 - f.bias - m);
  } else {
    v = ((1 << m) + mant) * std::pow(2.0, exp_field - f.bias - m);
  }
  return sign != 0 ? -v : v;
}

/// All non-negative finite codes of a format, in ascending value order
/// (the code layout is monotonic, asserted below).
std::vector<unsigned> finite_magnitude_codes(const RefFormat& f) {
  std::vector<unsigned> codes;
  const unsigned half = 1u << (f.code_bits - 1);
  for (unsigned c = 0; c < half; ++c) {
    RefClass cls;
    ref_decode(c, f, cls);
    if (cls == RefClass::kFinite) codes.push_back(c);
  }
  return codes;
}

/// Brute-force RNE encode: nearest finite value; exact tie goes to the
/// code with even mantissa-field LSB (adjacent magnitudes always have
/// consecutive codes, so exactly one candidate qualifies — including
/// across binade and subnormal/normal boundaries). Overflow saturates.
unsigned ref_encode(double x, const RefFormat& f, unsigned canonical_nan) {
  const unsigned sign_bit = 1u << (f.code_bits - 1);
  if (std::isnan(x)) {
    return (std::signbit(x) ? sign_bit : 0u) | canonical_nan;
  }
  const unsigned sign = std::signbit(x) ? sign_bit : 0u;
  const double a = std::fabs(x);
  const std::vector<unsigned> codes = finite_magnitude_codes(f);
  RefClass cls;
  if (std::isinf(x) || a >= ref_decode(codes.back(), f, cls)) {
    // >= max finite: nearest is max finite (no representable value
    // above it — saturation and rounding agree).
    if (std::isinf(x) || a > ref_decode(codes.back(), f, cls)) {
      return sign | codes.back();
    }
  }
  unsigned best = codes[0];
  double best_err = std::fabs(a - ref_decode(codes[0], f, cls));
  for (unsigned c : codes) {
    const double err = std::fabs(a - ref_decode(c, f, cls));
    if (err < best_err || (err == best_err && (c & 1u) == 0)) {
      best_err = err;
      best = c;
    }
  }
  return sign | best;
}

// --- exhaustive agreement with the independent reference --------------------

TEST(Fp8Exhaustive, E4M3DecodeMatchesReference) {
  for (unsigned c = 0; c < 256; ++c) {
    RefClass cls;
    const double ref = ref_decode(c, kRefE4M3, cls);
    const float got = fp8_decode(static_cast<uint8_t>(c), Fp8Format::kE4M3);
    if (cls == RefClass::kNotANumber) {
      EXPECT_TRUE(std::isnan(got)) << "code " << c;
    } else {
      ASSERT_EQ(cls, RefClass::kFinite);
      EXPECT_EQ(static_cast<double>(got), ref) << "code " << c;
      // Signed zero round-trips its sign bit.
      if (ref == 0.0) {
        EXPECT_EQ(std::signbit(got), c >= 128) << "code " << c;
      }
    }
  }
}

TEST(Fp8Exhaustive, E5M2DecodeMatchesReference) {
  for (unsigned c = 0; c < 256; ++c) {
    RefClass cls;
    const double ref = ref_decode(c, kRefE5M2, cls);
    const float got = fp8_decode(static_cast<uint8_t>(c), Fp8Format::kE5M2);
    switch (cls) {
      case RefClass::kNotANumber:
        EXPECT_TRUE(std::isnan(got)) << "code " << c;
        break;
      case RefClass::kInfinite:
        EXPECT_TRUE(std::isinf(got)) << "code " << c;
        EXPECT_EQ(std::signbit(got), ref < 0) << "code " << c;
        break;
      case RefClass::kFinite:
        EXPECT_EQ(static_cast<double>(got), ref) << "code " << c;
        break;
    }
  }
}

TEST(Fp4Exhaustive, E2M1DecodeMatchesReference) {
  // The full value table, hand-computed from the e2m1 definition.
  const double expected[8] = {0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0};
  for (unsigned c = 0; c < 16; ++c) {
    RefClass cls;
    const double ref = ref_decode(c, kRefE2M1, cls);
    ASSERT_EQ(cls, RefClass::kFinite);
    const double mag = expected[c & 7];
    EXPECT_EQ(std::fabs(ref), mag) << "code " << c;
    EXPECT_EQ(static_cast<double>(fp4_decode(static_cast<uint8_t>(c))),
              c >= 8 ? -mag : mag)
        << "code " << c;
  }
}

/// Every finite code decodes and re-encodes to ITSELF — the round-trip
/// identity that makes table-driven KV storage reproducible. (Inf/NaN
/// codes are exempt by policy: encode saturates inf and canonicalizes
/// NaN; pinned separately below.)
TEST(Fp8Exhaustive, E4M3FiniteCodesRoundTrip) {
  for (unsigned c = 0; c < 256; ++c) {
    if ((c & 0x7f) == 0x7f) continue;  // NaN slots
    const float v = fp8_decode(static_cast<uint8_t>(c), Fp8Format::kE4M3);
    EXPECT_EQ(fp8_encode(v, Fp8Format::kE4M3), c);
  }
}

TEST(Fp8Exhaustive, E5M2FiniteCodesRoundTrip) {
  for (unsigned c = 0; c < 256; ++c) {
    if ((c & 0x7f) >= 0x7c) continue;  // inf + NaN slots
    const float v = fp8_decode(static_cast<uint8_t>(c), Fp8Format::kE5M2);
    EXPECT_EQ(fp8_encode(v, Fp8Format::kE5M2), c);
  }
}

TEST(Fp4Exhaustive, E2M1CodesRoundTrip) {
  for (unsigned c = 0; c < 16; ++c) {
    EXPECT_EQ(fp4_encode(fp4_decode(static_cast<uint8_t>(c))), c);
  }
}

/// Encode agrees with the brute-force nearest-even reference over a
/// dense sweep of the representable range plus every half-way point.
TEST(Fp8Exhaustive, E4M3EncodeMatchesReference) {
  std::vector<double> probes;
  const auto codes = finite_magnitude_codes(kRefE4M3);
  RefClass cls;
  for (size_t i = 0; i < codes.size(); ++i) {
    const double v = ref_decode(codes[i], kRefE4M3, cls);
    probes.push_back(v);
    if (i + 1 < codes.size()) {
      const double next = ref_decode(codes[i + 1], kRefE4M3, cls);
      probes.push_back((v + next) / 2);              // exact RNE tie
      probes.push_back(v + (next - v) * 0.25);       // round down
      probes.push_back(v + (next - v) * 0.75);       // round up
    }
  }
  probes.push_back(449.0);
  probes.push_back(464.0);   // tie at the overflow boundary
  probes.push_back(1.0e30);  // far overflow
  for (double p : probes) {
    for (double s : {1.0, -1.0}) {
      const float x = static_cast<float>(p * s);
      EXPECT_EQ(fp8_encode(x, Fp8Format::kE4M3),
                ref_encode(x, kRefE4M3, 0x7f))
          << "x = " << x;
    }
  }
}

TEST(Fp8Exhaustive, E5M2EncodeMatchesReference) {
  std::vector<double> probes;
  const auto codes = finite_magnitude_codes(kRefE5M2);
  RefClass cls;
  for (size_t i = 0; i < codes.size(); ++i) {
    const double v = ref_decode(codes[i], kRefE5M2, cls);
    probes.push_back(v);
    if (i + 1 < codes.size()) {
      const double next = ref_decode(codes[i + 1], kRefE5M2, cls);
      probes.push_back((v + next) / 2);
      probes.push_back(v + (next - v) * 0.25);
      probes.push_back(v + (next - v) * 0.75);
    }
  }
  probes.push_back(61440.0);  // tie between max finite and the next binade
  probes.push_back(1.0e30);
  for (double p : probes) {
    for (double s : {1.0, -1.0}) {
      const float x = static_cast<float>(p * s);
      EXPECT_EQ(fp8_encode(x, Fp8Format::kE5M2),
                ref_encode(x, kRefE5M2, 0x7f))
          << "x = " << x;
    }
  }
}

TEST(Fp4Exhaustive, E2M1EncodeMatchesReference) {
  for (int i = -1400; i <= 1400; ++i) {  // 0.005 steps across ±7
    const float x = static_cast<float>(i) * 0.005f;
    EXPECT_EQ(fp4_encode(x), ref_encode(x, kRefE2M1, 0)) << "x = " << x;
  }
}

// --- hand-pinned edges -------------------------------------------------------

TEST(Fp8Edges, E4M3PinnedValues) {
  // Subnormals: min 2^-9, max 7 x 2^-9; min normal 2^-6; one.
  EXPECT_EQ(fp8_decode(0x01, Fp8Format::kE4M3), 0.001953125f);
  EXPECT_EQ(fp8_decode(0x07, Fp8Format::kE4M3), 0.013671875f);
  EXPECT_EQ(fp8_decode(0x08, Fp8Format::kE4M3), 0.015625f);
  EXPECT_EQ(fp8_decode(0x38, Fp8Format::kE4M3), 1.0f);
  EXPECT_EQ(fp8_decode(0x7e, Fp8Format::kE4M3), 448.0f);
  EXPECT_TRUE(std::isnan(fp8_decode(0x7f, Fp8Format::kE4M3)));
  EXPECT_TRUE(std::isnan(fp8_decode(0xff, Fp8Format::kE4M3)));

  // RNE tie: 100 sits exactly between 96 (even significand 12) and 104
  // (odd 13) -> 96, code 0x6c.
  EXPECT_EQ(fp8_encode(100.0f, Fp8Format::kE4M3), 0x6c);
  EXPECT_EQ(fp8_decode(0x6c, Fp8Format::kE4M3), 96.0f);
  // Tie into signed zero: half the min subnormal, significand 0 even.
  EXPECT_EQ(fp8_encode(0.0009765625f, Fp8Format::kE4M3), 0x00);
  EXPECT_EQ(fp8_encode(-0.0009765625f, Fp8Format::kE4M3), 0x80);
  // Subnormal tie 1.5 x 2^-9 -> even significand 2.
  EXPECT_EQ(fp8_encode(0.0029296875f, Fp8Format::kE4M3), 0x02);
  // Saturation: overflow, the 464 tie (upper slot is the NaN hole,
  // 15 x 2^5 is NOT representable) and infinities all pin to +-448.
  EXPECT_EQ(fp8_encode(449.0f, Fp8Format::kE4M3), 0x7e);
  EXPECT_EQ(fp8_encode(464.0f, Fp8Format::kE4M3), 0x7e);
  EXPECT_EQ(fp8_encode(1.0e20f, Fp8Format::kE4M3), 0x7e);
  EXPECT_EQ(fp8_encode(kInf, Fp8Format::kE4M3), 0x7e);
  EXPECT_EQ(fp8_encode(-kInf, Fp8Format::kE4M3), 0xfe);
  // NaN canonicalizes, preserving sign.
  EXPECT_EQ(fp8_encode(kNaN, Fp8Format::kE4M3), 0x7f);
  EXPECT_EQ(fp8_encode(std::copysign(kNaN, -1.0f), Fp8Format::kE4M3), 0xff);
}

TEST(Fp8Edges, E5M2PinnedValues) {
  EXPECT_EQ(fp8_decode(0x01, Fp8Format::kE5M2), 0.0000152587890625f);
  EXPECT_EQ(fp8_decode(0x03, Fp8Format::kE5M2), 0.0000457763671875f);
  EXPECT_EQ(fp8_decode(0x04, Fp8Format::kE5M2), 0.00006103515625f);
  EXPECT_EQ(fp8_decode(0x3c, Fp8Format::kE5M2), 1.0f);
  EXPECT_EQ(fp8_decode(0x7b, Fp8Format::kE5M2), 57344.0f);
  EXPECT_TRUE(std::isinf(fp8_decode(0x7c, Fp8Format::kE5M2)));
  EXPECT_FALSE(std::signbit(fp8_decode(0x7c, Fp8Format::kE5M2)));
  EXPECT_TRUE(std::isinf(fp8_decode(0xfc, Fp8Format::kE5M2)));
  EXPECT_TRUE(std::signbit(fp8_decode(0xfc, Fp8Format::kE5M2)));
  EXPECT_TRUE(std::isnan(fp8_decode(0x7d, Fp8Format::kE5M2)));
  EXPECT_TRUE(std::isnan(fp8_decode(0x7e, Fp8Format::kE5M2)));
  EXPECT_TRUE(std::isnan(fp8_decode(0xff, Fp8Format::kE5M2)));

  // RNE tie: 4.5 between 4 (even significand) and 5 -> 4, code 0x44.
  // (5 itself is exactly representable: 1.01b x 2^2 = 0x45.)
  EXPECT_EQ(fp8_encode(4.5f, Fp8Format::kE5M2), 0x44);
  EXPECT_EQ(fp8_encode(5.0f, Fp8Format::kE5M2), 0x45);
  EXPECT_EQ(fp8_decode(0x44, Fp8Format::kE5M2), 4.0f);
  // Overflow tie: 61440 between 57344 (odd significand 7) and 65536
  // (next binade, even) — RNE rounds UP past the finite range, so the
  // documented saturation policy pins it back to max finite, not inf.
  EXPECT_EQ(fp8_encode(61440.0f, Fp8Format::kE5M2), 0x7b);
  EXPECT_EQ(fp8_encode(kInf, Fp8Format::kE5M2), 0x7b);
  EXPECT_EQ(fp8_encode(-kInf, Fp8Format::kE5M2), 0xfb);
  EXPECT_EQ(fp8_encode(kNaN, Fp8Format::kE5M2), 0x7f);
  EXPECT_EQ(fp8_encode(std::copysign(kNaN, -1.0f), Fp8Format::kE5M2), 0xff);
}

TEST(Fp4Edges, E2M1PinnedValues) {
  // Ties: 0.25 -> 0 (even), 0.75 -> 1.0 (up: odd subnormal 1 vs even
  // normal 2), 2.5 -> 2 (even), 5 -> 4 (even).
  EXPECT_EQ(fp4_encode(0.25f), 0x0);
  EXPECT_EQ(fp4_encode(0.75f), 0x2);
  EXPECT_EQ(fp4_encode(2.5f), 0x4);
  EXPECT_EQ(fp4_encode(5.0f), 0x6);
  EXPECT_EQ(fp4_encode(-5.0f), 0xe);
  // Saturation and the no-NaN policy.
  EXPECT_EQ(fp4_encode(7.0f), 0x7);
  EXPECT_EQ(fp4_encode(kInf), 0x7);
  EXPECT_EQ(fp4_encode(-kInf), 0xf);
  EXPECT_EQ(fp4_encode(kNaN), 0x0);
  EXPECT_EQ(fp4_encode(-0.0f), 0x8);
  // High nibble of the input code is ignored on decode.
  EXPECT_EQ(fp4_decode(0xf7), 6.0f);
}

// --- KV storage codec --------------------------------------------------------

TEST(KvCodecTest, StorageGeometry) {
  EXPECT_EQ(kv_storage_bits(KvStorage::kInt8), 8u);
  EXPECT_EQ(kv_storage_bits(KvStorage::kFp8E4M3), 8u);
  EXPECT_EQ(kv_storage_bits(KvStorage::kFp4E2M1), 4u);
  EXPECT_EQ(kv_storage_bytes(64, KvStorage::kInt8), 64u);
  EXPECT_EQ(kv_storage_bytes(64, KvStorage::kFp8E5M2), 64u);
  EXPECT_EQ(kv_storage_bytes(64, KvStorage::kFp4E2M1), 32u);
  EXPECT_EQ(kv_storage_bytes(7, KvStorage::kFp4E2M1), 4u);  // odd rounds up
  EXPECT_EQ(kv_codec(KvStorage::kInt8), nullptr);
  EXPECT_STREQ(kv_storage_name(KvStorage::kFp8E4M3), "fp8_e4m3");
  EXPECT_STREQ(kv_storage_name(KvStorage::kFp4E2M1), "fp4_e2m1");
}

/// The properties the reproducibility guarantee rests on, exhaustively
/// over the int8 grid for every non-int8 storage: zero is a fixed
/// point (warm/lazy-zeroed blocks read back zero), decode-on-read is
/// deterministic by construction (a table), the round-trip is
/// IDEMPOTENT (reading and re-storing a row changes nothing), and the
/// encoding of a read-back value reproduces the stored code (so a
/// swap-out/swap-in or COW copy of encoded bytes is indistinguishable
/// from re-encoding).
TEST(KvCodecTest, RoundTripIdempotentExhaustive) {
  for (KvStorage s : {KvStorage::kFp8E4M3, KvStorage::kFp8E5M2,
                      KvStorage::kFp4E2M1}) {
    const KvCodec* codec = kv_codec(s);
    ASSERT_NE(codec, nullptr);
    EXPECT_EQ(codec->storage, s);
    EXPECT_EQ(codec->decode[codec->encode[0 + 128]], 0) << kv_storage_name(s);
    EXPECT_EQ(codec->decode[0], 0) << kv_storage_name(s);  // zeroed blocks
    for (int q = -128; q <= 127; ++q) {
      const uint8_t code = codec->encode[q + 128];
      if (s == KvStorage::kFp4E2M1) {
        ASSERT_LT(code, 16) << "fp4 codes are nibbles";
      }
      const int8_t rt = codec->roundtrip[q + 128];
      EXPECT_EQ(rt, codec->decode[code]) << kv_storage_name(s) << " q=" << q;
      EXPECT_EQ(codec->roundtrip[rt + 128], rt)
          << kv_storage_name(s) << " q=" << q << " (idempotence)";
      EXPECT_EQ(codec->encode[rt + 128], code)
          << kv_storage_name(s) << " q=" << q << " (re-encode stability)";
    }
  }
}

TEST(KvCodecTest, Fp8RoundTripPinned) {
  const KvCodec* c = kv_codec(KvStorage::kFp8E4M3);
  // |q| <= 16 is exactly representable in e4m3 (ulp <= 1 through that
  // range), so the round-trip is the identity there.
  for (int q = -16; q <= 16; ++q) {
    EXPECT_EQ(c->roundtrip[q + 128], q) << "q = " << q;
  }
  // 100 ties to 96; 127 rounds to 128 and clamps back to 127; -128 is
  // exactly representable.
  EXPECT_EQ(c->roundtrip[100 + 128], 96);
  EXPECT_EQ(c->roundtrip[127 + 128], 127);
  EXPECT_EQ(c->roundtrip[-128 + 128], -128);
  // e5m2 has one less mantissa bit: exact only through |q| <= 8.
  const KvCodec* c5 = kv_codec(KvStorage::kFp8E5M2);
  for (int q = -8; q <= 8; ++q) {
    EXPECT_EQ(c5->roundtrip[q + 128], q) << "q = " << q;
  }
  EXPECT_EQ(c5->roundtrip[127 + 128], 127);  // 128 clamps
  // Foreign bytes stay total: NaN codes read 0, e5m2 infs saturate.
  EXPECT_EQ(c->decode[0x7f], 0);
  EXPECT_EQ(c->decode[0xff], 0);
  EXPECT_EQ(c5->decode[0x7d], 0);
  EXPECT_EQ(c5->decode[0x7c], 127);
  EXPECT_EQ(c5->decode[0xfc], -128);
}

TEST(KvCodecTest, Fp4RoundTripPinned) {
  const KvCodec* c = kv_codec(KvStorage::kFp4E2M1);
  // Scale 32: representable int8 levels are 0, +-16, +-32, +-48, +-64,
  // +-96 and +-128 (positive side clamps to 127).
  EXPECT_EQ(c->decode[0x1], 16);
  EXPECT_EQ(c->decode[0x4], 64);
  EXPECT_EQ(c->decode[0x5], 96);
  EXPECT_EQ(c->decode[0x6], 127);   // 4.0 x 32 = 128 clamps
  EXPECT_EQ(c->decode[0x7], 127);   // 6.0 x 32 = 192 clamps
  EXPECT_EQ(c->decode[0xc], -64);   // -2.0 x 32
  EXPECT_EQ(c->decode[0xe], -128);  // -4.0 x 32 exactly
  EXPECT_EQ(c->decode[0x8], 0);     // -0 reads back plain 0
  EXPECT_EQ(c->roundtrip[0 + 128], 0);
  EXPECT_EQ(c->roundtrip[16 + 128], 16);
  EXPECT_EQ(c->roundtrip[127 + 128], 127);
  EXPECT_EQ(c->roundtrip[-128 + 128], -128);
  // Tie at 24 (between 16 = subnormal significand 1 and 32 = normal
  // significand 2): RNE picks the even significand, so 24 reads back 32.
  EXPECT_EQ(c->roundtrip[24 + 128], 32);
}

}  // namespace
}  // namespace protea::numeric
