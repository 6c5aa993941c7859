// U256: EVM word arithmetic — unit tests plus property sweeps (TEST_P).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "evm/uint256.hpp"

namespace phishinghook::evm {
namespace {

TEST(U256, BasicConstruction) {
  EXPECT_TRUE(U256().is_zero());
  EXPECT_EQ(U256(42).low64(), 42u);
  EXPECT_TRUE(U256(1).fits_u64());
  EXPECT_FALSE(U256::max().fits_u64());
}

TEST(U256, StdHashValuesArePinned) {
  // Iteration order of U256-keyed maps (PUSH-operand tables, account
  // storage) follows these values; changing the limb mix moves it.
  const std::hash<U256> hash;
  EXPECT_EQ(hash(U256()), std::size_t{0x822b05d9b8fe0cd2ULL});
  EXPECT_EQ(hash(U256(1, 2, 3, 4)), std::size_t{0x822b05d9b8e56a93ULL});
  EXPECT_EQ(hash(U256(0xdeadbeef, 0, 0, 0x8000000000000000ULL)),
            std::size_t{0x027abf1d860ae8e0ULL});
}

TEST(U256, FromStringDecimalAndHex) {
  EXPECT_EQ(U256::from_string("255"), U256(255));
  EXPECT_EQ(U256::from_string("0xff"), U256(255));
  EXPECT_EQ(U256::from_string("0xFF"), U256(255));
  EXPECT_EQ(
      U256::from_string("115792089237316195423570985008687907853"
                        "269984665640564039457584007913129639935"),
      U256::max());
  EXPECT_THROW(U256::from_string(""), ParseError);
  EXPECT_THROW(U256::from_string("12a"), ParseError);
  EXPECT_THROW(
      U256::from_string("115792089237316195423570985008687907853"
                        "269984665640564039457584007913129639936"),
      ParseError);  // 2^256 overflows
}

TEST(U256, HexAndDecimalRendering) {
  EXPECT_EQ(U256().to_hex(), "0x0");
  EXPECT_EQ(U256(255).to_hex(), "0xff");
  EXPECT_EQ(U256(255).to_decimal(), "255");
  EXPECT_EQ(U256::max().to_decimal(),
            "115792089237316195423570985008687907853"
            "269984665640564039457584007913129639935");
}

TEST(U256, BytesRoundTrip) {
  const U256 value = U256::from_string("0x0102030405060708090a");
  const auto bytes = value.to_bytes_be();
  EXPECT_EQ(bytes[31], 0x0a);
  EXPECT_EQ(bytes[22], 0x01);
  EXPECT_EQ(U256::from_bytes_be(bytes), value);
  // Short inputs zero-extend on the left.
  const std::uint8_t short_bytes[] = {0xAB};
  EXPECT_EQ(U256::from_bytes_be(std::span<const std::uint8_t>(short_bytes, 1)),
            U256(0xAB));
}

TEST(U256, AdditionWrapsModulo2Pow256) {
  EXPECT_EQ(U256::max() + U256(1), U256());
  EXPECT_EQ(U256::max() + U256::max(), U256::max() - U256(1));
}

TEST(U256, SubtractionWraps) {
  EXPECT_EQ(U256() - U256(1), U256::max());
  EXPECT_EQ(U256(5) - U256(3), U256(2));
}

TEST(U256, MultiplicationTruncates) {
  const U256 big = U256::pow2(200);
  EXPECT_EQ(big * U256::pow2(56), U256());           // 2^256 == 0
  EXPECT_EQ(big * U256::pow2(55), U256::pow2(255));  // 2^255 survives
  EXPECT_EQ(U256(7) * U256(6), U256(42));
}

TEST(U256, DivisionByZeroIsZero) {
  EXPECT_EQ(U256(5) / U256(), U256());  // EVM DIV semantics
  EXPECT_EQ(U256(5) % U256(), U256());  // EVM MOD semantics
}

TEST(U256, LargeDivision) {
  const U256 n = U256::from_string(
      "0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
  const U256 d = U256::from_string("0x100000000");
  EXPECT_EQ(n / d, U256::from_string(
                       "0xffffffffffffffffffffffffffffffffffffffffffffffffff"
                       "ffffff"));
  EXPECT_EQ(n % d, U256::from_string("0xffffffff"));
}

TEST(U256, SignedDivision) {
  const U256 minus_six = U256(6).negated();
  EXPECT_EQ(U256::sdiv(minus_six, U256(2)), U256(3).negated());
  EXPECT_EQ(U256::sdiv(minus_six, U256(2).negated()), U256(3));
  EXPECT_EQ(U256::sdiv(U256(7), U256(2)), U256(3));  // trunc toward zero
  EXPECT_EQ(U256::sdiv(U256(7).negated(), U256(2)), U256(3).negated());
  // MIN_INT256 / -1 wraps to MIN_INT256 (the EVM's one overflow case).
  const U256 min_int = U256::pow2(255);
  EXPECT_EQ(U256::sdiv(min_int, U256(1).negated()), min_int);
}

TEST(U256, SignedModulo) {
  const U256 minus_seven = U256(7).negated();
  EXPECT_EQ(U256::smod(minus_seven, U256(3)), U256(1).negated());
  EXPECT_EQ(U256::smod(U256(7), U256(3).negated()), U256(1));
  EXPECT_EQ(U256::smod(U256(7), U256()), U256());
}

TEST(U256, SignedComparisons) {
  const U256 minus_one = U256(1).negated();
  EXPECT_TRUE(U256::slt(minus_one, U256(0)));
  EXPECT_TRUE(U256::sgt(U256(0), minus_one));
  EXPECT_TRUE(U256::slt(U256::pow2(255), U256(0)));  // MIN < 0
  EXPECT_FALSE(U256::slt(U256(3), U256(3)));
  // Unsigned comparison sees -1 as max.
  EXPECT_TRUE(minus_one > U256(0));
}

TEST(U256, AddmodMulmodAvoidTruncation) {
  // (MAX + MAX) % 7 computed over 257 bits.
  const U256 max = U256::max();
  const U256 expected_add = ((max % U256(7)) + (max % U256(7))) % U256(7);
  EXPECT_EQ(U256::addmod(max, max, U256(7)), expected_add);
  // MULMOD with operands whose product overflows 256 bits:
  // (2^200 * 2^200) % (2^128 + 1). Verified against modular arithmetic:
  // 2^400 mod (2^128+1): since 2^128 == -1 (mod m), 2^400 = (2^128)^3 * 2^16
  // == -(2^16) (mod m) == m - 65536.
  const U256 m = U256::pow2(128) + U256(1);
  EXPECT_EQ(U256::mulmod(U256::pow2(200), U256::pow2(200), m), m - U256(65536));
  EXPECT_EQ(U256::mulmod(max, max, U256()), U256());
}

TEST(U256, ExpSquareAndMultiply) {
  EXPECT_EQ(U256::exp(U256(2), U256(10)), U256(1024));
  EXPECT_EQ(U256::exp(U256(3), U256(0)), U256(1));
  EXPECT_EQ(U256::exp(U256(0), U256(0)), U256(1));  // EVM: 0^0 == 1
  EXPECT_EQ(U256::exp(U256(2), U256(256)), U256());  // wraps to 0
  EXPECT_EQ(U256::exp(U256(10), U256(5)), U256(100000));
}

TEST(U256, Shifts) {
  EXPECT_EQ(U256(1) << 255, U256::pow2(255));
  EXPECT_EQ(U256(1) << 256, U256(1) << 300);  // both zero by saturation
  EXPECT_EQ(U256::pow2(255) >> 255, U256(1));
  EXPECT_EQ((U256(0xFF) << 64).limbs()[1], 0xFFull);
}

TEST(U256, Sar) {
  const U256 minus_eight = U256(8).negated();
  EXPECT_EQ(U256::sar(minus_eight, U256(1)), U256(4).negated());
  EXPECT_EQ(U256::sar(U256(8), U256(1)), U256(4));
  EXPECT_EQ(U256::sar(minus_eight, U256(300)), U256::max());  // sign fill
  EXPECT_EQ(U256::sar(U256(8), U256(300)), U256());
}

TEST(U256, ByteExtraction) {
  const U256 value = U256::from_string("0x0102");
  EXPECT_EQ(value.byte_msb(31), 0x02);
  EXPECT_EQ(value.byte_msb(30), 0x01);
  EXPECT_EQ(value.byte_msb(0), 0x00);
  EXPECT_EQ(value.byte_msb(99), 0x00);
}

TEST(U256, SignExtend) {
  // Sign-extend the byte 0xFF at index 0: becomes -1.
  EXPECT_EQ(U256::signextend(U256(0), U256(0xFF)), U256::max());
  EXPECT_EQ(U256::signextend(U256(0), U256(0x7F)), U256(0x7F));
  // Index >= 31 leaves the value unchanged.
  EXPECT_EQ(U256::signextend(U256(31), U256(0xFF)), U256(0xFF));
  // 0xFF00 with index 1: sign bit of byte 1 is 1 -> extends.
  EXPECT_EQ(U256::signextend(U256(1), U256(0xFF00)),
            U256(0x100).negated());
}

TEST(U256, BitLength) {
  EXPECT_EQ(U256().bit_length(), 0u);
  EXPECT_EQ(U256(1).bit_length(), 1u);
  EXPECT_EQ(U256(255).bit_length(), 8u);
  EXPECT_EQ(U256::pow2(255).bit_length(), 256u);
  EXPECT_EQ(U256(256).byte_length(), 2u);
}

// --- property sweeps over random operands -----------------------------------

class U256Property : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  U256 random_word(common::Rng& rng) {
    // Mix widths: small, 64-bit, and full-width words.
    switch (rng.next_below(3)) {
      case 0: return U256(rng.next_below(1000));
      case 1: return U256(rng.next_u64());
      default:
        return U256(rng.next_u64(), rng.next_u64(), rng.next_u64(),
                    rng.next_u64());
    }
  }
};

TEST_P(U256Property, AlgebraLaws) {
  common::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const U256 a = random_word(rng);
    const U256 b = random_word(rng);
    const U256 c = random_word(rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ(a * (b + c), a * b + a * c);  // distributes mod 2^256
    EXPECT_EQ(a - b + b, a);
    EXPECT_EQ(a ^ a, U256());
    EXPECT_EQ((a & b) | (a & c), a & (b | c));
    EXPECT_EQ(~(~a), a);
    EXPECT_EQ(a.negated() + a, U256());
  }
}

TEST_P(U256Property, DivisionInvariant) {
  common::Rng rng(GetParam() ^ 0xDEAD);
  for (int i = 0; i < 200; ++i) {
    const U256 a = random_word(rng);
    U256 b = random_word(rng);
    if (b.is_zero()) b = U256(1);
    const U256 q = a / b;
    const U256 r = a % b;
    EXPECT_TRUE(r < b);
    EXPECT_EQ(q * b + r, a);
  }
}

TEST_P(U256Property, BytesRoundTrip) {
  common::Rng rng(GetParam() ^ 0xBEEF);
  for (int i = 0; i < 200; ++i) {
    const U256 a = random_word(rng);
    EXPECT_EQ(U256::from_bytes_be(a.to_bytes_be()), a);
    EXPECT_EQ(U256::from_string(a.to_hex()), a);
    EXPECT_EQ(U256::from_string(a.to_decimal()), a);
  }
}

TEST_P(U256Property, ShiftsMatchMultiplication) {
  common::Rng rng(GetParam() ^ 0xF00D);
  for (int i = 0; i < 200; ++i) {
    const U256 a = random_word(rng);
    const unsigned s = static_cast<unsigned>(rng.next_below(256));
    EXPECT_EQ(a << s, a * U256::pow2(s));
    EXPECT_EQ((a >> s) << s, a & (U256::max() << s));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, U256Property,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

}  // namespace
}  // namespace phishinghook::evm
