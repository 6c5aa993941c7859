// 256-bit unsigned integer — the EVM machine word.
//
// The EVM is a 256-bit stack machine (yellow paper §9); every stack slot,
// storage key and storage value is one of these. Arithmetic is modulo 2^256
// with wrap-around, matching ADD/MUL/SUB opcode semantics; the signed
// helpers implement SDIV/SMOD/SLT/SGT/SAR two's-complement semantics.
//
// Representation: four 64-bit limbs, least-significant first.
#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>

namespace phishinghook::evm {

class U256 {
 public:
  /// Zero.
  constexpr U256() = default;

  /// From a 64-bit value (zero-extended).
  constexpr U256(std::uint64_t low) : limbs_{low, 0, 0, 0} {}  // NOLINT: implicit by design — mirrors integer literals

  /// From explicit limbs, least-significant first.
  constexpr U256(std::uint64_t l0, std::uint64_t l1, std::uint64_t l2,
                 std::uint64_t l3)
      : limbs_{l0, l1, l2, l3} {}

  /// Parses decimal or 0x-prefixed hex. Throws ParseError on bad input or
  /// overflow past 256 bits.
  static U256 from_string(std::string_view text);

  /// From big-endian bytes (at most 32; shorter inputs are zero-extended on
  /// the left, matching PUSHn and CALLDATALOAD padding).
  static U256 from_bytes_be(std::span<const std::uint8_t> bytes);

  /// Largest representable value (2^256 - 1).
  static constexpr U256 max() {
    return U256(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  }

  /// 2^bit for bit in [0, 256).
  static U256 pow2(unsigned bit);

  /// 32-byte big-endian serialization.
  std::array<std::uint8_t, 32> to_bytes_be() const;

  /// Minimal hex with 0x prefix ("0x0" for zero).
  std::string to_hex() const;

  /// Decimal string.
  std::string to_decimal() const;

  /// Low 64 bits (truncating).
  constexpr std::uint64_t low64() const { return limbs_[0]; }

  /// True if the value fits in 64 bits.
  constexpr bool fits_u64() const {
    return limbs_[1] == 0 && limbs_[2] == 0 && limbs_[3] == 0;
  }

  constexpr bool is_zero() const {
    return limbs_[0] == 0 && limbs_[1] == 0 && limbs_[2] == 0 && limbs_[3] == 0;
  }

  /// Sign bit in two's-complement interpretation (bit 255).
  constexpr bool is_negative() const { return (limbs_[3] >> 63) != 0; }

  /// Number of significant bits (0 for zero).
  unsigned bit_length() const;

  /// Number of significant bytes (0 for zero); the EVM "byte size" used by
  /// EXP gas and PUSH width selection.
  unsigned byte_length() const { return (bit_length() + 7) / 8; }

  /// Value of bit `i` (i in [0,256)).
  bool bit(unsigned i) const;

  /// Byte `i` counting from the most significant (the BYTE opcode: i=0 is
  /// the MSB); returns 0 for i >= 32.
  std::uint8_t byte_msb(unsigned i) const;

  // --- modular 2^256 arithmetic ------------------------------------------
  friend U256 operator+(const U256& a, const U256& b);
  friend U256 operator-(const U256& a, const U256& b);
  friend U256 operator*(const U256& a, const U256& b);
  /// EVM DIV: x/0 == 0.
  friend U256 operator/(const U256& a, const U256& b);
  /// EVM MOD: x%0 == 0.
  friend U256 operator%(const U256& a, const U256& b);

  U256& operator+=(const U256& o) { return *this = *this + o; }
  U256& operator-=(const U256& o) { return *this = *this - o; }
  U256& operator*=(const U256& o) { return *this = *this * o; }

  // --- bitwise -------------------------------------------------------------
  friend U256 operator&(const U256& a, const U256& b);
  friend U256 operator|(const U256& a, const U256& b);
  friend U256 operator^(const U256& a, const U256& b);
  U256 operator~() const;
  /// Logical shifts; shifts >= 256 yield 0 (EVM SHL/SHR semantics).
  friend U256 operator<<(const U256& a, unsigned shift);
  friend U256 operator>>(const U256& a, unsigned shift);

  // --- comparisons -----------------------------------------------------------
  friend constexpr bool operator==(const U256& a, const U256& b) = default;
  friend std::strong_ordering operator<=>(const U256& a, const U256& b);

  // --- EVM-specific operations ----------------------------------------------
  /// Two's-complement negation.
  U256 negated() const;
  /// SDIV: signed division, truncated toward zero; MIN/-1 wraps to MIN.
  static U256 sdiv(const U256& a, const U256& b);
  /// SMOD: signed remainder, sign follows the dividend.
  static U256 smod(const U256& a, const U256& b);
  /// SLT / SGT: signed comparisons.
  static bool slt(const U256& a, const U256& b);
  static bool sgt(const U256& a, const U256& b);
  /// ADDMOD / MULMOD: (a op b) % m computed without 2^256 truncation.
  static U256 addmod(const U256& a, const U256& b, const U256& m);
  static U256 mulmod(const U256& a, const U256& b, const U256& m);
  /// EXP: a^e mod 2^256 by square-and-multiply.
  static U256 exp(const U256& base, const U256& exponent);
  /// SAR: arithmetic right shift (sign-filling); shift is saturating.
  static U256 sar(const U256& value, const U256& shift);
  /// SIGNEXTEND: extends the sign of the byte at index `byte_index` (0 =
  /// least significant byte), per the EVM opcode.
  static U256 signextend(const U256& byte_index, const U256& value);

  /// Raw limb access (least-significant first); used by hashing and tests.
  constexpr const std::array<std::uint64_t, 4>& limbs() const { return limbs_; }

 private:
  std::array<std::uint64_t, 4> limbs_{0, 0, 0, 0};
};

}  // namespace phishinghook::evm

/// Hash support so U256 can key unordered containers (account storage,
/// PUSH-operand tables): a boost-style combine over the four limbs.
template <>
struct std::hash<phishinghook::evm::U256> {
  std::size_t operator()(const phishinghook::evm::U256& value) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t limb : value.limbs()) {
      h ^= limb + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return static_cast<std::size_t>(h);
  }
};
