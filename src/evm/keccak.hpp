// Keccak-256 (the original pre-SHA3 padding variant used by Ethereum).
//
// Backs the SHA3/KECCAK256 opcode, contract address derivation (CREATE /
// CREATE2), and bit-exact bytecode deduplication in the dataset builder.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace phishinghook::evm {

using Hash256 = std::array<std::uint8_t, 32>;

/// Hash functor for digest-keyed unordered containers (code-hash caches,
/// dedup sets). A Keccak digest is uniform already, so its first 8 bytes,
/// read little-endian, are the hash — no re-mixing.
struct DigestHash {
  std::size_t operator()(const Hash256& digest) const {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(digest[i]) << (8 * i);
    }
    return static_cast<std::size_t>(v);
  }
};

/// keccak256("") — the code hash of an account with no code.
inline constexpr Hash256 kEmptyKeccak = {
    0xc5, 0xd2, 0x46, 0x01, 0x86, 0xf7, 0x23, 0x3c,
    0x92, 0x7e, 0x7d, 0xb2, 0xdc, 0xc7, 0x03, 0xc0,
    0xe5, 0x00, 0xb6, 0x53, 0xca, 0x82, 0x27, 0x3b,
    0x7b, 0xfa, 0xd8, 0x04, 0x5d, 0x85, 0xa4, 0x70,
};

/// Keccak-256 digest of `data` (Ethereum variant: pad10*1 with 0x01 domain).
Hash256 keccak256(std::span<const std::uint8_t> data);

/// Convenience overload hashing the raw bytes of a string.
Hash256 keccak256(const std::string& data);

/// Lowercase hex (no prefix) of a digest; handy for map keys and logs.
std::string hash_to_hex(const Hash256& hash);

/// Incremental Keccak-256 for streaming inputs (dataset-scale hashing).
class Keccak256 {
 public:
  Keccak256();
  void update(std::span<const std::uint8_t> data);
  /// Finalizes and returns the digest. The object must not be reused.
  Hash256 finalize();

 private:
  void absorb_block();

  std::array<std::uint64_t, 25> state_{};
  std::array<std::uint8_t, 136> buffer_{};  // rate = 1088 bits = 136 bytes
  std::size_t buffer_len_ = 0;
  bool finalized_ = false;
};

}  // namespace phishinghook::evm
