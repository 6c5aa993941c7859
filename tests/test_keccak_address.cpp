// Keccak-256 test vectors and address derivation.
#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "common/hex.hpp"
#include "evm/address.hpp"
#include "evm/keccak.hpp"

namespace phishinghook::evm {
namespace {

TEST(Keccak, EmptyString) {
  // The canonical Ethereum constant: keccak256("").
  EXPECT_EQ(hash_to_hex(keccak256(std::string())),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
}

TEST(Keccak, Abc) {
  EXPECT_EQ(hash_to_hex(keccak256(std::string("abc"))),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
}

TEST(Keccak, TransferEventSignature) {
  // keccak256("Transfer(address,address,uint256)") — the ERC-20 topic used
  // throughout Ethereum tooling.
  EXPECT_EQ(hash_to_hex(keccak256(std::string(
                "Transfer(address,address,uint256)"))),
            "ddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef");
}

TEST(Keccak, MultiBlockInput) {
  // > rate (136 bytes) forces multiple absorb rounds; compare streaming vs
  // one-shot.
  std::string long_input(1000, 'x');
  const Hash256 oneshot = keccak256(long_input);
  Keccak256 streaming;
  for (char c : long_input) {
    const std::uint8_t byte = static_cast<std::uint8_t>(c);
    streaming.update(std::span<const std::uint8_t>(&byte, 1));
  }
  EXPECT_EQ(streaming.finalize(), oneshot);
}

TEST(Keccak, DigestHashIsTheLeadingEightBytesLittleEndian) {
  // Score-cache buckets and dedup-set iteration order follow these values.
  Hash256 digest{};
  for (std::size_t i = 0; i < digest.size(); ++i) {
    digest[i] = static_cast<std::uint8_t>(i);
  }
  EXPECT_EQ(DigestHash{}(digest), std::size_t{0x0706050403020100ULL});
  EXPECT_EQ(DigestHash{}(kEmptyKeccak), std::size_t{0x3c23f7860146d2c5ULL});
}

TEST(Keccak, FinalizeTwiceThrows) {
  Keccak256 hasher;
  (void)hasher.finalize();
  EXPECT_THROW(hasher.finalize(), StateError);
}

TEST(Address, HexRoundTrip) {
  const Address a =
      Address::from_hex("0x279e2f385ce22f88650632d04260382bfb918082");
  EXPECT_EQ(a.to_hex(), "0x279e2f385ce22f88650632d04260382bfb918082");
  EXPECT_FALSE(a.is_zero());
  EXPECT_TRUE(Address().is_zero());
}

TEST(Address, WordRoundTrip) {
  const Address a =
      Address::from_hex("0xb5e7b87e7a84276b13da3f07495e18f3e229d3a0");
  EXPECT_EQ(Address::from_word(a.to_word()), a);
  // High 96 bits are zero.
  EXPECT_TRUE(a.to_word() < U256::pow2(160));
}

TEST(Address, RejectsWrongSize) {
  EXPECT_THROW(Address::from_hex("0x1234"), Error);
}

TEST(Address, CreateDerivationDeterministic) {
  const Address sender =
      Address::from_hex("0xb5e7b87e7a84276b13da3f07495e18f3e229d3a0");
  const Address a1 = derive_contract_address(sender, 0);
  const Address a2 = derive_contract_address(sender, 1);
  EXPECT_NE(a1, a2);
  EXPECT_EQ(a1, derive_contract_address(sender, 0));
  EXPECT_FALSE(a1.is_zero());
}

TEST(Address, Create2DependsOnSaltAndCode) {
  const Address sender =
      Address::from_hex("0xb5e7b87e7a84276b13da3f07495e18f3e229d3a0");
  const std::vector<std::uint8_t> code1 = {0x60, 0x00};
  const std::vector<std::uint8_t> code2 = {0x60, 0x01};
  const Address s0c1 = derive_create2_address(sender, U256(0), code1);
  const Address s1c1 = derive_create2_address(sender, U256(1), code1);
  const Address s0c2 = derive_create2_address(sender, U256(0), code2);
  EXPECT_NE(s0c1, s1c1);
  EXPECT_NE(s0c1, s0c2);
  EXPECT_EQ(s0c1, derive_create2_address(sender, U256(0), code1));
}

}  // namespace
}  // namespace phishinghook::evm
