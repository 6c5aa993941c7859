// Opcode registry invariants (Table I) and disassembler behaviour (BDM).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "evm/bytecode.hpp"
#include "evm/disassembler.hpp"
#include "evm/opcodes.hpp"

namespace phishinghook::evm {
namespace {

TEST(Opcodes, ShanghaiHas144Opcodes) {
  EXPECT_EQ(OpcodeTable::shanghai().size(), 144u);
}

TEST(Opcodes, TableOneSpotChecks) {
  const auto& table = OpcodeTable::shanghai();
  // The rows the paper's Table I shows explicitly.
  EXPECT_EQ(table.at(0x00).mnemonic, "STOP");
  EXPECT_EQ(table.at(0x00).base_gas, 0u);
  EXPECT_EQ(table.at(0x01).mnemonic, "ADD");
  EXPECT_EQ(table.at(0x01).base_gas, 3u);
  EXPECT_EQ(table.at(0x02).mnemonic, "MUL");
  EXPECT_EQ(table.at(0x02).base_gas, 5u);
  EXPECT_EQ(table.at(0xFD).mnemonic, "REVERT");
  EXPECT_EQ(table.at(0xFD).base_gas, 0u);
  EXPECT_EQ(table.at(0xFE).mnemonic, "INVALID");
  EXPECT_TRUE(table.at(0xFE).gas_is_nan);
  EXPECT_EQ(table.at(0xFF).mnemonic, "SELFDESTRUCT");
  EXPECT_EQ(table.at(0xFF).base_gas, 5000u);
}

TEST(Opcodes, ShanghaiAdditions) {
  // The two opcodes the paper added to evmdasm.
  const auto& table = OpcodeTable::shanghai();
  EXPECT_EQ(table.at(0x5F).mnemonic, "PUSH0");
  EXPECT_EQ(table.at(0x5F).immediate_bytes, 0u);
  EXPECT_TRUE(table.is_defined(0xFE));
  EXPECT_FALSE(table.is_defined(0x0C));  // gap in the arithmetic range
  EXPECT_FALSE(table.is_defined(0x21));
  EXPECT_FALSE(table.is_defined(0xA5));
}

TEST(Opcodes, PushFamily) {
  for (int n = 1; n <= 32; ++n) {
    const std::uint8_t byte = static_cast<std::uint8_t>(0x5F + n);
    EXPECT_TRUE(is_push_with_data(byte));
    EXPECT_EQ(push_data_size(byte), static_cast<std::size_t>(n));
    EXPECT_EQ(push_opcode_for_size(static_cast<std::size_t>(n)), byte);
    EXPECT_EQ(OpcodeTable::shanghai().at(byte).immediate_bytes, n);
  }
  EXPECT_FALSE(is_push_with_data(0x5F));  // PUSH0 has no immediate
  EXPECT_EQ(push_opcode_for_size(0), 0x5F);
  EXPECT_THROW(push_opcode_for_size(33), InvalidArgument);
}

TEST(Opcodes, StackEffectsConsistent) {
  for (const OpcodeInfo& info : OpcodeTable::shanghai().all()) {
    EXPECT_LE(info.stack_inputs, 17) << info.mnemonic;
    EXPECT_LE(info.stack_outputs, 17) << info.mnemonic;
  }
  const auto& table = OpcodeTable::shanghai();
  EXPECT_EQ(table.at(0x80).stack_inputs, 1);   // DUP1
  EXPECT_EQ(table.at(0x80).stack_outputs, 2);
  EXPECT_EQ(table.at(0x8F).stack_inputs, 16);  // DUP16
  EXPECT_EQ(table.at(0x90).stack_inputs, 2);   // SWAP1
  EXPECT_EQ(table.at(0xF1).stack_inputs, 7);   // CALL
  EXPECT_EQ(table.at(0xF4).stack_inputs, 6);   // DELEGATECALL
  EXPECT_EQ(table.at(0xA4).stack_inputs, 6);   // LOG4
}

TEST(Opcodes, MnemonicLookup) {
  const auto& table = OpcodeTable::shanghai();
  EXPECT_EQ(table.by_mnemonic("DELEGATECALL").value, 0xF4);
  EXPECT_EQ(table.by_mnemonic("PUSH32").value, 0x7F);
  EXPECT_THROW(table.by_mnemonic("NOPE"), NotFound);
  EXPECT_THROW(table.at(0x0C), NotFound);
}

TEST(Bytecode, HexRoundTrip) {
  const Bytecode code = Bytecode::from_hex("0x6080604052");
  EXPECT_EQ(code.size(), 5u);
  EXPECT_EQ(code.to_hex(), "0x6080604052");
  EXPECT_EQ(Bytecode().to_hex(), "0x");
}

TEST(Bytecode, CodeHashMatchesKeccak) {
  const Bytecode code = Bytecode::from_hex("0x6080604052");
  EXPECT_EQ(code.code_hash(), keccak256(code.bytes()));
}

// The digest is stored with the bytes, so it must follow them through
// every way a Bytecode is made, copied or moved.
void expect_hash_matches_bytes(const Bytecode& code) {
  EXPECT_EQ(code.code_hash(), keccak256(code.bytes()));
}

TEST(Bytecode, StoredHashHoldsForEveryConstructor) {
  const Bytecode empty;
  expect_hash_matches_bytes(empty);
  EXPECT_EQ(empty.code_hash(), kEmptyKeccak);
  EXPECT_EQ(kEmptyKeccak, keccak256(std::string()));
  expect_hash_matches_bytes(Bytecode(std::vector<std::uint8_t>{0x60, 0x80}));
  expect_hash_matches_bytes(Bytecode(std::vector<std::uint8_t>{}));
  expect_hash_matches_bytes(Bytecode::from_hex("0x6080604052"));
  expect_hash_matches_bytes(Bytecode::from_hex("0x"));
}

TEST(Bytecode, StoredHashFollowsCopies) {
  const Bytecode source = Bytecode::from_hex("0x6080604052");
  const Bytecode copied(source);
  expect_hash_matches_bytes(copied);
  EXPECT_EQ(copied, source);
  Bytecode assigned = Bytecode::from_hex("0x00");
  assigned = source;
  expect_hash_matches_bytes(assigned);
  EXPECT_EQ(assigned.code_hash(), source.code_hash());
  expect_hash_matches_bytes(source);
}

TEST(Bytecode, StoredHashFollowsMovesAndMovedFromReadsEmpty) {
  Bytecode source = Bytecode::from_hex("0x6080604052");
  const Hash256 digest = source.code_hash();
  Bytecode moved(std::move(source));
  expect_hash_matches_bytes(moved);
  EXPECT_EQ(moved.code_hash(), digest);
  // The moved-from state is part of the contract under test.
  EXPECT_TRUE(source.empty());
  EXPECT_EQ(source.code_hash(), kEmptyKeccak);
  expect_hash_matches_bytes(source);

  Bytecode assigned = Bytecode::from_hex("0x00");
  assigned = std::move(moved);
  expect_hash_matches_bytes(assigned);
  EXPECT_EQ(assigned.code_hash(), digest);
  EXPECT_TRUE(moved.empty());
  EXPECT_EQ(moved.code_hash(), kEmptyKeccak);
  expect_hash_matches_bytes(moved);
}

// Carrying the digest must not grow the value: a Bytecode stays within the
// 64 bytes (byte vector + vector<bool> JUMPDEST memo) it used to take.
static_assert(sizeof(Bytecode) <= 64, "Bytecode grew");

TEST(Bytecode, JumpdestInsidePushDataIsInvalid) {
  // PUSH2 0x5B5B JUMPDEST: the 0x5B bytes at offsets 1-2 are immediates;
  // only offset 3 is a real JUMPDEST.
  const Bytecode code = Bytecode::from_hex("0x615b5b5b");
  EXPECT_EQ(code.jump_destinations(),
            (std::vector<bool>{false, false, false, true}));
}

TEST(Disassembler, PaperExample) {
  // §III: 0x6080604052 -> (PUSH1,0x80,3), (PUSH1,0x40,3), (MSTORE,-,3).
  const Disassembler disassembler;
  const Disassembly listing =
      disassembler.disassemble(Bytecode::from_hex("0x6080604052"));
  ASSERT_EQ(listing.instructions.size(), 3u);
  EXPECT_EQ(listing.instructions[0].mnemonic, "PUSH1");
  EXPECT_EQ(listing.instructions[0].operand.value(), U256(0x80));
  EXPECT_EQ(listing.instructions[0].gas, 3u);
  EXPECT_EQ(listing.instructions[1].mnemonic, "PUSH1");
  EXPECT_EQ(listing.instructions[1].operand.value(), U256(0x40));
  EXPECT_EQ(listing.instructions[2].mnemonic, "MSTORE");
  EXPECT_FALSE(listing.instructions[2].operand.has_value());
  EXPECT_EQ(listing.instructions[2].gas, 3u);
  EXPECT_EQ(listing.instructions[0].to_string(), "PUSH1 0x80");
}

TEST(Disassembler, TruncatedPushPadsWithZeros) {
  // PUSH4 with only 2 immediate bytes present: EVM pads code reads with 0.
  const Disassembly listing =
      Disassembler().disassemble(Bytecode::from_hex("0x63abcd"));
  ASSERT_EQ(listing.instructions.size(), 1u);
  EXPECT_EQ(listing.instructions[0].operand.value(),
            U256::from_string("0xabcd0000"));
}

TEST(Disassembler, UndefinedBytesReported) {
  const Disassembly listing =
      Disassembler().disassemble(Bytecode::from_hex("0x0c"));
  ASSERT_EQ(listing.instructions.size(), 1u);
  EXPECT_FALSE(listing.instructions[0].defined);
  EXPECT_EQ(listing.instructions[0].mnemonic, "UNKNOWN_0x0c");
  EXPECT_TRUE(listing.instructions[0].gas_is_nan);
}

TEST(Disassembler, InvalidGasIsNaN) {
  const Disassembly listing =
      Disassembler().disassemble(Bytecode::from_hex("0xfe"));
  ASSERT_EQ(listing.instructions.size(), 1u);
  EXPECT_TRUE(listing.instructions[0].defined);
  EXPECT_TRUE(listing.instructions[0].gas_is_nan);
}

TEST(Disassembler, CsvExport) {
  const std::string csv =
      Disassembler().disassemble(Bytecode::from_hex("0x6080fe")).to_csv();
  EXPECT_NE(csv.find("pc,opcode,mnemonic,operand,gas"), std::string::npos);
  EXPECT_NE(csv.find("PUSH1"), std::string::npos);
  EXPECT_NE(csv.find("NaN"), std::string::npos);
}

TEST(Disassembler, MnemonicCounts) {
  const Disassembly listing =
      Disassembler().disassemble(Bytecode::from_hex("0x6080604052"));
  const auto counts = listing.mnemonic_counts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0].first, "PUSH1");
  EXPECT_EQ(counts[0].second, 2u);
  EXPECT_EQ(counts[1].first, "MSTORE");
}

// Property: disassembly covers every byte exactly once (pc advance).
class DisassemblerSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DisassemblerSweep, PcCoverage) {
  common::Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> bytes(rng.next_below(300) + 1);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
    const Bytecode code(bytes);
    const Disassembly listing = Disassembler().disassemble(code);
    std::size_t pc = 0;
    for (const Instruction& ins : listing.instructions) {
      EXPECT_EQ(ins.pc, pc);
      pc += 1 + push_data_size(ins.opcode);
    }
    EXPECT_GE(pc, bytes.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisassemblerSweep,
                         ::testing::Values(21u, 22u, 23u));

}  // namespace
}  // namespace phishinghook::evm
