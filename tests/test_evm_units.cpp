// Unit tests for the interpreter's building blocks: operand stack, linear
// memory (with its quadratic expansion cost), and the synthesizer's
// assembler — plus a random-program robustness sweep over the interpreter.
#include <gtest/gtest.h>

#include "chain/state.hpp"
#include "common/errors.hpp"
#include "common/rng.hpp"
#include "evm/interpreter.hpp"
#include "evm/memory.hpp"
#include "evm/stack.hpp"
#include "synth/assembler.hpp"

namespace phishinghook::evm {
namespace {

TEST(Stack, PushPopPeek) {
  Stack stack;
  EXPECT_TRUE(stack.push(U256(1)));
  EXPECT_TRUE(stack.push(U256(2)));
  EXPECT_EQ(stack.peek(0), U256(2));
  EXPECT_EQ(stack.peek(1), U256(1));
  U256 out;
  EXPECT_TRUE(stack.pop(out));
  EXPECT_EQ(out, U256(2));
  EXPECT_TRUE(stack.pop(out));
  EXPECT_FALSE(stack.pop(out));  // underflow
}

TEST(Stack, OverflowAt1024) {
  Stack stack;
  for (std::size_t i = 0; i < Stack::kMaxDepth; ++i) {
    ASSERT_TRUE(stack.push(U256(i)));
  }
  EXPECT_FALSE(stack.push(U256(0)));
  EXPECT_EQ(stack.size(), Stack::kMaxDepth);
}

TEST(Stack, DupSemantics) {
  Stack stack;
  (void)stack.push(U256(10));
  (void)stack.push(U256(20));
  EXPECT_TRUE(stack.dup(2));  // DUP2 duplicates the 2nd item (10)
  EXPECT_EQ(stack.peek(0), U256(10));
  EXPECT_EQ(stack.size(), 3u);
  EXPECT_FALSE(stack.dup(4));  // not enough items
}

TEST(Stack, SwapSemantics) {
  Stack stack;
  (void)stack.push(U256(10));
  (void)stack.push(U256(20));
  (void)stack.push(U256(30));
  EXPECT_TRUE(stack.swap(2));  // SWAP2: top <-> 3rd
  EXPECT_EQ(stack.peek(0), U256(10));
  EXPECT_EQ(stack.peek(2), U256(30));
  EXPECT_FALSE(stack.swap(3));
}

TEST(EvmMemory, WordRoundTripAndZeroInit) {
  EvmMemory memory;
  EXPECT_EQ(memory.load_word(0x40), U256());  // fresh memory reads zero
  memory.store_word(0x40, U256(0xBEEF));
  EXPECT_EQ(memory.load_word(0x40), U256(0xBEEF));
  EXPECT_EQ(memory.size() % 32, 0u);
}

TEST(EvmMemory, ExpansionCostQuadratic) {
  // Yellow paper: C(w) = 3w + w^2/512.
  EXPECT_EQ(EvmMemory::expansion_cost(0), 0u);
  EXPECT_EQ(EvmMemory::expansion_cost(1), 3u);
  EXPECT_EQ(EvmMemory::expansion_cost(32), 3u * 32 + 2u);
  EXPECT_EQ(EvmMemory::expansion_cost(1024), 3u * 1024 + 2048u);
}

TEST(EvmMemory, GrowCostIsDelta) {
  EvmMemory memory;
  const std::uint64_t first = memory.grow_cost(0, 64);  // 2 words
  EXPECT_EQ(first, EvmMemory::expansion_cost(2));
  memory.grow(0, 64);
  EXPECT_EQ(memory.grow_cost(0, 64), 0u);  // already covered
  const std::uint64_t delta = memory.grow_cost(64, 32);  // word 3
  EXPECT_EQ(delta, EvmMemory::expansion_cost(3) - EvmMemory::expansion_cost(2));
  EXPECT_EQ(memory.grow_cost(0, 0), 0u);  // zero-length never grows
}

TEST(EvmMemory, StoreSpanZeroFillsTail) {
  EvmMemory memory;
  const std::uint8_t data[] = {1, 2, 3};
  memory.store_byte(5, 0xFF);  // pre-existing byte inside the target range
  memory.store_span(2, data, 6);
  const auto read = memory.read(2, 6);
  EXPECT_EQ(read, (std::vector<std::uint8_t>{1, 2, 3, 0, 0, 0}));
}

TEST(Assembler, MinimalWidthPush) {
  synth::Assembler a;
  a.push(U256());       // PUSH0
  a.push(0xFF);         // PUSH1
  a.push(0x100);        // PUSH2
  a.push(U256::max());  // PUSH32
  const Bytecode code = a.build();
  EXPECT_EQ(code.bytes()[0], 0x5F);
  EXPECT_EQ(code.bytes()[1], 0x60);
  EXPECT_EQ(code.bytes()[3], 0x61);
  EXPECT_EQ(code.bytes()[6], 0x7F);
  EXPECT_EQ(code.size(), 1u + 2u + 3u + 33u);
}

TEST(Assembler, ForwardAndBackwardLabels) {
  synth::Assembler a;
  const auto forward = a.make_label();
  a.jump(forward);              // forward reference (patched later)
  a.op(Op::kStop);
  a.bind(forward);
  const auto backward = a.make_label();
  a.bind(backward);
  a.jump(backward);             // backward reference
  const Bytecode code = a.build();
  // Layout: PUSH2 hi lo (0-2), JUMP (3), STOP (4), JUMPDEST (5).
  EXPECT_EQ(code.bytes()[1], 0x00);
  EXPECT_EQ(code.bytes()[2], 0x05);
  EXPECT_TRUE(code.jump_destinations()[5]);
}

TEST(Assembler, ErrorsOnMisuse) {
  synth::Assembler a;
  const auto label = a.make_label();
  a.bind(label);
  EXPECT_THROW(a.bind(label), StateError);  // double bind
  synth::Assembler b;
  const auto unbound = b.make_label();
  b.jump(unbound);
  EXPECT_THROW(b.build(), StateError);  // unbound reference
  synth::Assembler c;
  EXPECT_THROW(c.push_bytes(std::vector<std::uint8_t>(33, 0)), InvalidArgument);
}

TEST(Assembler, SelectorEncoding) {
  synth::Assembler a;
  a.push_selector(0x23b872dd);  // transferFrom
  const Bytecode code = a.build();
  EXPECT_EQ(code.bytes(),
            (std::vector<std::uint8_t>{0x63, 0x23, 0xb8, 0x72, 0xdd}));
}

// --- robustness: random byte soup must never crash the interpreter --------

class InterpreterFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InterpreterFuzz, RandomProgramsTerminateCleanly) {
  common::Rng rng(GetParam());
  chain::State state;
  const Address contract =
      Address::from_hex("0x00000000000000000000000000000000000000cc");
  const Address caller =
      Address::from_hex("0x00000000000000000000000000000000000000aa");
  state.set_balance(contract, U256(1000));

  const Interpreter interpreter(BlockContext{});
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<std::uint8_t> bytes(rng.next_below(200) + 1);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
    const Bytecode code(bytes);
    state.set_code(contract, code);

    Message msg;
    msg.caller = caller;
    msg.origin = caller;
    msg.code_address = contract;
    msg.storage_address = contract;
    msg.gas = 100'000;
    msg.data = {0x01, 0x02, 0x03, 0x04};
    // Must terminate with a status — never throw, hang or overrun gas.
    const ExecutionResult result = interpreter.execute(msg, code, state, 0);
    EXPECT_LE(result.gas_used, msg.gas);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterpreterFuzz,
                         ::testing::Values(1001u, 2002u, 3003u, 4004u));

}  // namespace
}  // namespace phishinghook::evm
