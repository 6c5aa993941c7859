#include "evm/bytecode.hpp"

#include <utility>

#include "common/hex.hpp"
#include "evm/opcodes.hpp"

namespace phishinghook::evm {

const std::vector<std::uint8_t> Bytecode::kNoBytes;

Bytecode::Bytecode(std::vector<std::uint8_t> bytes) {
  if (bytes.empty()) return;  // no code: the default's empty hash
  const Hash256 hash = keccak256(bytes);
  code_ = std::make_shared<const Code>(Code{std::move(bytes), hash});
}

Bytecode Bytecode::from_hex(std::string_view hex) {
  return Bytecode(phishinghook::common::hex_decode(hex));
}

std::string Bytecode::to_hex() const {
  return phishinghook::common::hex_encode_prefixed(bytes());
}

std::vector<bool> Bytecode::jump_destinations() const {
  const std::vector<std::uint8_t>& code = bytes();
  std::vector<bool> dests(code.size(), false);
  std::size_t pc = 0;
  while (pc < code.size()) {
    dests[pc] = code[pc] == op_byte(Op::kJumpdest);
    pc += 1 + push_data_size(code[pc]);
  }
  return dests;
}

}  // namespace phishinghook::evm
