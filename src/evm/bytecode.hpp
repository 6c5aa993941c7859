// Deployed-contract bytecode container.
//
// An immutable value: the raw bytes plus their Keccak-256 code hash,
// computed once when the object is built from bytes and kept in one shared,
// read-only block. Copies share that block (a reference-count bump, no byte
// copy) and so carry the digest: the code installed in chain state serves
// its hash to every reader without rehashing — the way an Ethereum account
// stores `codeHash` next to its code — and bit-identical clones share one
// copy of their bytes. Also provides hex round-trips and JUMPDEST analysis
// (valid jump targets exclude 0x5B bytes that are PUSH immediates — the
// classic subtlety of EVM code).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "evm/keccak.hpp"

namespace phishinghook::evm {

class Bytecode {
 public:
  /// No code: empty bytes, the keccak256("") hash. A moved-from Bytecode
  /// reads the same.
  Bytecode() = default;
  /// Takes the bytes and hashes them (the only place a Bytecode hashes).
  explicit Bytecode(std::vector<std::uint8_t> bytes);

  /// Parses "0x6080..." (or bare hex). Throws ParseError on malformed input.
  static Bytecode from_hex(std::string_view hex);

  const std::vector<std::uint8_t>& bytes() const {
    return code_ ? code_->bytes : kNoBytes;
  }
  std::size_t size() const { return bytes().size(); }
  bool empty() const { return bytes().empty(); }
  std::uint8_t at(std::size_t i) const { return bytes().at(i); }

  /// "0x"-prefixed lowercase hex.
  std::string to_hex() const;

  /// Keccak-256 of the code — the contract's code hash / dedup key.
  /// Stored at construction; keccak256("") for empty code.
  Hash256 code_hash() const { return code_ ? code_->hash : kEmptyKeccak; }

  /// Bitmap of valid JUMP/JUMPI destinations: JUMPDEST bytes that start an
  /// instruction. Built fresh on each call (O(size)) and never cached here,
  /// so a Bytecode is never written after construction; the interpreter
  /// builds it once per frame.
  std::vector<bool> jump_destinations() const;

  friend bool operator==(const Bytecode& a, const Bytecode& b) {
    return a.code_hash() == b.code_hash() && a.bytes() == b.bytes();
  }

 private:
  struct Code {
    std::vector<std::uint8_t> bytes;
    Hash256 hash;
  };
  static const std::vector<std::uint8_t> kNoBytes;

  std::shared_ptr<const Code> code_;  // null = no code
};

}  // namespace phishinghook::evm
