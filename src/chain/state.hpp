// World state: the account trie of the simulated Ethereum chain.
//
// Implements the interpreter's Host interface, including nested message
// calls (which re-enter the interpreter) and transactional semantics: every
// call frame snapshots state, and a revert/failure in the callee rolls back
// exactly that frame's writes — the behaviour the paper's phishing patterns
// (approval sweeps behind a dispatcher) rely on.
//
// Accounts are hash-keyed (std::hash<evm::Address>): every code fetch on the
// serving path is one find(), and nothing iterates the table. The container
// is node-based, so the Account* from find() and the Account& from touch()
// survive a rehash.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "evm/address.hpp"
#include "evm/bytecode.hpp"
#include "evm/host.hpp"
#include "evm/interpreter.hpp"
#include "evm/uint256.hpp"

namespace phishinghook::chain {

using evm::Address;
using evm::Bytecode;
using evm::U256;

struct Account {
  U256 balance;
  std::uint64_t nonce = 0;
  Bytecode code;
  std::unordered_map<U256, U256> storage;
};

class State final : public evm::Host {
 public:
  State() = default;

  // --- account management ---------------------------------------------------
  /// Creates (or returns) the account at `address`.
  Account& touch(const Address& address);
  const Account* find(const Address& address) const;
  void set_balance(const Address& address, const U256& balance);
  void set_code(const Address& address, Bytecode code);
  std::uint64_t increment_nonce(const Address& address);
  std::size_t account_count() const { return accounts_.size(); }

  /// Sets the block context used for subsequent executions.
  void set_block(const evm::BlockContext& block) { block_ = block; }
  const evm::BlockContext& block() const { return block_; }

  /// Attaches an execution-trace observer; propagated into every nested
  /// call/create frame executed through this state (nullptr detaches).
  void set_trace(evm::TraceSink* sink) { trace_ = sink; }

  /// Executes a top-level transaction against `message.code_address`'s code.
  /// Value transfer, nonce bump and state rollback on failure included.
  evm::ExecutionResult execute_transaction(const evm::Message& message);

  /// Deploys `init_code` as a contract from `creator` (a top-level CREATE).
  /// Returns the new contract address; throws StateError if the init frame
  /// fails.
  Address deploy(const Address& creator, std::span<const std::uint8_t> init_code,
                 const U256& endowment = U256());

  /// Installs runtime code directly at a derived address, bypassing the init
  /// frame. Used by the dataset builder for corpora too large to deploy one
  /// by one through the interpreter.
  Address install_code(const Address& creator, Bytecode runtime_code);

  /// Logs emitted since construction (appended across transactions).
  const std::vector<evm::LogEntry>& logs() const { return logs_; }

  // --- Host interface ------------------------------------------------------
  U256 get_balance(const Address& account) override;
  Bytecode get_code(const Address& account) override;
  U256 sload(const Address& account, const U256& key) override;
  void sstore(const Address& account, const U256& key,
              const U256& value) override;
  bool transfer(const Address& from, const Address& to,
                const U256& value) override;
  void emit_log(evm::LogEntry entry) override;
  evm::ExecutionResult call(const evm::Message& message, evm::CallKind kind,
                            int depth) override;
  std::optional<Address> create(const Address& creator, const U256& value,
                                std::span<const std::uint8_t> init_code,
                                std::optional<U256> salt, int depth,
                                std::uint64_t gas,
                                evm::ExecutionResult& result) override;
  void selfdestruct(const Address& contract,
                    const Address& beneficiary) override;
  evm::Hash256 block_hash(std::uint64_t number) override;
  bool account_exists(const Address& account) override;

 private:
  using Snapshot = std::unordered_map<Address, Account>;

  Snapshot snapshot() const { return accounts_; }
  void rollback(Snapshot snapshot) { accounts_ = std::move(snapshot); }

  Snapshot accounts_;
  std::vector<evm::LogEntry> logs_;
  evm::BlockContext block_;
  evm::TraceSink* trace_ = nullptr;
};

}  // namespace phishinghook::chain
