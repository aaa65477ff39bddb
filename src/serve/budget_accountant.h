#ifndef FM_SERVE_BUDGET_ACCOUNTANT_H_
#define FM_SERVE_BUDGET_ACCOUNTANT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/io_util.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace fm::serve {

/// Thread-safe per-dataset ε ledger with two-phase charging.
///
/// ε-differential privacy composes sequentially: every training run against
/// the same live dataset adds its ε to the total disclosure, so a serving
/// layer that trains on demand needs an accountant that concurrent requests
/// can race on without over-spending. This is the repo's one ε ledger, and
/// it splits a charge into
///
///   Reserve(worst case) → train → Settle(actual) | Abort(),
///
/// because a training request's final cost is not known up front (the §6
/// kResample remedy spends 2ε when it resamples — Lemma 5 — and a request
/// that fails to train must consume nothing). Reserve atomically sets aside
/// the worst case and fails with kFailedPrecondition when
/// spent + reserved + ε would exceed the total; Settle converts at most the
/// reservation into spent budget and releases the remainder, or, when the
/// actual ε does not fit the reservation, releases all of it; Abort
/// releases all of it. Either way the reservation is settled exactly once.
/// A rejected or aborted request therefore consumes zero budget, and the
/// invariant
///
///   spent + reserved ≤ total   (spent, reserved ≥ 0)
///
/// holds at every instant under any interleaving (all transitions happen
/// under one mutex).
///
/// Invalid ε values (≤ 0, NaN, ∞) are rejected with the library-wide
/// dp::ValidateEpsilon InvalidArgument, never silently clamped.
class BudgetAccountant {
 public:
  /// Creates an accountant with the given total ε budget. Fails with
  /// InvalidArgument unless the total is finite and positive.
  static Result<std::unique_ptr<BudgetAccountant>> Create(
      double total_epsilon);

  BudgetAccountant(const BudgetAccountant&) = delete;
  BudgetAccountant& operator=(const BudgetAccountant&) = delete;

  /// Atomically sets aside `epsilon` of budget for an in-flight request.
  /// Returns a reservation id to Settle or Abort; every reservation must
  /// eventually see exactly one of the two. Fails with InvalidArgument for
  /// invalid ε and kFailedPrecondition when the remaining budget is
  /// insufficient — in both cases the ledger is unchanged.
  Result<uint64_t> Reserve(double epsilon, const std::string& label);

  /// Releases the whole reservation; nothing is spent.
  Status Abort(uint64_t reservation);

  /// Settles a reservation in one critical section: spends
  /// `actual_epsilon` and releases the rest when it is a valid ε at most
  /// the reserved amount (within 1e-12 round-off tolerance); otherwise
  /// releases the whole reservation and returns the root-cause
  /// InvalidArgument. Either way the reservation is settled exactly once.
  /// Returns OK exactly when the spend happened; kNotFound for an
  /// unknown/already-settled id (ledger unchanged).
  Status Settle(uint64_t reservation, double actual_epsilon);

  double total_epsilon() const;
  /// Settled spend.
  double spent_epsilon() const;
  /// Outstanding (reserved, not yet settled) budget.
  double reserved_epsilon() const;
  /// total − spent − reserved: what a new Reserve can still claim.
  double remaining_epsilon() const;

  /// One settled charge.
  struct ChargeRecord {
    double epsilon;
    std::string label;
  };

  /// All settled charges, in settle order (copied under the lock).
  std::vector<ChargeRecord> charges() const;
  size_t pending_reservations() const;

  /// Appends the ledger — spent, reservation counter, charge history — to
  /// `out` (snapshot payload). The total is not written: it is always the
  /// configured one, which the snapshot's options fingerprint pins.
  /// Checkpoints happen at request boundaries where no reservation is in
  /// flight; pending reservations are deliberately not serialized and
  /// serialization fails a FM_CHECK when any exist.
  void SerializeTo(std::string* out) const;

  /// Replaces this ledger's state with a SerializeTo payload read from
  /// `reader`. The restored spent value is bit-exact, so post-recovery
  /// budget arithmetic (and its formatted diagnostics) matches the
  /// uninterrupted service byte for byte. Fails with kIoError — before any
  /// state changes — when the payload is truncated, when spent or a charge
  /// is non-finite or negative, when spent exceeds this ledger's total, or
  /// when the charge count exceeds what the remaining bytes can hold.
  Status RestoreFrom(io::ByteReader& reader);

 private:
  explicit BudgetAccountant(double total_epsilon)
      : total_epsilon_(total_epsilon) {}

  struct Pending {
    double epsilon;
    std::string label;
  };

  mutable Mutex mutex_;
  const double total_epsilon_;  // immutable after construction; no guard
  double spent_epsilon_ FM_GUARDED_BY(mutex_) = 0.0;
  double reserved_epsilon_ FM_GUARDED_BY(mutex_) = 0.0;
  uint64_t next_reservation_ FM_GUARDED_BY(mutex_) = 1;
  // Accessed by find/emplace/erase only, never iterated — iteration order
  // of an unordered container must not reach any output (fm-unordered-iter).
  std::unordered_map<uint64_t, Pending> pending_ FM_GUARDED_BY(mutex_);
  std::vector<ChargeRecord> charges_ FM_GUARDED_BY(mutex_);
};

}  // namespace fm::serve

#endif  // FM_SERVE_BUDGET_ACCOUNTANT_H_
