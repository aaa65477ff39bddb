#include "serve/budget_accountant.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "dp/budget.h"

namespace fm::serve {

namespace {

// Tolerates round-off when exhausting the budget or a reservation exactly.
constexpr double kSlack = 1e-12;

// std::to_string renders doubles with 6 fixed decimals, which collapses
// small ε values (1e-9 → "0.000000") in ledger diagnostics; %.17g
// round-trips every double.
std::string FormatEpsilon(double epsilon) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", epsilon);
  return buf;
}

// What a restored ledger amount (spent, one charge) may hold.
bool IsLedgerAmount(double epsilon) {
  return std::isfinite(epsilon) && epsilon >= 0.0;
}

}  // namespace

Result<std::unique_ptr<BudgetAccountant>> BudgetAccountant::Create(
    double total_epsilon) {
  FM_RETURN_NOT_OK(dp::ValidateEpsilon(total_epsilon));
  return std::unique_ptr<BudgetAccountant>(
      new BudgetAccountant(total_epsilon));
}

Result<uint64_t> BudgetAccountant::Reserve(double epsilon,
                                           const std::string& label) {
  FM_RETURN_NOT_OK(dp::ValidateEpsilon(epsilon));
  MutexLock lock(mutex_);
  const double remaining = total_epsilon_ - spent_epsilon_ - reserved_epsilon_;
  if (epsilon > remaining + kSlack) {
    return Status::FailedPrecondition(
        "privacy budget exhausted: requested " + FormatEpsilon(epsilon) +
        ", remaining " + FormatEpsilon(remaining) + " (" + label + ")");
  }
  const uint64_t id = next_reservation_++;
  reserved_epsilon_ += epsilon;
  pending_.emplace(id, Pending{epsilon, label});
  return id;
}

Status BudgetAccountant::Settle(uint64_t reservation, double actual_epsilon) {
  MutexLock lock(mutex_);
  const auto it = pending_.find(reservation);
  if (it == pending_.end()) {
    return Status::NotFound("unknown or already-settled reservation " +
                            std::to_string(reservation));
  }
  // The reservation is released below on every path — settled exactly once.
  reserved_epsilon_ -= it->second.epsilon;
  Status outcome = dp::ValidateEpsilon(actual_epsilon);
  if (outcome.ok() && actual_epsilon > it->second.epsilon + kSlack) {
    outcome = Status::InvalidArgument(
        "commit of " + FormatEpsilon(actual_epsilon) +
        " exceeds the reserved " + FormatEpsilon(it->second.epsilon) + " (" +
        it->second.label + "); reservation released, nothing spent");
  }
  if (outcome.ok()) {
    spent_epsilon_ += actual_epsilon;
    charges_.push_back(ChargeRecord{actual_epsilon, it->second.label});
  }
  pending_.erase(it);
  return outcome;
}

Status BudgetAccountant::Abort(uint64_t reservation) {
  MutexLock lock(mutex_);
  const auto it = pending_.find(reservation);
  if (it == pending_.end()) {
    return Status::NotFound("unknown or already-settled reservation " +
                            std::to_string(reservation));
  }
  reserved_epsilon_ -= it->second.epsilon;
  pending_.erase(it);
  return Status::OK();
}

double BudgetAccountant::total_epsilon() const { return total_epsilon_; }

double BudgetAccountant::spent_epsilon() const {
  MutexLock lock(mutex_);
  return spent_epsilon_;
}

double BudgetAccountant::reserved_epsilon() const {
  MutexLock lock(mutex_);
  return reserved_epsilon_;
}

double BudgetAccountant::remaining_epsilon() const {
  MutexLock lock(mutex_);
  return total_epsilon_ - spent_epsilon_ - reserved_epsilon_;
}

std::vector<BudgetAccountant::ChargeRecord> BudgetAccountant::charges()
    const {
  MutexLock lock(mutex_);
  return charges_;
}

size_t BudgetAccountant::pending_reservations() const {
  MutexLock lock(mutex_);
  return pending_.size();
}

void BudgetAccountant::SerializeTo(std::string* out) const {
  MutexLock lock(mutex_);
  FM_CHECK(pending_.empty());  // checkpoints run at request boundaries
  io::AppendDouble(out, spent_epsilon_);
  io::AppendU64(out, next_reservation_);
  io::AppendU64(out, charges_.size());
  for (const ChargeRecord& charge : charges_) {
    io::AppendDouble(out, charge.epsilon);
    io::AppendLengthPrefixed(out, charge.label);
  }
}

Status BudgetAccountant::RestoreFrom(io::ByteReader& reader) {
  MutexLock lock(mutex_);
  double spent = 0.0;
  uint64_t next_reservation = 0;
  uint64_t charge_count = 0;
  FM_RETURN_NOT_OK(reader.ReadDouble(&spent));
  FM_RETURN_NOT_OK(reader.ReadU64(&next_reservation));
  FM_RETURN_NOT_OK(reader.ReadU64(&charge_count));
  // A ledger that could grant budget it does not hold is refused: a NaN
  // `spent` makes every later Reserve's remaining-budget comparison false,
  // so every Reserve would succeed.
  if (!IsLedgerAmount(spent)) {
    return Status::IoError("snapshot ledger holds a non-finite or negative ε");
  }
  if (spent > total_epsilon_ + kSlack) {
    return Status::IoError("snapshot ledger spent " + FormatEpsilon(spent) +
                           " exceeds its total " +
                           FormatEpsilon(total_epsilon_));
  }
  // Each charge occupies at least its ε and its label's length prefix, so
  // a count the remaining bytes cannot hold is refused before reserving.
  constexpr size_t kMinChargeBytes = 2 * sizeof(uint64_t);
  if (charge_count > reader.remaining() / kMinChargeBytes) {
    return Status::IoError("snapshot ledger charge count " +
                           std::to_string(charge_count) +
                           " exceeds its payload");
  }
  std::vector<ChargeRecord> charges;
  charges.reserve(static_cast<size_t>(charge_count));
  for (uint64_t i = 0; i < charge_count; ++i) {
    ChargeRecord charge;
    FM_RETURN_NOT_OK(reader.ReadDouble(&charge.epsilon));
    if (!IsLedgerAmount(charge.epsilon)) {
      return Status::IoError("snapshot ledger charge " + std::to_string(i) +
                             " is non-finite or negative");
    }
    FM_RETURN_NOT_OK(reader.ReadLengthPrefixed(&charge.label));
    charges.push_back(std::move(charge));
  }
  spent_epsilon_ = spent;
  reserved_epsilon_ = 0.0;
  next_reservation_ = next_reservation;
  pending_.clear();
  charges_ = std::move(charges);
  return Status::OK();
}

}  // namespace fm::serve
