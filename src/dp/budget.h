#ifndef FM_DP_BUDGET_H_
#define FM_DP_BUDGET_H_

#include "common/status.h"

namespace fm::dp {

/// The one definition of a usable privacy budget: finite and strictly
/// positive. Every entry point that accepts an ε — the mechanisms, the
/// baseline trainers, the serving layer's ledger (serve::BudgetAccountant)
/// — rejects anything else with this InvalidArgument, so a bad budget fails
/// identically everywhere instead of flowing into a Laplace scale of ∞ or a
/// negative ledger charge.
Status ValidateEpsilon(double epsilon);

}  // namespace fm::dp

#endif  // FM_DP_BUDGET_H_
