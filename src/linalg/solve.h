#ifndef FM_LINALG_SOLVE_H_
#define FM_LINALG_SOLVE_H_

#include "common/result.h"
#include "common/status.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace fm::linalg {

/// Minimum-norm least-squares solve of symmetric A x = b through the
/// eigendecomposition: eigencomponents with |λ| <= rcond * max|λ| are
/// dropped. This is the solver behind §6.2 spectral trimming's
/// "solution to Q'ω = V is not unique" step.
Result<Vector> SolveSymmetricPseudo(const Matrix& a, const Vector& b,
                                    double rcond = 1e-12);

}  // namespace fm::linalg

#endif  // FM_LINALG_SOLVE_H_
