#ifndef FM_LINALG_KERNELS_H_
#define FM_LINALG_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace fm::linalg::kernels {

/// The micro-kernels behind the linalg hot paths that workloads run (dot,
/// axpy, matvec and the exact objective accumulation), plus the scalar
/// reference (`Ref*`) implementation of the one blocked kernel.
///
/// ## Determinism contract (bit-identity)
///
/// Production code calls the blocked kernel only. Its `Ref*` twin is the
/// scalar oracle it must reproduce **bit for bit**, for all shapes:
/// `tests/kernels_test.cc` calls both directly and asserts exact equality
/// across ragged sizes, and the micro-benchmark times both on the same
/// inputs. The other kernels are their own specification:
///
/// - **Matvec / dot**: reductions are strictly sequential in element order
///   (never split into SIMD partial sums, which would reassociate), and
///   `MatVec` is one such reduction per row, so each output equals `Dot` of
///   its row with x.
/// - **Exact accumulation** (core::ExactObjectiveSum, the one way the
///   library sums an objective): each term is split into two integers by
///   the same scalar operations in both kernels, and integers add exactly,
///   so the blocked kernel is free to batch tuples and vectorize across
///   coefficients without any summation order.
///
/// The build compiles with `-ffp-contract=off` (see CMakeLists.txt), so the
/// compiler cannot fuse a multiply into an add in one kernel but not the
/// other; without that flag GCC's default (`-ffp-contract=fast`) may
/// contract across statements and break the bit-identity.
///
/// All pointers are to dense row-major storage; `ld*` arguments are leading
/// dimensions (row strides) in elements. Aliasing between inputs and
/// outputs is not allowed (hence `__restrict`).

// ---------------------------------------------------------------------------
// BLAS-1 style fused kernels. Dot is a strictly sequential reduction (it is
// its own reference); Axpy vectorizes legally because distinct elements are
// independent.
// ---------------------------------------------------------------------------
double Dot(const double* __restrict a, const double* __restrict b, size_t n);
void Axpy(double* __restrict y, double alpha, const double* __restrict x,
          size_t n);

// ---------------------------------------------------------------------------
// Matvec: y(i) = Σ_j A(i,j)·x(j), rows in order, each row a sequential
// reduction.
// ---------------------------------------------------------------------------
void MatVec(const double* a, size_t lda, size_t rows, size_t cols,
            const double* __restrict x, double* __restrict y);

// ---------------------------------------------------------------------------
// Exact fixed-point per-tuple objective contribution — the hot loop of
// core::ExactObjectiveSum (the fold cache and the serving store). The flat
// coefficient layout is [M upper triangle (d(d+1)/2), α (d), β (1)], and
// tuple r contributes the terms
//
//   triangle : (m_scale·x_r[i])·x_r[j]   (j ≥ i, row-major)
//   α        : alpha_bias[r]·x_r[j]
//   β        : beta[r]
//
// Each term t is split, as a function of t alone, into two integers in
// units of 2⁻³² and 2⁻⁸²:
//
//   hi = RN(t·2³²),   lo = RN((t − hi·2⁻³²)·2⁸²),
//
// so t = hi·2⁻³² + lo·2⁻⁸² with an error of at most 2⁻⁸³. Both roundings
// are magic-number additions (t + 1.5·2²⁰, then r + 1.5·2⁻³⁰ on the exact
// remainder r), read back from the bit patterns, so the split needs
// round-to-nearest, no contraction (-ffp-contract=off) and |t| ≤ 2¹⁹. The
// kernel adds hi into hi_words[idx] and lo into lo_words[idx]. Integer
// addition is exact and commutative, so the words depend only on the
// multiset of terms added: batching, order and vector width cannot change
// a bit.
//
// Range: the caller guarantees |t| < 4, which the §3 normalization contract
// (‖x‖₂ ≤ 1, |y| ≤ 1) gives under the weight bounds that
// core::ExactObjectiveSum::AddTuples checks. Then |hi| ≤ 2³⁴ and
// |lo| ≤ 2⁴⁹, so words that start at zero cannot overflow within
// kExactChunkTuples tuples; the caller folds them into a wider sum before
// that.
// ---------------------------------------------------------------------------

/// Number of tuples the batch kernel consumes per call.
inline constexpr size_t kExactBatch = 4;

/// Tuples a set of zeroed chunk words can absorb without overflow.
inline constexpr size_t kExactChunkTuples = 1024;

/// Units of the two chunk words, as binary exponents: a coefficient's value
/// is hi·2^-kExactHiBits + lo·2^-(kExactHiBits + kExactLoBits), so one hi
/// unit is 2^kExactLoBits lo units.
inline constexpr int kExactHiBits = 32;
inline constexpr int kExactLoBits = 50;

/// Adds the split terms of kExactBatch tuples to the chunk words. The
/// blocked kernel sweeps each coefficient span two lanes at a time, with
/// the four tuples chained in registers, so the words are loaded and stored
/// once per batch.
void ExactTupleAccumulateBatch(int64_t* __restrict hi_words,
                               int64_t* __restrict lo_words,
                               const double* const* xs, size_t d,
                               double m_scale, const double* alpha_bias,
                               const double* beta);
void RefExactTupleAccumulateBatch(int64_t* __restrict hi_words,
                                  int64_t* __restrict lo_words,
                                  const double* const* xs, size_t d,
                                  double m_scale, const double* alpha_bias,
                                  const double* beta);

}  // namespace fm::linalg::kernels

#endif  // FM_LINALG_KERNELS_H_
