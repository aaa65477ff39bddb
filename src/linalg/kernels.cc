#include "linalg/kernels.h"

#include <algorithm>
#include <cmath>
#include <vector>

// The Ref* implementations are the deterministic anchor and the perf
// baseline that BENCH_linalg.json speedups are measured against; keep them
// honestly scalar so the comparison means "blocked/SIMD vs naive loop", not
// "whatever the vectorizer did vs whatever the vectorizer did".
#if defined(__GNUC__) && !defined(__clang__)
#define FM_SCALAR_REF __attribute__((optimize("no-tree-vectorize")))
#else
#define FM_SCALAR_REF
#endif

namespace fm::linalg::kernels {

namespace {

// Neumaier compensated add, branch form — shared by scalar reference paths.
inline void CompensatedAddScalar(double& sum, double& comp, double v) {
  const double t = sum + v;
  if (std::fabs(sum) >= std::fabs(v)) {
    comp += (sum - t) + v;
  } else {
    comp += (v - t) + sum;
  }
  sum = t;
}

}  // namespace

// ---------------------------------------------------------------------------
// SYRK upper: C(j,l) += Σ_r X(r,j)·X(r,l), l ≥ j.
// ---------------------------------------------------------------------------

void SyrkUpperAccumulate(const double* x, size_t ldx, size_t rows, size_t d,
                         double* c, size_t ldc) {
  constexpr size_t kTj = 4;
  constexpr size_t kTl = 8;
  for (size_t r0 = 0; r0 < rows; r0 += kSyrkRowPanel) {
    const size_t rb = std::min(kSyrkRowPanel, rows - r0);
    for (size_t j0 = 0; j0 < d; j0 += kTj) {
      const size_t jb = std::min(kTj, d - j0);
      for (size_t l0 = j0; l0 < d; l0 += kTl) {
        const size_t lb = std::min(kTl, d - l0);
        // Accumulate the full kTj×kTl tile over the row panel (outer
        // products, one row at a time — per element that is the in-panel
        // row-order sum), then write back only the upper-triangle part.
        double acc[kTj][kTl] = {};
        for (size_t r = r0; r < r0 + rb; ++r) {
          const double* __restrict xr = x + r * ldx;
          for (size_t tj = 0; tj < jb; ++tj) {
            const double xj = xr[j0 + tj];
            for (size_t tl = 0; tl < lb; ++tl) {
              acc[tj][tl] += xj * xr[l0 + tl];
            }
          }
        }
        for (size_t tj = 0; tj < jb; ++tj) {
          const size_t j = j0 + tj;
          for (size_t tl = 0; tl < lb; ++tl) {
            const size_t l = l0 + tl;
            if (l >= j) c[j * ldc + l] += acc[tj][tl];
          }
        }
      }
    }
  }
}

FM_SCALAR_REF
void RefSyrkUpperAccumulate(const double* x, size_t ldx, size_t rows,
                            size_t d, double* c, size_t ldc) {
  for (size_t r0 = 0; r0 < rows; r0 += kSyrkRowPanel) {
    const size_t rb = std::min(kSyrkRowPanel, rows - r0);
    for (size_t j = 0; j < d; ++j) {
      for (size_t l = j; l < d; ++l) {
        double acc = 0.0;
        for (size_t r = r0; r < r0 + rb; ++r) {
          acc += x[r * ldx + j] * x[r * ldx + l];
        }
        c[j * ldc + l] += acc;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SYRK lower subtract (single panel) — the blocked Cholesky trailing update.
// ---------------------------------------------------------------------------

void SyrkLowerSubtract(const double* p, size_t ldp, size_t n, size_t width,
                       double* c, size_t ldc) {
  if (n == 0 || width == 0) return;
  constexpr size_t kTi = 4;
  constexpr size_t kTj = 8;
  // Transpose the panel (exact copies) so the inner loop reads contiguous
  // spans over j: pt(k, i) = p(i, k), pt is width×n.
  std::vector<double> pt(width * n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < width; ++k) pt[k * n + i] = p[i * ldp + k];
  }
  for (size_t i0 = 0; i0 < n; i0 += kTi) {
    const size_t ib = std::min(kTi, n - i0);
    for (size_t j0 = 0; j0 <= i0 + ib - 1; j0 += kTj) {
      const size_t jb = std::min(kTj, n - j0);
      double acc[kTi][kTj] = {};
      for (size_t k = 0; k < width; ++k) {
        const double* __restrict ptk = pt.data() + k * n;
        for (size_t ti = 0; ti < ib; ++ti) {
          const double pik = ptk[i0 + ti];
          for (size_t tj = 0; tj < jb; ++tj) {
            acc[ti][tj] += pik * ptk[j0 + tj];
          }
        }
      }
      for (size_t ti = 0; ti < ib; ++ti) {
        const size_t i = i0 + ti;
        for (size_t tj = 0; tj < jb; ++tj) {
          const size_t j = j0 + tj;
          if (j <= i) c[i * ldc + j] -= acc[ti][tj];
        }
      }
    }
  }
}

FM_SCALAR_REF
void RefSyrkLowerSubtract(const double* p, size_t ldp, size_t n, size_t width,
                          double* c, size_t ldc) {
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < width; ++k) {
        acc += p[i * ldp + k] * p[j * ldp + k];
      }
      c[i * ldc + j] -= acc;
    }
  }
}

// ---------------------------------------------------------------------------
// BLAS-1
// ---------------------------------------------------------------------------

double Dot(const double* __restrict a, const double* __restrict b, size_t n) {
  // Strictly sequential: splitting into SIMD partial sums would reassociate
  // and break bit-identity with the scalar loops this replaces.
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

void Axpy(double* __restrict y, double alpha, const double* __restrict x,
          size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

// ---------------------------------------------------------------------------
// Matvec
// ---------------------------------------------------------------------------

void MatVec(const double* a, size_t lda, size_t rows, size_t cols,
            const double* __restrict x, double* __restrict y) {
  size_t i = 0;
  if (cols < 32) {
    // Too few columns for the 4-row ILP scheme to amortize its setup; the
    // per-row sequential dot is the same bits either way.
    for (; i < rows; ++i) {
      const double* __restrict row = a + i * lda;
      double sum = 0.0;
      for (size_t j = 0; j < cols; ++j) sum += row[j] * x[j];
      y[i] = sum;
    }
    return;
  }
  for (; i + kMatVecMr <= rows; i += kMatVecMr) {
    const double* __restrict r0 = a + i * lda;
    const double* __restrict r1 = r0 + lda;
    const double* __restrict r2 = r1 + lda;
    const double* __restrict r3 = r2 + lda;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t j = 0; j < cols; ++j) {
      const double xj = x[j];
      s0 += r0[j] * xj;
      s1 += r1[j] * xj;
      s2 += r2[j] * xj;
      s3 += r3[j] * xj;
    }
    y[i] = s0;
    y[i + 1] = s1;
    y[i + 2] = s2;
    y[i + 3] = s3;
  }
  for (; i < rows; ++i) {
    const double* __restrict row = a + i * lda;
    double sum = 0.0;
    for (size_t j = 0; j < cols; ++j) sum += row[j] * x[j];
    y[i] = sum;
  }
}

FM_SCALAR_REF
void RefMatVec(const double* a, size_t lda, size_t rows, size_t cols,
               const double* __restrict x, double* __restrict y) {
  for (size_t i = 0; i < rows; ++i) {
    const double* row = a + i * lda;
    double sum = 0.0;
    for (size_t j = 0; j < cols; ++j) sum += row[j] * x[j];
    y[i] = sum;
  }
}

// ---------------------------------------------------------------------------
// Compensated per-tuple objective contribution
// ---------------------------------------------------------------------------

void CompensatedTupleUpdate(double* __restrict sum, double* __restrict comp,
                            const double* __restrict x, size_t d,
                            double m_scale, double alpha_bias, double beta) {
  // Two long contiguous passes instead of d short triangle rows: first
  // materialize the tuple's coefficient contributions into a flat scratch
  // panel, then apply one branchless Neumaier sweep over the whole span.
  // Compensated adds to distinct coefficients are independent, and both
  // arms of the select evaluate the same expressions as the reference's
  // if/else, so the result is bit-identical to RefCompensatedTupleUpdate —
  // the restructuring only exists so the compiler can vectorize.
  const size_t ncoef = d * (d + 1) / 2 + d + 1;
  static thread_local std::vector<double> scratch;
  if (scratch.size() < ncoef) scratch.resize(ncoef);
  double* __restrict v = scratch.data();
  size_t idx = 0;
  for (size_t i = 0; i < d; ++i) {
    const double xi = m_scale * x[i];
    const double* __restrict xs = x + i;
    double* __restrict out = v + idx;
    const size_t len = d - i;
    for (size_t j = 0; j < len; ++j) out[j] = xi * xs[j];
    idx += len;
  }
  for (size_t j = 0; j < d; ++j) v[idx + j] = alpha_bias * x[j];
  v[idx + d] = beta;

  for (size_t t = 0; t < ncoef; ++t) {
    // Knuth's branch-free TwoSum. Like the reference's Neumaier branch it
    // produces the EXACT rounding error of st + vt (a representable
    // double), so comp receives bit-identical increments — it just needs
    // no magnitude comparison, which lets the loop vectorize.
    const double vt = v[t];
    const double st = sum[t];
    const double total = st + vt;
    const double z = total - st;
    comp[t] += (st - (total - z)) + (vt - z);
    sum[t] = total;
  }
}

namespace {

// One coefficient span: (sum, comp)[j] ⊕= w_r · x_r[j] for the kB tuples,
// chained in tuple order. Compensation stays PER TUPLE (batching a plain
// partial first would forfeit the fold cache's ≤1-ulp guarantee on
// near-cancelling α coefficients) via branch-free TwoSum; the r loop has a
// constant trip count, so it unrolls and the j loop vectorizes. Fusing the
// product into the chain keeps everything in registers — no scratch panel.
inline void CompensatedSpanUpdate(double* __restrict sum,
                                  double* __restrict comp,
                                  const double* const* __restrict xrows,
                                  const double* __restrict w, size_t len) {
  for (size_t j = 0; j < len; ++j) {
    double st = sum[j];
    double ct = comp[j];
    for (size_t r = 0; r < kCompensatedBatch; ++r) {
      const double vt = w[r] * xrows[r][j];
      const double total = st + vt;
      const double z = total - st;
      ct += (st - (total - z)) + (vt - z);
      st = total;
    }
    sum[j] = st;
    comp[j] = ct;
  }
}

}  // namespace

void CompensatedTupleUpdateBatch(double* __restrict sum,
                                 double* __restrict comp,
                                 const double* const* xs, size_t d,
                                 double m_scale, const double* alpha_bias,
                                 const double* beta) {
  constexpr size_t kB = kCompensatedBatch;
  size_t idx = 0;
  for (size_t i = 0; i < d; ++i) {
    double xi[kB];
    const double* xrows[kB];
    for (size_t r = 0; r < kB; ++r) {
      xi[r] = m_scale * xs[r][i];
      xrows[r] = xs[r] + i;
    }
    const size_t len = d - i;
    CompensatedSpanUpdate(sum + idx, comp + idx, xrows, xi, len);
    idx += len;
  }
  CompensatedSpanUpdate(sum + idx, comp + idx, xs, alpha_bias, d);
  idx += d;
  double st = sum[idx];
  double ct = comp[idx];
  for (size_t r = 0; r < kB; ++r) {
    const double total = st + beta[r];
    const double z = total - st;
    ct += (st - (total - z)) + (beta[r] - z);
    st = total;
  }
  sum[idx] = st;
  comp[idx] = ct;
}

FM_SCALAR_REF
void RefCompensatedTupleUpdateBatch(double* __restrict sum,
                                    double* __restrict comp,
                                    const double* const* xs, size_t d,
                                    double m_scale, const double* alpha_bias,
                                    const double* beta) {
  for (size_t r = 0; r < kCompensatedBatch; ++r) {
    RefCompensatedTupleUpdate(sum, comp, xs[r], d, m_scale, alpha_bias[r],
                              beta[r]);
  }
}

FM_SCALAR_REF
void RefCompensatedTupleUpdate(double* __restrict sum,
                               double* __restrict comp,
                               const double* __restrict x, size_t d,
                               double m_scale, double alpha_bias,
                               double beta) {
  size_t idx = 0;
  for (size_t i = 0; i < d; ++i) {
    const double xi = m_scale * x[i];
    for (size_t j = i; j < d; ++j, ++idx) {
      CompensatedAddScalar(sum[idx], comp[idx], xi * x[j]);
    }
  }
  for (size_t j = 0; j < d; ++j, ++idx) {
    CompensatedAddScalar(sum[idx], comp[idx], alpha_bias * x[j]);
  }
  CompensatedAddScalar(sum[idx], comp[idx], beta);
}

}  // namespace fm::linalg::kernels
