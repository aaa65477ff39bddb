#include "linalg/kernels.h"

#include <algorithm>
#include <cstring>
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
// Exact fixed-point per-tuple objective contribution
// ---------------------------------------------------------------------------

namespace {

// Rounding by magic addition: for |t| ≤ 2¹⁹, t + 1.5·2²⁰ lies in
// [2²⁰, 2²¹], where doubles are spaced 2⁻³² apart, so the add rounds t to a
// multiple of 2⁻³² (to nearest, ties to even) and the difference of the two
// bit patterns is that multiple, RN(t·2³²). The remainder r = t − RN(t)
// is exact with |r| ≤ 2⁻³³, and r + 1.5·2⁻³⁰ lies in a binade spaced 2⁻⁸²
// apart, which gives RN(r·2⁸²) the same way. No scaling multiply is needed.
constexpr double kHiMagic = 0x1.8p20;
constexpr double kLoMagic = 0x1.8p-30;
static_assert(kHiMagic == 1.5 * (uint64_t{1} << (52 - kExactHiBits)));
static_assert(kLoMagic * (uint64_t{1} << (kExactHiBits + kExactLoBits - 52)) ==
              1.5);

inline uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Adds the split of t to one coefficient's words. The words are
// two's-complement integers; unsigned arithmetic makes the wraparound of
// the intermediate bit-pattern sums well defined.
inline void SplitAdd(double t, int64_t* hi, int64_t* lo) {
  const double s = t + kHiMagic;
  const double s2 = (t - (s - kHiMagic)) + kLoMagic;
  *hi = static_cast<int64_t>(static_cast<uint64_t>(*hi) +
                             (Bits(s) - Bits(kHiMagic)));
  *lo = static_cast<int64_t>(static_cast<uint64_t>(*lo) +
                             (Bits(s2) - Bits(kLoMagic)));
}

// Two lanes. GCC and Clang lower these to SSE2 on x86-64 and to plain
// scalar code on targets without vectors.
typedef double V2d __attribute__((vector_size(16)));
typedef uint64_t V2u __attribute__((vector_size(16)));

inline V2d LoadV2d(const double* p) {
  V2d v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline V2u LoadV2u(const int64_t* p) {
  V2u v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void StoreV2u(int64_t* p, V2u v) { std::memcpy(p, &v, sizeof(v)); }
inline V2u AsBits(V2d v) {
  V2u bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// One coefficient span: words[j] += Σ_r split(w[r]·xrows[r][j]) for j < len.
// Pairs of coefficients go through the vector path with the four tuples
// chained in registers, and the magic-number bias of all four is removed
// once per pair; an odd span ends in one scalar coefficient, which costs
// the same as a vector step, so short triangle rows pay no tail loop.
inline void ExactSpanAccumulate(int64_t* __restrict hi,
                                int64_t* __restrict lo,
                                const double* const* __restrict xrows,
                                const double* __restrict w, size_t len) {
  const V2d hi_magic = {kHiMagic, kHiMagic};
  const V2d lo_magic = {kLoMagic, kLoMagic};
  // kExactBatch copies of each bias; the products wrap, exactly.
  const uint64_t hi_bias = kExactBatch * Bits(kHiMagic);
  const uint64_t lo_bias = kExactBatch * Bits(kLoMagic);
  const V2u hi_biases = {hi_bias, hi_bias};
  const V2u lo_biases = {lo_bias, lo_bias};
  V2d wv[kExactBatch];
  for (size_t r = 0; r < kExactBatch; ++r) wv[r] = V2d{w[r], w[r]};
  size_t j = 0;
  for (; j + 2 <= len; j += 2) {
    V2u h = LoadV2u(hi + j);
    V2u l = LoadV2u(lo + j);
    for (size_t r = 0; r < kExactBatch; ++r) {
      const V2d t = wv[r] * LoadV2d(xrows[r] + j);
      const V2d s = t + hi_magic;
      const V2d s2 = (t - (s - hi_magic)) + lo_magic;
      h += AsBits(s);
      l += AsBits(s2);
    }
    StoreV2u(hi + j, h - hi_biases);
    StoreV2u(lo + j, l - lo_biases);
  }
  if (j < len) {
    for (size_t r = 0; r < kExactBatch; ++r) {
      SplitAdd(w[r] * xrows[r][j], hi + j, lo + j);
    }
  }
}

}  // namespace

void ExactTupleAccumulateBatch(int64_t* __restrict hi_words,
                               int64_t* __restrict lo_words,
                               const double* const* xs, size_t d,
                               double m_scale, const double* alpha_bias,
                               const double* beta) {
  constexpr size_t kB = kExactBatch;
  size_t idx = 0;
  for (size_t i = 0; i < d; ++i) {
    double w[kB];
    const double* xrows[kB];
    for (size_t r = 0; r < kB; ++r) {
      w[r] = m_scale * xs[r][i];
      xrows[r] = xs[r] + i;
    }
    ExactSpanAccumulate(hi_words + idx, lo_words + idx, xrows, w, d - i);
    idx += d - i;
  }
  ExactSpanAccumulate(hi_words + idx, lo_words + idx, xs, alpha_bias, d);
  idx += d;
  for (size_t r = 0; r < kB; ++r) {
    SplitAdd(beta[r], hi_words + idx, lo_words + idx);
  }
}

FM_SCALAR_REF
void RefExactTupleAccumulateBatch(int64_t* __restrict hi_words,
                                  int64_t* __restrict lo_words,
                                  const double* const* xs, size_t d,
                                  double m_scale, const double* alpha_bias,
                                  const double* beta) {
  for (size_t r = 0; r < kExactBatch; ++r) {
    const double* x = xs[r];
    size_t idx = 0;
    for (size_t i = 0; i < d; ++i) {
      const double xi = m_scale * x[i];
      for (size_t j = i; j < d; ++j, ++idx) {
        SplitAdd(xi * x[j], hi_words + idx, lo_words + idx);
      }
    }
    for (size_t j = 0; j < d; ++j, ++idx) {
      SplitAdd(alpha_bias[r] * x[j], hi_words + idx, lo_words + idx);
    }
    SplitAdd(beta[r], hi_words + idx, lo_words + idx);
  }
}

}  // namespace fm::linalg::kernels
