#include "linalg/vector.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "linalg/kernels.h"

namespace fm::linalg {

void Vector::Fill(double value) {
  for (auto& x : data_) x = value;
}

Vector& Vector::operator+=(const Vector& other) {
  FM_CHECK(size() == other.size());
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& other) {
  FM_CHECK(size() == other.size());
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Vector& Vector::operator*=(double scalar) {
  for (auto& x : data_) x *= scalar;
  return *this;
}

Vector& Vector::operator/=(double scalar) {
  for (auto& x : data_) x /= scalar;
  return *this;
}

void Vector::Axpy(double scalar, const Vector& other) {
  FM_CHECK(size() == other.size());
  kernels::Axpy(data_.data(), scalar, other.data_.data(), data_.size());
}

double Vector::Norm2() const {
  // Scaled accumulation to avoid overflow for large magnitudes.
  double scale = 0.0;
  double ssq = 1.0;
  for (double x : data_) {
    if (x == 0.0) continue;
    const double ax = std::fabs(x);
    if (scale < ax) {
      ssq = 1.0 + ssq * (scale / ax) * (scale / ax);
      scale = ax;
    } else {
      ssq += (ax / scale) * (ax / scale);
    }
  }
  return scale * std::sqrt(ssq);
}

double Vector::Norm1() const {
  double sum = 0.0;
  for (double x : data_) sum += std::fabs(x);
  return sum;
}

double Vector::NormInf() const {
  double best = 0.0;
  for (double x : data_) best = std::max(best, std::fabs(x));
  return best;
}

double Vector::Sum() const {
  double sum = 0.0;
  for (double x : data_) sum += x;
  return sum;
}

std::string Vector::ToString() const {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < data_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.6g", data_[i]);
    if (i) out += ", ";
    out += buf;
  }
  out += "]";
  return out;
}

Vector operator+(Vector lhs, const Vector& rhs) {
  lhs += rhs;
  return lhs;
}

Vector operator-(Vector lhs, const Vector& rhs) {
  lhs -= rhs;
  return lhs;
}

Vector operator*(Vector v, double scalar) {
  v *= scalar;
  return v;
}

Vector operator*(double scalar, Vector v) {
  v *= scalar;
  return v;
}

Vector operator/(Vector v, double scalar) {
  v /= scalar;
  return v;
}

Vector operator-(Vector v) {
  v *= -1.0;
  return v;
}

double Dot(const Vector& a, const Vector& b) {
  FM_CHECK(a.size() == b.size());
  // kernels::Dot is a strictly sequential reduction — same bits as the
  // naive loop.
  return kernels::Dot(a.raw(), b.raw(), a.size());
}

Vector Hadamard(const Vector& a, const Vector& b) {
  FM_CHECK(a.size() == b.size());
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
  return out;
}

double MaxAbsDiff(const Vector& a, const Vector& b) {
  FM_CHECK(a.size() == b.size());
  double best = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    best = std::max(best, std::fabs(a[i] - b[i]));
  }
  return best;
}

bool AllClose(const Vector& a, const Vector& b, double tol) {
  if (a.size() != b.size()) return false;
  return MaxAbsDiff(a, b) <= tol;
}

}  // namespace fm::linalg
