#ifndef FM_COMMON_ULP_H_
#define FM_COMMON_ULP_H_

#include <cstdint>
#include <cstring>
#include <limits>

namespace fm {

/// Distance between two doubles in units in the last place, via the
/// lexicographically ordered integer representation of IEEE-754 doubles.
/// 0 iff a == b (including +0 vs −0); max<uint64_t> when either is NaN.
///
/// This is the yardstick for the library's accuracy contract — the exact
/// objective sum rounds "within 1 ulp per coefficient of the real sum"
/// (core/objective_accumulator.h) — shared by the tests and the
/// self-checking examples so every consumer asserts the same criterion.
inline uint64_t UlpDistance(double a, double b) {
  if (a == b) return 0;
  if (a != a || b != b) {  // NaN
    return std::numeric_limits<uint64_t>::max();
  }
  auto ordered = [](double d) {
    int64_t i;
    std::memcpy(&i, &d, sizeof(i));
    return i < 0 ? std::numeric_limits<int64_t>::min() - i : i;
  };
  const int64_t ia = ordered(a);
  const int64_t ib = ordered(b);
  return ia > ib ? static_cast<uint64_t>(ia) - static_cast<uint64_t>(ib)
                 : static_cast<uint64_t>(ib) - static_cast<uint64_t>(ia);
}

}  // namespace fm

#endif  // FM_COMMON_ULP_H_
