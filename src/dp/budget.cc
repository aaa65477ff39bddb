#include "dp/budget.h"

#include <cmath>
#include <string>

namespace fm::dp {

Status ValidateEpsilon(double epsilon) {
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument("epsilon must be finite and positive, got " +
                                   std::to_string(epsilon));
  }
  return Status::OK();
}

}  // namespace fm::dp
