// Statistics, the response digest and process helpers.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "bench.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

TailPick PickTail(std::vector<double> values) {
  TailPick pick;
  pick.samples = values.size();
  const size_t n = values.size();
  if (n < 11) return pick;
  std::sort(values.begin(), values.end());
  // Nearest rank: percentile p sits at 0-based rank ceil(p/100 · n) − 1.
  // Standard percentiles up to p99 first (higher ones rest on too few
  // samples to repeat run to run); otherwise the rank that leaves ten.
  static const double kCandidates[] = {99.0, 98.0, 95.0, 90.0};
  for (const double p : kCandidates) {
    const double exact = p / 100.0 * static_cast<double>(n);
    size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
    rank = rank == 0 ? 0 : rank - 1;
    if (n - 1 - rank >= 10) {
      pick.valid = true;
      pick.percentile = p;
      pick.value = values[rank];
      pick.beyond = n - 1 - rank;
      return pick;
    }
  }
  const size_t rank = n - 11;
  pick.valid = true;
  pick.percentile = 100.0 * static_cast<double>(rank + 1) /
                    static_cast<double>(n);
  pick.value = values[rank];
  pick.beyond = 10;
  return pick;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof usage);
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void SpinMicros(double micros) {
  if (micros <= 0.0) return;
  const int64_t until = NowNs() + static_cast<int64_t>(micros * 1e3);
  while (NowNs() < until) {
  }
}

void Digest::AddBytes(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 0x100000001b3ull;
  }
}

void Digest::Add(const fm::serve::Response& response) {
  const int code = static_cast<int>(response.status.code());
  AddBytes(&code, sizeof code);
  const std::string& message = response.status.message();
  AddBytes(message.data(), message.size());
  AddBytes(&response.id, sizeof response.id);
  AddDouble(response.value);
  AddBytes(&response.model_version, sizeof response.model_version);
  AddDouble(response.epsilon_spent);
}

}  // namespace perfbench
