// perfbench: the repository benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scratch <dir>] [--plant-delete-delay-us <us>]
//   perfbench --self-test
//
// Prints a provenance line, one line per metric with its unit, notes, and
// as its last line one JSON object {"correct", "attempted", "failed",
// "metrics"}. Exits 1 when an output check failed; refuses (exit 3, no
// result) to produce numbers from a non-Release build.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "exec/thread_pool.h"
#include "log_gen.h"
#include "serve/wal.h"

namespace perfbench {
namespace {

const char* const kWorkloads[] = {"serve_mixed", "serve_churn",
                                  "durable_ingest", "offline_cv"};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scratch <dir>] "
               "[--plant-delete-delay-us <us>] | --self-test\n",
               why);
  return 2;
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? value : fallback;
}

void PrintProvenance(const Options& opt) {
  std::printf(
      "provenance: {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"seconds\": %g, \"nproc\": %zu, \"FM_THREADS\": \"%s\", "
      "\"pool_threads\": %zu, \"FM_BLOCKED_LINALG\": \"%s\", "
      "\"build_type\": \"%s\", \"FM_NATIVE\": \"%s\", \"compiler\": \"%s\", "
      "\"plant_delete_delay_us\": %g}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.trace ? 1 : 0, opt.seconds,
      static_cast<size_t>(std::thread::hardware_concurrency()),
      EnvOr("FM_THREADS", "unset").c_str(),
      fm::exec::ThreadPool::Global().num_threads(),
      EnvOr("FM_BLOCKED_LINALG", "unset").c_str(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_FM_NATIVE, PERFBENCH_COMPILER, opt.plant_delete_delay_us);
}

void PrintResult(RunResult& result) {
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) result.Fail(m.name + " is not finite");
  }
  for (const Metric& m : result.metrics) {
    std::printf("metric %-34s %20.6f %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.in_json ? "" : "  (report only)");
  }
  const double fail_ratio =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 1.0;
  std::printf("metric %-34s %20.6f ratio  (report only; the JSON carries "
              "failed / attempted)\n",
              "fail_ratio", fail_ratio);
  for (const std::string& note : result.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const std::string& failure : result.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.check_failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : result.metrics) {
    if (!m.in_json) continue;
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : -1.0);
    json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- self-tests -------------------------------------------------------------

std::string EncodedLog(const ServeSpec& spec, uint64_t seed, uint64_t segment,
                       size_t requests) {
  LogGenerator gen(spec, seed, segment);
  std::string bytes;
  for (size_t i = 0; i < requests; ++i) {
    bytes += fm::serve::Wal::EncodeRecord(i, gen.Next());
  }
  return bytes;
}

int SelfTest() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
  };
  // The log generator is a pure function of its seed argument.
  for (const char* name : {"serve_mixed", "serve_churn", "durable_ingest"}) {
    const ServeSpec& spec = *FindServeSpec(name);
    const std::string a = EncodedLog(spec, 42, 0, 5000);
    expect(a == EncodedLog(spec, 42, 0, 5000),
           std::string(name) + ": same seed, same log");
    expect(a != EncodedLog(spec, 43, 0, 5000),
           std::string(name) + ": another seed, another log");
    expect(a != EncodedLog(spec, 42, 1, 5000),
           std::string(name) + ": another segment, another log");
  }
  {
    // Churn keeps its live set within one of the target, and the stream
    // draws only ids it knows to be live.
    const ServeSpec& spec = *FindServeSpec("serve_churn");
    LogGenerator gen(spec, 7, 0);
    std::vector<uint8_t> live(spec.bootstrap_rows + 200000, 0);
    for (size_t i = 0; i < spec.bootstrap_rows; ++i) live[i] = 1;
    uint64_t next_id = spec.bootstrap_rows;
    bool ids_live = true;
    size_t min_live = gen.live_size(), max_live = gen.live_size();
    for (int i = 0; i < 100000; ++i) {
      const fm::serve::Request r = gen.Next();
      if (r.kind == fm::serve::RequestKind::kInsert) live[next_id++] = 1;
      if (r.kind == fm::serve::RequestKind::kDelete) {
        ids_live = ids_live && live[r.id];
        live[r.id] = 0;
      }
      if (r.kind == fm::serve::RequestKind::kUpdate) {
        ids_live = ids_live && live[r.id];
      }
      min_live = std::min(min_live, gen.live_size());
      max_live = std::max(max_live, gen.live_size());
    }
    expect(ids_live, "serve_churn: deletes and updates hit live ids");
    expect(min_live + 1 >= spec.live_target && max_live <= spec.live_target + 1,
           "serve_churn: live set held within one of its target");
  }
  // The tail picker always leaves at least 10 samples beyond its rank.
  bool tail_ok = true;
  for (size_t n = 0; n <= 5000; ++n) {
    std::vector<double> values(n);
    for (size_t i = 0; i < n; ++i) {
      values[i] = static_cast<double>((i * 7919) % (n + 1));
    }
    const TailPick pick = PickTail(values);
    if (n < 11) {
      tail_ok = tail_ok && !pick.valid;
      continue;
    }
    size_t above = 0;
    for (const double v : values) above += v > pick.value ? 1 : 0;
    tail_ok = tail_ok && pick.valid && pick.beyond >= 10 && above >= 10 &&
              pick.percentile <= 100.0;
  }
  expect(tail_ok, "tail picker leaves >= 10 samples beyond, n = 0..5000");
  expect(PickTail(std::vector<double>(1100, 1.0)).percentile == 99.0,
         "tail picker picks p99 at 1100 samples");
  expect(PickTail(std::vector<double>(200, 1.0)).percentile == 95.0,
         "tail picker picks p95 at 200 samples");
  std::printf("%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return SelfTest();
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && opt.seconds > 0.0;
    } else if (arg == "--trace") {
      opt.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--scratch") {
      opt.scratch = value;
    } else if (arg == "--plant-delete-delay-us") {
      opt.plant_delete_delay_us = std::strtod(value.c_str(), nullptr);
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  bool known = false;
  for (const char* name : kWorkloads) known = known || opt.workload == name;
  if (!known) return Usage(("unknown workload " + opt.workload).c_str());

  PrintProvenance(opt);
  TraceEnable(opt.trace);
  RunResult result;
  const int status = IsServeWorkload(opt.workload)
                         ? RunServeWorkload(opt, &result)
                         : RunOfflineCv(opt, &result);
  if (status != 0) return status;
  if (opt.trace) {
    TraceEnable(false);
    TraceWrite(opt.scratch + "/../trace-" + opt.workload + "-" +
                   std::to_string(opt.seed) + ".json",
               "\"workload\": \"" + opt.workload + "\", \"seed\": " +
                   std::to_string(opt.seed));
  }
  PrintResult(result);
  return result.check_failures.empty() ? 0 : 1;
}
