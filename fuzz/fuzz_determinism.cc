// Differential fuzz driver for the serving determinism contract.
//
// Modes (see docs/FUZZING.md):
//   fuzz_determinism --seeds=50 --requests=200 [--time_budget_s=1500]
//       Budgeted fuzz: generate seeded workloads and execute each under the
//       full knob matrix (threads x batching, plus a crash-points run and a
//       metrics-off run per thread count — telemetry is observation-only
//       and must not change a byte).
//       On divergence the log is ddmin-minimized and written as a repro
//       artifact; exit code 1.
//   fuzz_determinism --replay=path/to/repro.fmfuzz [--minimize]
//       Re-run a committed repro artifact and print the first diverging
//       position + knob pair. Exit 1 while the bug reproduces, 0 once fixed.
//   fuzz_determinism --faults --seeds=50 --requests=150
//       Disk-fault differential: run each seeded workload against a
//       FaultInjectingEnv (deterministic fsync failures, ENOSPC windows,
//       EINTR/short writes, torn renames) and assert that (a) every
//       response — including degraded-mode and poisoned-WAL rejections —
//       is byte-identical across FM_THREADS {1,8} and with metrics off, and
//       (b) after destroy + Recover the state equals the live state bitwise
//       (no acknowledged response is ever lost). docs/FAULTS.md.
//   fuzz_determinism --self_check
//       Plant the test-only nondeterminism bug (Service::
//       SetTestOnlyNondeterminism) and require the harness to catch it and
//       minimize it to <= 10 requests — proof the fuzzer can actually fail.
//
// Exit codes: 0 = clean, 1 = divergence (or self-check failure), 2 = usage.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/clock.h"
#include "serve/replay.h"
#include "serve/service.h"

namespace {

using fm::serve::DifferentialOptions;
using fm::serve::Divergence;
using fm::serve::FaultDivergence;
using fm::serve::GenerateWorkload;
using fm::serve::MinimizeDivergingLog;
using fm::serve::MinimizeResult;
using fm::serve::ReadReproArtifact;
using fm::serve::ReproArtifact;
using fm::serve::Request;
using fm::serve::RunDifferential;
using fm::serve::RunFaultDifferential;
using fm::serve::Service;
using fm::serve::ServiceOptions;
using fm::serve::WorkloadOptions;
using fm::serve::WorkloadServiceOptions;
using fm::serve::WriteReproArtifact;

struct Flags {
  size_t seeds = 5;
  uint64_t seed_base = 1;
  size_t requests = 200;
  size_t dim = 0;  // 0 = vary 4..8 per seed
  size_t crash_points = 2;
  double time_budget_s = 0.0;  // 0 = unlimited
  std::string out_dir = "fuzz-repros";
  std::string replay;  // artifact path; empty = fuzz mode
  bool minimize = false;
  bool self_check = false;
  bool faults = false;
};

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seeds=N] [--seed_base=B] [--requests=M] [--dim=D]\n"
      "          [--crash_points=K] [--time_budget_s=S] [--out_dir=DIR]\n"
      "          [--replay=ARTIFACT [--minimize]] [--self_check] [--faults]\n",
      argv0);
  return 2;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "seeds", &value)) {
      flags->seeds = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "seed_base", &value)) {
      flags->seed_base = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "requests", &value)) {
      flags->requests = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "dim", &value)) {
      flags->dim = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "crash_points", &value)) {
      flags->crash_points = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "time_budget_s", &value)) {
      flags->time_budget_s = std::strtod(value.c_str(), nullptr);
    } else if (ParseFlag(arg, "out_dir", &value)) {
      flags->out_dir = value;
    } else if (ParseFlag(arg, "replay", &value)) {
      flags->replay = value;
    } else if (arg == "--minimize") {
      flags->minimize = true;
    } else if (arg == "--self_check") {
      flags->self_check = true;
    } else if (arg == "--faults") {
      flags->faults = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

// The workload shape for one fuzz seed: dimensionality, task, and
// compaction style all rotate so the seed range covers the matrix.
WorkloadOptions SeedWorkload(const Flags& flags, uint64_t seed) {
  WorkloadOptions workload;
  workload.dim = flags.dim != 0 ? flags.dim : 4 + seed % 5;
  workload.requests = flags.requests;
  workload.task = (seed % 2 == 0) ? fm::data::TaskKind::kLinear
                                  : fm::data::TaskKind::kLogistic;
  workload.forced_compaction = (seed % 3 == 0);
  return workload;
}

DifferentialOptions MakeDifferentialOptions(const Flags& flags) {
  DifferentialOptions options;
  options.crash_points = flags.crash_points;
  options.scratch_dir = flags.out_dir + "/scratch";
  return options;
}

void PrintDivergence(const Divergence& divergence) {
  std::printf("  DIVERGENCE at position %llu (%s stream)\n",
              static_cast<unsigned long long>(divergence.position),
              divergence.what.c_str());
  std::printf("  knobs: %s (vs reference threads=1,batching=chunks)\n",
              divergence.knob_name.c_str());
}

// Minimizes a diverging log and writes the repro artifact. Returns the
// minimized size, or the original size if minimization itself failed.
size_t MinimizeAndWrite(const ServiceOptions& service_options,
                        const std::vector<Request>& log,
                        const DifferentialOptions& differential,
                        const std::string& artifact_path) {
  const fm::Result<MinimizeResult> minimized =
      MinimizeDivergingLog(service_options, log, differential);
  const std::vector<Request>* repro = &log;
  if (minimized.ok()) {
    repro = &minimized.ValueOrDie().log;
    std::printf("  minimized %zu -> %zu requests (%zu evaluations)\n",
                log.size(), repro->size(),
                minimized.ValueOrDie().evaluations);
    PrintDivergence(minimized.ValueOrDie().divergence);
  } else {
    std::printf("  minimization failed: %s — writing the full log\n",
                minimized.status().ToString().c_str());
  }
  const fm::Status written =
      WriteReproArtifact(artifact_path, service_options, *repro);
  if (written.ok()) {
    std::printf("  repro artifact: %s\n", artifact_path.c_str());
  } else {
    std::printf("  FAILED to write repro artifact %s: %s\n",
                artifact_path.c_str(), written.ToString().c_str());
  }
  return repro->size();
}

int RunFuzz(const Flags& flags) {
  const DifferentialOptions differential = MakeDifferentialOptions(flags);
  const size_t matrix = fm::serve::EnumerateKnobs(differential).size();
  std::printf(
      "fuzz_determinism: %zu seeds x %zu requests, %zu knob combinations "
      "(+reference), %zu crash points per crash run\n",
      flags.seeds, flags.requests, matrix, flags.crash_points);

  const fm::obs::Stopwatch stopwatch;
  size_t executed = 0;
  size_t divergences = 0;
  for (size_t i = 0; i < flags.seeds; ++i) {
    if (flags.time_budget_s > 0.0 &&
        stopwatch.Seconds() >= flags.time_budget_s) {
      std::printf("time budget exhausted after %zu/%zu seeds (%.1fs)\n",
                  executed, flags.seeds, stopwatch.Seconds());
      break;
    }
    const uint64_t seed = flags.seed_base + i;
    const WorkloadOptions workload = SeedWorkload(flags, seed);
    const ServiceOptions service_options =
        WorkloadServiceOptions(workload, seed);
    const std::vector<Request> log = GenerateWorkload(workload, seed);
    const fm::Result<Divergence> result =
        RunDifferential(service_options, log, differential);
    ++executed;
    if (!result.ok()) {
      std::printf("seed %llu: harness error: %s\n",
                  static_cast<unsigned long long>(seed),
                  result.status().ToString().c_str());
      return 2;
    }
    if (result.ValueOrDie().diverged) {
      ++divergences;
      std::printf("seed %llu (dim=%zu task=%s %s):\n",
                  static_cast<unsigned long long>(seed), workload.dim,
                  workload.task == fm::data::TaskKind::kLinear ? "linear"
                                                               : "logistic",
                  workload.forced_compaction ? "forced-compaction"
                                             : "policy-compaction");
      PrintDivergence(result.ValueOrDie());
      MinimizeAndWrite(service_options, log, differential,
                       flags.out_dir + "/repro-" + std::to_string(seed) +
                           ".fmfuzz");
    }
  }
  std::printf(
      "summary: %zu logs x %zu runs each = %zu replays in %.1fs, "
      "%zu divergence(s)\n",
      executed, matrix + 1, executed * (matrix + 1), stopwatch.Seconds(),
      divergences);
  std::error_code ec;
  std::filesystem::remove_all(differential.scratch_dir, ec);
  return divergences == 0 ? 0 : 1;
}

int RunFaults(const Flags& flags) {
  const size_t runs = std::size(fm::serve::kFaultRunConfigs);
  std::printf(
      "fuzz_determinism --faults: %zu seeds x %zu requests, %zu runs per "
      "seed (threads {1,8}, plus metrics-off), recovery proof per run\n",
      flags.seeds, flags.requests, runs);

  const std::string scratch_dir = flags.out_dir + "/fault-scratch";
  const fm::obs::Stopwatch stopwatch;
  size_t executed = 0;
  size_t failures = 0;
  // Coverage totals: a fault sweep that injected nothing proves nothing,
  // so the summary reports what actually fired.
  uint64_t injected_total = 0;
  uint64_t degraded_total = 0;
  size_t poisoned_runs = 0;
  for (size_t i = 0; i < flags.seeds; ++i) {
    if (flags.time_budget_s > 0.0 &&
        stopwatch.Seconds() >= flags.time_budget_s) {
      std::printf("time budget exhausted after %zu/%zu seeds (%.1fs)\n",
                  executed, flags.seeds, stopwatch.Seconds());
      break;
    }
    const uint64_t seed = flags.seed_base + i;
    const uint64_t fault_seed = fm::Rng::Fork(seed, 0xFA017);
    const WorkloadOptions workload = SeedWorkload(flags, seed);
    const ServiceOptions service_options =
        WorkloadServiceOptions(workload, seed);
    const std::vector<Request> log = GenerateWorkload(workload, seed);
    const fm::Result<FaultDivergence> result =
        RunFaultDifferential(service_options, log, fault_seed, scratch_dir);
    ++executed;
    if (!result.ok()) {
      std::printf("seed %llu: harness error: %s\n",
                  static_cast<unsigned long long>(seed),
                  result.status().ToString().c_str());
      return 2;
    }
    const FaultDivergence& divergence = result.ValueOrDie();
    injected_total += divergence.injected_faults;
    degraded_total += divergence.degraded_rejections;
    if (divergence.poisoned) ++poisoned_runs;
    if (divergence.failed) {
      ++failures;
      std::printf("seed %llu (dim=%zu fault_seed=%llu): FAULT FAILURE\n",
                  static_cast<unsigned long long>(seed), workload.dim,
                  static_cast<unsigned long long>(fault_seed));
      std::printf("  %s\n  run: %s\n", divergence.what.c_str(),
                  divergence.knob_name.c_str());
      const std::string artifact_path =
          flags.out_dir + "/fault-repro-" + std::to_string(seed) + ".fmfuzz";
      const fm::Status written =
          WriteReproArtifact(artifact_path, service_options, log);
      if (written.ok()) {
        std::printf(
            "  repro artifact: %s (re-run: --faults --seeds=1 "
            "--seed_base=%llu --requests=%zu)\n",
            artifact_path.c_str(), static_cast<unsigned long long>(seed),
            flags.requests);
      } else {
        std::printf("  FAILED to write repro artifact %s: %s\n",
                    artifact_path.c_str(), written.ToString().c_str());
      }
    }
  }
  std::printf(
      "summary: %zu logs x %zu fault runs = %zu replays in %.1fs, "
      "%llu faults injected, %llu degraded rejections, %zu poisoned run(s), "
      "%zu failure(s)\n",
      executed, runs, executed * runs, stopwatch.Seconds(),
      static_cast<unsigned long long>(injected_total),
      static_cast<unsigned long long>(degraded_total), poisoned_runs,
      failures);
  if (executed > 0 && injected_total == 0) {
    std::printf("FAIL: the sweep injected no faults — the harness is not "
                "exercising anything\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::remove_all(scratch_dir, ec);
  return failures == 0 ? 0 : 1;
}

int RunReplay(const Flags& flags) {
  const fm::Result<ReproArtifact> artifact = ReadReproArtifact(flags.replay);
  if (!artifact.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", flags.replay.c_str(),
                 artifact.status().ToString().c_str());
    return 2;
  }
  const ReproArtifact& repro = artifact.ValueOrDie();
  std::printf("replaying %s: %zu requests, dim=%zu\n", flags.replay.c_str(),
              repro.log.size(), repro.options.dim);
  const DifferentialOptions differential = MakeDifferentialOptions(flags);
  const fm::Result<Divergence> result =
      RunDifferential(repro.options, repro.log, differential);
  if (!result.ok()) {
    std::fprintf(stderr, "harness error: %s\n",
                 result.status().ToString().c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::remove_all(differential.scratch_dir, ec);
  if (!result.ValueOrDie().diverged) {
    std::printf("no divergence: every knob combination reproduced the "
                "reference byte for byte\n");
    return 0;
  }
  PrintDivergence(result.ValueOrDie());
  if (flags.minimize) {
    MinimizeAndWrite(repro.options, repro.log, differential,
                     flags.replay + ".min");
  }
  return 1;
}

int RunSelfCheck(const Flags& flags) {
  std::printf("self-check: planting the test-only nondeterminism bug\n");
  Service::SetTestOnlyNondeterminism(true);

  WorkloadOptions workload;
  workload.dim = 4;
  workload.requests = 40;
  const uint64_t seed = flags.seed_base;
  const ServiceOptions service_options =
      WorkloadServiceOptions(workload, seed);
  const std::vector<Request> log = GenerateWorkload(workload, seed);
  const DifferentialOptions differential = MakeDifferentialOptions(flags);

  int exit_code = 1;
  const fm::Result<MinimizeResult> minimized =
      MinimizeDivergingLog(service_options, log, differential);
  if (!minimized.ok()) {
    std::printf("FAIL: the harness did not catch the planted bug: %s\n",
                minimized.status().ToString().c_str());
  } else {
    const MinimizeResult& result = minimized.ValueOrDie();
    std::printf("caught it:\n");
    PrintDivergence(result.divergence);
    std::printf("  minimized %zu -> %zu requests (%zu evaluations)\n",
                log.size(), result.log.size(), result.evaluations);
    const std::string artifact_path = flags.out_dir + "/self-check.fmfuzz";
    const fm::Status written =
        WriteReproArtifact(artifact_path, service_options, result.log);
    if (result.log.size() <= 10 && written.ok()) {
      std::printf("self-check PASSED (repro artifact: %s)\n",
                  artifact_path.c_str());
      exit_code = 0;
    } else if (!written.ok()) {
      std::printf("FAIL: cannot write repro artifact: %s\n",
                  written.ToString().c_str());
    } else {
      std::printf("FAIL: minimized repro has %zu requests (> 10)\n",
                  result.log.size());
    }
  }

  Service::SetTestOnlyNondeterminism(false);
  std::error_code ec;
  std::filesystem::remove_all(differential.scratch_dir, ec);
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return Usage(argv[0]);
  if (flags.self_check) return RunSelfCheck(flags);
  if (!flags.replay.empty()) return RunReplay(flags);
  if (flags.faults) return RunFaults(flags);
  return RunFuzz(flags);
}
