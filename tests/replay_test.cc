// The record/replay engine and differential fuzz harness (testing/replay.h),
// tier-1 smoke form:
//  - GenerateWorkload is deterministic in (options, seed) and covers every
//    request kind, malformed requests included.
//  - Repro artifacts round-trip (options + log, WAL record framing) and
//    reject corruption — an artifact is a committed test vector, not a
//    crashed log, so a torn record fails the read.
//  - RunDifferential over seeded workloads: every knob combination
//    (threads × batching × crash/recovery points × metrics) byte-matches
//    the reference execution — the determinism contract as a machine-checked
//    invariant.
//  - The planted nondeterminism (DifferentialOptions::plant_pool_size_seed)
//    is caught, ddmin-minimized to ≤ 10 requests, and the written repro
//    artifact still diverges after reload — the harness can actually fail.
//  - Negative paths: malformed requests return typed errors and mutate
//    nothing (byte-identical state snapshots before/after), and logs thick
//    with malformed requests stay deterministic under the full matrix.
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/io_env.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/wal.h"
#include "testing/replay.h"

namespace fm {
namespace {

using serve::BatchingMode;
using serve::DifferentialOptions;
using serve::Divergence;
using serve::GenerateWorkload;
using serve::MinimizeDivergingLog;
using serve::MinimizeResult;
using serve::ReadReproArtifact;
using serve::ReplayKnobs;
using serve::ReplayObservation;
using serve::ReproArtifact;
using serve::Request;
using serve::RequestKind;
using serve::Service;
using serve::ServiceOptions;
using serve::TrainerKind;
using serve::WorkloadOptions;
using serve::WorkloadServiceOptions;
using serve::WriteReproArtifact;

std::string TestDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "replay_test_" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return dir;
}

// Smaller-than-driver matrix so tier-1 stays fast; still spans
// serial-vs-parallel pools, all batching modes, and crash runs.
DifferentialOptions SmokeDifferential(const std::string& scratch) {
  DifferentialOptions options;
  options.thread_counts = {1, 8};
  options.crash_points = 2;
  options.checkpoint_every = 16;
  options.scratch_dir = scratch;
  return options;
}

// --------------------------------------------------------------------------
// Workload generator
// --------------------------------------------------------------------------

TEST(Workload, DeterministicInSeedAndCoversEveryKind) {
  WorkloadOptions options;
  options.requests = 300;
  options.forced_compaction = true;  // kCompact must appear explicitly
  const std::vector<Request> a = GenerateWorkload(options, 42);
  const std::vector<Request> b = GenerateWorkload(options, 42);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), options.requests);
  for (size_t i = 0; i < a.size(); ++i) {
    const std::string ra(serve::Wal::EncodeRecord(i, a[i]));
    const std::string rb(serve::Wal::EncodeRecord(i, b[i]));
    ASSERT_EQ(ra, rb) << "request " << i << " differs between generations";
  }

  std::set<RequestKind> kinds;
  std::set<TrainerKind> trainers;
  for (const Request& request : a) {
    kinds.insert(request.kind);
    if (request.kind == RequestKind::kTrain) trainers.insert(request.trainer);
  }
  EXPECT_EQ(kinds.size(), 7u) << "generator must emit every request kind";
  EXPECT_EQ(trainers.size(), 3u) << "generator must emit every trainer";

  // A different seed produces a different log.
  const std::vector<Request> c = GenerateWorkload(options, 43);
  bool any_diff = false;
  for (size_t i = 0; i < c.size() && !any_diff; ++i) {
    any_diff = serve::Wal::EncodeRecord(i, a[i]) !=
               serve::Wal::EncodeRecord(i, c[i]);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Workload, PolicyModeEmitsNoExplicitCompactions) {
  WorkloadOptions options;
  options.requests = 300;
  options.forced_compaction = false;
  const ServiceOptions service = WorkloadServiceOptions(options, 7);
  EXPECT_TRUE(service.auto_compact);
  for (const Request& request : GenerateWorkload(options, 7)) {
    EXPECT_NE(request.kind, RequestKind::kCompact);
  }
  WorkloadOptions forced = options;
  forced.forced_compaction = true;
  EXPECT_FALSE(WorkloadServiceOptions(forced, 7).auto_compact);
}

// --------------------------------------------------------------------------
// Repro artifacts
// --------------------------------------------------------------------------

TEST(ReproArtifactIo, RoundTripsOptionsAndLog) {
  const std::string dir = TestDir("artifact");
  WorkloadOptions workload;
  workload.dim = 6;
  workload.requests = 120;
  workload.task = data::TaskKind::kLogistic;
  workload.forced_compaction = true;
  const ServiceOptions options = WorkloadServiceOptions(workload, 99);
  const std::vector<Request> log = GenerateWorkload(workload, 99);

  const std::string path = dir + "/log.fmfuzz";
  ASSERT_TRUE(WriteReproArtifact(path, options, log).ok());
  const Result<ReproArtifact> read = ReadReproArtifact(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const ReproArtifact& artifact = read.ValueOrDie();

  EXPECT_EQ(artifact.options.dim, options.dim);
  EXPECT_EQ(artifact.options.task, options.task);
  EXPECT_EQ(artifact.options.post_processing, options.post_processing);
  EXPECT_EQ(artifact.options.seed, options.seed);
  EXPECT_EQ(artifact.options.auto_compact, options.auto_compact);
  EXPECT_EQ(serve::OptionsFingerprint(artifact.options),
            serve::OptionsFingerprint(options));
  ASSERT_EQ(artifact.log.size(), log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(serve::Wal::EncodeRecord(i, artifact.log[i]),
              serve::Wal::EncodeRecord(i, log[i]))
        << "request " << i << " did not round-trip";
  }
}

TEST(ReproArtifactIo, RejectsCorruptionStrictly) {
  const std::string dir = TestDir("artifact_corrupt");
  WorkloadOptions workload;
  workload.requests = 20;
  const ServiceOptions options = WorkloadServiceOptions(workload, 1);
  const std::vector<Request> log = GenerateWorkload(workload, 1);
  const std::string path = dir + "/log.fmfuzz";
  ASSERT_TRUE(WriteReproArtifact(path, options, log).ok());
  const Result<std::string> bytes =
      io::ReadFileToString(io::Env::Default(), path);
  ASSERT_TRUE(bytes.ok());

  // Truncation anywhere fails (unlike WAL recovery, which tolerates it).
  for (const double fraction : {0.3, 0.7, 0.99}) {
    const std::string truncated = bytes.ValueOrDie().substr(
        0, static_cast<size_t>(static_cast<double>(bytes.ValueOrDie().size()) *
                               fraction));
    ASSERT_TRUE(
        io::WriteFileAtomic(io::Env::Default(), path, truncated, false).ok());
    EXPECT_FALSE(ReadReproArtifact(path).ok());
  }
  // A flipped payload byte fails the record CRC.
  std::string corrupt = bytes.ValueOrDie();
  corrupt[corrupt.size() - 3] = static_cast<char>(corrupt[corrupt.size() - 3] ^ 0x40);
  ASSERT_TRUE(
      io::WriteFileAtomic(io::Env::Default(), path, corrupt, false).ok());
  EXPECT_FALSE(ReadReproArtifact(path).ok());
  // Wrong magic fails immediately.
  std::string wrong_magic = bytes.ValueOrDie();
  wrong_magic[0] = 'X';
  ASSERT_TRUE(
      io::WriteFileAtomic(io::Env::Default(), path, wrong_magic, false).ok());
  EXPECT_FALSE(ReadReproArtifact(path).ok());
  // A record count far beyond the file's bytes is a typed error, not an
  // allocation sized by the count field (magic, version and options fill
  // the first 55 bytes).
  std::string huge_count = bytes.ValueOrDie();
  std::string count_field;
  io::AppendU64(&count_field, uint64_t{1} << 40);
  huge_count.replace(55, count_field.size(), count_field);
  ASSERT_TRUE(
      io::WriteFileAtomic(io::Env::Default(), path, huge_count, false).ok());
  EXPECT_EQ(ReadReproArtifact(path).status().code(), StatusCode::kIoError);
  // The auto_compact flag byte (after magic, version, dim, task,
  // post-processing, ε and seed) must be 0 or 1.
  std::string bad_flag = bytes.ValueOrDie();
  bad_flag[38] = 2;
  ASSERT_TRUE(
      io::WriteFileAtomic(io::Env::Default(), path, bad_flag, false).ok());
  EXPECT_EQ(ReadReproArtifact(path).status().code(), StatusCode::kIoError);
}

// The .fmfuzz bytes of one fixed log, pinned: a change that altered the
// writer and the reader together would still round-trip, so only fixed
// bytes catch a format change.
TEST(ReproArtifactIo, WriterEmitsThePinnedBytes) {
  ServiceOptions options;
  options.dim = 3;
  options.task = data::TaskKind::kLinear;
  options.post_processing = core::PostProcessing::kAdaptive;
  options.total_epsilon = 2.0;
  options.seed = 0x1234;
  options.auto_compact = true;
  options.compaction_dead_ratio = 0.25;
  options.compaction_min_dead = 64;
  const std::vector<Request> log = {
      Request::Insert(linalg::Vector{0.5, -0.25, 0.125}, 0.75),
      Request::Train(TrainerKind::kFunctionalMechanism, 0.5),
      Request::Predict(linalg::Vector{0.25, 0.5, -0.5})};
  const std::string kPinnedHex =
      // magic "FMFUZZR1", version 1
      "464d46555a5a5231" "01000000"
      // dim, task, post-processing, total ε, seed, auto_compact,
      // compaction_dead_ratio, compaction_min_dead
      "0300000000000000" "00" "04" "0000000000000040" "3412000000000000"
      "01" "000000000000d03f" "4000000000000000"
      // record count
      "0300000000000000"
      // WAL records: [len u32][crc u32][position u64][payload]
      "3a00000038bb5c85" "0000000000000000"
      "00009a9999999999e93f000000000000e83f0000000000000000030000000000"
      "0000000000000000e03f000000000000d0bf000000000000c03f"
      "220000007746783b" "0100000000000000"
      "0300000000000000e03f00000000000000000000000000000000000000000000"
      "0000"
      "3a000000f53d9e2e" "0200000000000000"
      "04009a9999999999e93f00000000000000000000000000000000030000000000"
      "0000000000000000d03f000000000000e03f000000000000e0bf";

  const std::string path = TestDir("artifact_pinned") + "/log.fmfuzz";
  ASSERT_TRUE(WriteReproArtifact(path, options, log).ok());
  const Result<std::string> bytes =
      io::ReadFileToString(io::Env::Default(), path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  std::string hex;
  for (const char c : bytes.ValueOrDie()) {
    static const char kDigits[] = "0123456789abcdef";
    hex.push_back(kDigits[static_cast<unsigned char>(c) >> 4]);
    hex.push_back(kDigits[static_cast<unsigned char>(c) & 0xf]);
  }
  EXPECT_EQ(hex, kPinnedHex);

  const Result<ReproArtifact> read = ReadReproArtifact(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const ServiceOptions& back = read.ValueOrDie().options;
  EXPECT_EQ(back.dim, options.dim);
  EXPECT_EQ(back.task, options.task);
  EXPECT_EQ(back.post_processing, options.post_processing);
  EXPECT_EQ(back.total_epsilon, options.total_epsilon);
  EXPECT_EQ(back.seed, options.seed);
  EXPECT_EQ(back.auto_compact, options.auto_compact);
  EXPECT_EQ(back.compaction_dead_ratio, options.compaction_dead_ratio);
  EXPECT_EQ(back.compaction_min_dead, options.compaction_min_dead);
  const std::vector<Request>& read_log = read.ValueOrDie().log;
  ASSERT_EQ(read_log.size(), log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(read_log[i].kind, log[i].kind) << i;
    ASSERT_EQ(read_log[i].x.size(), log[i].x.size()) << i;
    for (size_t j = 0; j < log[i].x.size(); ++j) {
      EXPECT_EQ(read_log[i].x[j], log[i].x[j]) << i << "," << j;
    }
    EXPECT_EQ(read_log[i].y, log[i].y) << i;
    EXPECT_EQ(read_log[i].id, log[i].id) << i;
    EXPECT_EQ(read_log[i].trainer, log[i].trainer) << i;
    EXPECT_EQ(read_log[i].epsilon, log[i].epsilon) << i;
  }
}

// --------------------------------------------------------------------------
// Differential replay: the contract holds
// --------------------------------------------------------------------------

TEST(Differential, CleanWorkloadsShowZeroDivergence) {
  // Two seeds spanning both tasks and both compaction styles through the
  // full smoke matrix (threads × batchings + crash runs). The
  // driver's CI budget runs the same check over ≥ 50 seeds × 200 requests.
  for (const uint64_t seed : {11ull, 12ull}) {
    WorkloadOptions workload;
    workload.dim = 4 + seed % 3;
    workload.requests = 120;
    workload.task = (seed % 2 == 0) ? data::TaskKind::kLinear
                                    : data::TaskKind::kLogistic;
    workload.forced_compaction = (seed % 2 == 1);
    const ServiceOptions options = WorkloadServiceOptions(workload, seed);
    const std::vector<Request> log = GenerateWorkload(workload, seed);
    const std::string scratch =
        TestDir("clean_" + std::to_string(seed));
    const Result<Divergence> result =
        serve::RunDifferential(options, log, SmokeDifferential(scratch));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result.ValueOrDie().diverged)
        << "seed " << seed << " diverged at position "
        << result.ValueOrDie().position << " ("
        << result.ValueOrDie().what << ") under "
        << result.ValueOrDie().knob_name;
  }
}

TEST(Differential, ObservationsCoverEveryPositionAndCheckpoint) {
  WorkloadOptions workload;
  workload.requests = 100;
  const ServiceOptions options = WorkloadServiceOptions(workload, 5);
  const std::vector<Request> log = GenerateWorkload(workload, 5);
  ReplayKnobs knobs;  // reference shape
  const Result<ReplayObservation> run =
      serve::ExecuteReplay(options, log, knobs, /*checkpoint_every=*/16, "");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const ReplayObservation& observation = run.ValueOrDie();
  ASSERT_EQ(observation.responses.size(), log.size());
  for (size_t i = 0; i < observation.responses.size(); ++i) {
    EXPECT_FALSE(observation.responses[i].empty())
        << "position " << i << " was never executed";
  }
  // State captured at 0, 16, 32, ..., 96, and the end of log.
  for (uint64_t position = 0; position <= 96; position += 16) {
    EXPECT_EQ(observation.state.count(position), 1u) << position;
  }
  EXPECT_EQ(observation.state.count(log.size()), 1u);
}

// --------------------------------------------------------------------------
// The harness can actually fail: planted nondeterminism
// --------------------------------------------------------------------------

TEST(PlantedBugTest, CaughtMinimizedAndArtifactStillDiverges) {
  WorkloadOptions workload;
  workload.dim = 4;
  workload.requests = 40;
  const uint64_t seed = 3;
  const ServiceOptions options = WorkloadServiceOptions(workload, seed);
  const std::vector<Request> log = GenerateWorkload(workload, seed);
  const std::string dir = TestDir("planted");
  DifferentialOptions differential = SmokeDifferential(dir + "/scratch");
  differential.plant_pool_size_seed = true;

  // Caught: the pool size leaks into the train noise seed, so any
  // threads != 1 combination diverges from the single-threaded reference.
  const Result<Divergence> found =
      serve::RunDifferential(options, log, differential);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  ASSERT_TRUE(found.ValueOrDie().diverged)
      << "the harness failed to catch the planted nondeterminism";
  EXPECT_NE(found.ValueOrDie().knobs.threads, 1u)
      << "divergence must implicate a multi-threaded combination";

  // Minimized: ddmin must land at [insert..., FM train] — well under 10.
  const Result<MinimizeResult> minimized =
      MinimizeDivergingLog(options, log, differential);
  ASSERT_TRUE(minimized.ok()) << minimized.status().ToString();
  const MinimizeResult& result = minimized.ValueOrDie();
  EXPECT_LE(result.log.size(), 10u)
      << "minimized repro has " << result.log.size() << " requests";
  EXPECT_TRUE(result.divergence.diverged);
  bool has_fm_train = false;
  for (const Request& request : result.log) {
    has_fm_train = has_fm_train ||
                   (request.kind == RequestKind::kTrain &&
                    request.trainer == TrainerKind::kFunctionalMechanism);
  }
  EXPECT_TRUE(has_fm_train)
      << "the planted bug lives in FM training; the repro must keep one";

  // Artifact: write, reload, and the reloaded repro still diverges.
  const std::string path = dir + "/repro.fmfuzz";
  ASSERT_TRUE(WriteReproArtifact(path, options, result.log).ok());
  const Result<ReproArtifact> reloaded = ReadReproArtifact(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  const Result<Divergence> replayed = serve::RunDifferential(
      reloaded.ValueOrDie().options, reloaded.ValueOrDie().log, differential);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_TRUE(replayed.ValueOrDie().diverged)
      << "the committed artifact must reproduce the divergence";

  // And with the bug unplanted, the same repro runs clean — the artifact
  // doubles as the bug's regression test.
  differential.plant_pool_size_seed = false;
  const Result<Divergence> fixed = serve::RunDifferential(
      reloaded.ValueOrDie().options, reloaded.ValueOrDie().log, differential);
  ASSERT_TRUE(fixed.ok()) << fixed.status().ToString();
  EXPECT_FALSE(fixed.ValueOrDie().diverged);
}

// --------------------------------------------------------------------------
// Negative paths: typed errors, no mutation, determinism intact
// --------------------------------------------------------------------------

std::string StateDigest(const Service& service) {
  return serve::EncodeSnapshot(service.objective(), service.accountant(),
                               service.registry(), service.log_position(),
                               service.compaction_count());
}

// Executes one request and asserts it fails with `code` while mutating
// nothing but the log position (the request still occupies a position —
// failed requests are part of the log, deterministically).
void ExpectTypedErrorNoMutation(Service& service, const Request& request,
                                StatusCode code, const std::string& label) {
  const std::string before = StateDigest(service);
  const uint64_t before_position = service.log_position();
  const std::vector<serve::Response> responses = service.ExecuteLog({request});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status.code(), code)
      << label << ": " << responses[0].status.ToString();
  EXPECT_EQ(service.log_position(), before_position + 1) << label;
  // Everything except the consumed log position is byte-identical.
  const std::string after =
      serve::EncodeSnapshot(service.objective(), service.accountant(),
                            service.registry(), before_position,
                            service.compaction_count());
  EXPECT_EQ(after, before) << label << " mutated state";
}

TEST(NegativePaths, MalformedRequestsReturnTypedErrorsAndMutateNothing) {
  ServiceOptions options;
  options.dim = 3;
  auto created = Service::Create(options);
  ASSERT_TRUE(created.ok());
  Service& service = *created.ValueOrDie();

  // Trains on an empty store are rejected before anything else.
  ExpectTypedErrorNoMutation(
      service, Request::Train(TrainerKind::kFunctionalMechanism, 1.0),
      StatusCode::kFailedPrecondition, "train on empty store");

  // Seed two tuples.
  const auto seeded = service.ExecuteLog(
      {Request::Insert(linalg::Vector{0.5, 0.1, 0.0}, 0.5),
       Request::Insert(linalg::Vector{0.0, -0.4, 0.2}, -0.25)});
  ASSERT_TRUE(seeded[0].status.ok());
  ASSERT_TRUE(seeded[1].status.ok());
  const serve::TupleId first_id = seeded[0].id;

  ExpectTypedErrorNoMutation(service,
                             Request::Update(12345, linalg::Vector{0.1, 0.1, 0.1}, 0.0),
                             StatusCode::kNotFound, "update of unknown id");
  ExpectTypedErrorNoMutation(service, Request::Delete(54321),
                             StatusCode::kNotFound, "delete of unknown id");
  ExpectTypedErrorNoMutation(service,
                             Request::Insert(linalg::Vector{0.1, 0.2}, 0.0),
                             StatusCode::kInvalidArgument,
                             "dimension-mismatched insert");
  ExpectTypedErrorNoMutation(
      service, Request::Update(first_id, linalg::Vector{0.1}, 0.0),
      StatusCode::kInvalidArgument, "dimension-mismatched update");
  ExpectTypedErrorNoMutation(service,
                             Request::Insert(linalg::Vector{2.0, 0.0, 0.0}, 0.0),
                             StatusCode::kInvalidArgument,
                             "norm-contract-violating insert");
  ExpectTypedErrorNoMutation(
      service, Request::Train(TrainerKind::kFunctionalMechanism, -1.0),
      StatusCode::kInvalidArgument, "negative-epsilon train");
  ExpectTypedErrorNoMutation(service, Request::Predict(linalg::Vector{0.1, 0.1, 0.1}),
                             StatusCode::kFailedPrecondition,
                             "predict with no model");

  // A dead id stays kNotFound forever.
  const auto deleted = service.ExecuteLog({Request::Delete(first_id)});
  ASSERT_TRUE(deleted[0].status.ok());
  ExpectTypedErrorNoMutation(service, Request::Delete(first_id),
                             StatusCode::kNotFound, "delete of dead id");
  ExpectTypedErrorNoMutation(
      service, Request::Update(first_id, linalg::Vector{0.1, 0.1, 0.1}, 0.0),
      StatusCode::kNotFound, "update of dead id");
}

TEST(NegativePaths, ExhaustedBudgetRejectsTrainWithoutSpending) {
  ServiceOptions options;
  options.dim = 2;
  options.total_epsilon = 1.0;
  auto created = Service::Create(options);
  ASSERT_TRUE(created.ok());
  Service& service = *created.ValueOrDie();
  ASSERT_TRUE(service
                  .ExecuteLog({Request::Insert(linalg::Vector{0.5, 0.1}, 0.5),
                               Request::Insert(linalg::Vector{0.1, 0.5}, -0.5)})[0]
                  .status.ok());

  // Spend the whole budget, then every further private train is rejected
  // with a typed error and the ledger stays put.
  const auto spent = service.ExecuteLog(
      {Request::Train(TrainerKind::kFunctionalMechanism, 1.0)});
  ASSERT_TRUE(spent[0].status.ok()) << spent[0].status.ToString();
  ExpectTypedErrorNoMutation(
      service, Request::Train(TrainerKind::kFunctionalMechanism, 0.5),
      StatusCode::kFailedPrecondition, "train past exhausted budget");
  // Non-private trainers still work — they charge nothing.
  const auto free_train =
      service.ExecuteLog({Request::Train(TrainerKind::kTruncated, 0.0)});
  EXPECT_TRUE(free_train[0].status.ok());
}

TEST(NegativePaths, MalformedHeavyLogStaysDeterministic) {
  // A workload thick with malformed requests must satisfy the same
  // byte-determinism contract as a clean one.
  WorkloadOptions workload;
  workload.requests = 120;
  workload.malformed_fraction = 0.45;
  const uint64_t seed = 21;
  const ServiceOptions options = WorkloadServiceOptions(workload, seed);
  const std::vector<Request> log = GenerateWorkload(workload, seed);
  size_t failed = 0;
  {
    auto created = Service::Create(options);
    ASSERT_TRUE(created.ok());
    for (const serve::Response& response :
         created.ValueOrDie()->ExecuteLog(log)) {
      if (!response.status.ok()) ++failed;
    }
  }
  EXPECT_GT(failed, log.size() / 5) << "the workload must actually misbehave";

  const std::string scratch = TestDir("malformed");
  const Result<Divergence> result =
      serve::RunDifferential(options, log, SmokeDifferential(scratch));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.ValueOrDie().diverged)
      << "diverged at " << result.ValueOrDie().position << " under "
      << result.ValueOrDie().knob_name;
}

TEST(NegativePaths, MinimizeRefusesCleanLogs) {
  WorkloadOptions workload;
  workload.requests = 30;
  const ServiceOptions options = WorkloadServiceOptions(workload, 8);
  const std::vector<Request> log = GenerateWorkload(workload, 8);
  DifferentialOptions differential;
  differential.thread_counts = {1, 2};
  differential.crash_points = 0;  // no scratch dir needed
  const Result<MinimizeResult> minimized =
      MinimizeDivergingLog(options, log, differential);
  ASSERT_FALSE(minimized.ok());
  EXPECT_EQ(minimized.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace fm
