// Disk-fault injection and hardened durability (docs/FAULTS.md):
//  - io::FaultInjectingEnv decides faults as a pure function of (seed, op
//    ordinal) — the same profile replays the same schedule bit for bit.
//  - Transient faults (EINTR, short writes) are absorbed by the bounded
//    retry loop in io::FullWrite/FullRead and never surface to callers.
//  - A failed fsync POISONS the WAL: the batch is rejected, never retried,
//    and only a restart + Service::Recover exits the state (fsyncgate).
//  - ENOSPC flips the service into read-only degraded mode: mutations get
//    kDegradedReadOnly, predicts/evaluates still serve, and TryResume()
//    re-probes the volume and re-admits writes once space returns.
//  - Snapshot write failures are contained: the tmp file is unlinked, the
//    previous valid snapshot stays selectable, recovery never sees debris.
//  - Snapshot selection survives hostile directories: partial tmp files,
//    zero-byte snapshots, a corrupt newest with a valid older one.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/io_env.h"
#include "common/io_util.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/wal.h"
#include "testing/fault_env.h"
#include "testing/replay.h"

// gtest-flavored sibling of FM_ASSIGN_OR_RETURN: unwrap a Result or fail
// the test with the status.
#define FM_ASSERT_OK_AND_ASSIGN(lhs, rexpr)                             \
  auto FM_ASSIGN_OR_RETURN_NAME(assert_ok_, __LINE__) = (rexpr);        \
  ASSERT_TRUE(FM_ASSIGN_OR_RETURN_NAME(assert_ok_, __LINE__).ok())      \
      << FM_ASSIGN_OR_RETURN_NAME(assert_ok_, __LINE__)                 \
             .status()                                                  \
             .ToString();                                               \
  lhs = std::move(FM_ASSIGN_OR_RETURN_NAME(assert_ok_, __LINE__))       \
            .ValueOrDie()

namespace fm {
namespace {

// A fresh per-test scratch directory under the gtest temp root.
std::string TestDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("fm_fault_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

serve::ServiceOptions MakeOptions(exec::ThreadPool* pool) {
  serve::ServiceOptions options;
  options.dim = 4;
  options.task = data::TaskKind::kLinear;
  options.total_epsilon = 4.0;
  options.seed = 0xD07AB1E5;
  options.pool = pool;
  return options;
}

linalg::Vector SomeX(uint64_t salt) {
  Rng rng(Rng::Fork(0xFA0C7, salt));
  linalg::Vector x(4);
  for (size_t j = 0; j < 4; ++j) x[j] = rng.Uniform(-0.4, 0.4);
  return x;
}

// Seeds a durable service with a few tuples and a published model so that
// predicts/evaluates have something to serve in degraded mode.
void SeedService(serve::Service& service) {
  std::vector<serve::Request> warmup;
  for (uint64_t i = 0; i < 12; ++i) {
    warmup.push_back(serve::Request::Insert(SomeX(i), 0.1));
  }
  warmup.push_back(
      serve::Request::Train(serve::TrainerKind::kTruncated, 0.0));
  for (const serve::Response& response : service.ExecuteLog(warmup)) {
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  }
}

std::string StateBytes(const serve::Service& service) {
  return serve::EncodeSnapshot(service.objective(), service.accountant(),
                               service.registry(), service.log_position(),
                               service.compaction_count());
}

// ---------------------------------------------------------------------------
// FaultInjectingEnv
// ---------------------------------------------------------------------------

// Runs a fixed op sequence through an env and returns the status codes.
std::vector<StatusCode> RunOpSequence(io::Env& env, const std::string& dir) {
  std::vector<StatusCode> codes;
  for (int i = 0; i < 20; ++i) {
    const std::string path = dir + "/f" + std::to_string(i);
    Result<std::unique_ptr<io::File>> file =
        env.Open(path, io::OpenMode::kTruncateWrite);
    codes.push_back(file.status().code());
    if (!file.ok()) continue;
    const std::string data(64, 'x');
    const Result<size_t> wrote =
        file.ValueOrDie()->Write(data.data(), data.size());
    codes.push_back(wrote.status().code());
    codes.push_back(file.ValueOrDie()->Sync().code());
    codes.push_back(env.RenameFile(path, path + ".r").code());
  }
  return codes;
}

TEST(FaultEnvTest, SameSeedSameSchedule) {
  io::FaultProfile profile;
  profile.seed = 42;
  profile.write_error = 0.1;
  profile.write_enospc = 0.1;
  profile.write_eintr = 0.2;
  profile.write_short = 0.2;
  profile.sync_error = 0.1;
  profile.open_error = 0.1;
  profile.rename_error = 0.1;

  const std::string dir_a = TestDir("det_a");
  const std::string dir_b = TestDir("det_b");
  io::FaultInjectingEnv env_a(io::Env::Default(), profile);
  io::FaultInjectingEnv env_b(io::Env::Default(), profile);
  env_a.set_armed(true);
  env_b.set_armed(true);
  EXPECT_EQ(RunOpSequence(env_a, dir_a), RunOpSequence(env_b, dir_b));
  EXPECT_EQ(env_a.counts().total, env_b.counts().total);
  EXPECT_GT(env_a.counts().total, 0u) << "profile injected nothing";
}

TEST(FaultEnvTest, DisarmedPassesEverythingThrough) {
  io::FaultProfile profile;
  profile.seed = 7;
  profile.write_error = 1.0;
  profile.sync_error = 1.0;
  profile.open_error = 1.0;
  const std::string dir = TestDir("disarmed");
  io::FaultInjectingEnv env(io::Env::Default(), profile);
  const Status written =
      io::WriteFileAtomic(env, dir + "/ok.txt", "hello", /*sync=*/true);
  EXPECT_TRUE(written.ok()) << written.ToString();
  EXPECT_EQ(env.counts().total, 0u);
}

TEST(FaultEnvTest, TransientFaultsAreRetriedToSuccess) {
  io::FaultProfile profile;
  profile.seed = 11;
  profile.write_eintr = 1.0;  // capped by max_consecutive_transients
  profile.write_short = 0.0;
  const std::string dir = TestDir("transient");
  io::FaultInjectingEnv env(io::Env::Default(), profile);
  env.set_armed(true);

  FM_ASSERT_OK_AND_ASSIGN(std::unique_ptr<io::File> file,
                          env.Open(dir + "/t.bin", io::OpenMode::kAppend));
  const std::string data(1024, 'z');
  io::RetryStats stats;
  const Status written = io::FullWrite(*file, data.data(), data.size(),
                                       &stats);
  ASSERT_TRUE(written.ok()) << written.ToString();
  EXPECT_GT(stats.transient_retries, 0u);
  ASSERT_TRUE(file->Close().ok());
  env.set_armed(false);
  FM_ASSERT_OK_AND_ASSIGN(const std::string back,
                          io::ReadFileToString(env, dir + "/t.bin"));
  EXPECT_EQ(back, data);
}

TEST(FaultEnvTest, ShortWritesMakeProgressAndComplete) {
  io::FaultProfile profile;
  profile.seed = 13;
  profile.write_short = 1.0;  // every armed write is short; progress anyway
  const std::string dir = TestDir("short");
  io::FaultInjectingEnv env(io::Env::Default(), profile);
  env.set_armed(true);

  FM_ASSERT_OK_AND_ASSIGN(std::unique_ptr<io::File> file,
                          env.Open(dir + "/s.bin", io::OpenMode::kAppend));
  std::string data;
  for (int i = 0; i < 512; ++i) data.push_back(static_cast<char>(i % 251));
  io::RetryStats stats;
  ASSERT_TRUE(io::FullWrite(*file, data.data(), data.size(), &stats).ok());
  EXPECT_GT(stats.short_writes, 0u);
  ASSERT_TRUE(file->Close().ok());
  env.set_armed(false);
  FM_ASSERT_OK_AND_ASSIGN(const std::string back,
                          io::ReadFileToString(env, dir + "/s.bin"));
  EXPECT_EQ(back, data);
}

// ---------------------------------------------------------------------------
// WriteFileAtomic hygiene under faults
// ---------------------------------------------------------------------------

TEST(FaultEnvTest, WriteFileAtomicNeverLeavesTmpOrPartialContent) {
  const std::string dir = TestDir("atomic");
  const std::string path = dir + "/target.bin";
  const std::string old_content = "old-content";
  const std::string new_content = "the-new-content-that-replaces-it";

  size_t failures = 0;
  for (uint64_t seed = 0; seed < 24; ++seed) {
    ASSERT_TRUE(
        io::WriteFileAtomic(io::Env::Default(), path, old_content, false)
            .ok());
    io::FaultProfile profile;
    profile.seed = seed;
    profile.write_error = 0.25;
    profile.write_enospc = 0.2;
    profile.write_eintr = 0.3;
    profile.write_short = 0.3;
    profile.sync_error = 0.25;
    profile.open_error = 0.2;
    profile.rename_error = 0.25;
    io::FaultInjectingEnv env(io::Env::Default(), profile);
    env.set_armed(true);
    const Status written =
        io::WriteFileAtomic(env, path, new_content, /*sync=*/true);
    env.set_armed(false);
    if (!written.ok()) ++failures;

    // Atomicity: the target is always one of the two full contents, and no
    // tmp debris survives any failure path.
    FM_ASSERT_OK_AND_ASSIGN(const std::string content,
                            io::ReadFileToString(io::Env::Default(), path));
    EXPECT_TRUE(content == old_content || content == new_content)
        << "seed " << seed << ": torn content of size " << content.size();
    if (written.ok()) {
      EXPECT_EQ(content, new_content) << "seed " << seed;
    }
    FM_ASSERT_OK_AND_ASSIGN(const std::vector<std::string> names,
                            io::Env::Default().ListDirectory(dir));
    for (const std::string& name : names) {
      EXPECT_EQ(name.find(".tmp"), std::string::npos)
          << "seed " << seed << " stranded " << name;
    }
  }
  EXPECT_GT(failures, 0u) << "no profile ever failed the write";
}

// ---------------------------------------------------------------------------
// WAL: fsync poisoning and ENOSPC classification
// ---------------------------------------------------------------------------

TEST(FaultWalTest, FsyncFailurePoisonsAndNeverRetries) {
  const std::string dir = TestDir("wal_fsync");
  io::FaultProfile profile;
  profile.seed = 3;
  profile.sync_error = 1.0;
  io::FaultInjectingEnv env(io::Env::Default(), profile);

  serve::WalOptions options;
  options.path = dir + "/w.fmwal";
  options.sync = serve::WalSyncMode::kAlways;
  options.env = &env;
  FM_ASSERT_OK_AND_ASSIGN(std::unique_ptr<serve::Wal> wal,
                          serve::Wal::Open(options, /*fingerprint=*/99));

  // First batch lands while the env is disarmed — it is acknowledged.
  wal->Append(0, serve::Request::Insert(SomeX(0), 0.5));
  ASSERT_TRUE(wal->Commit().ok());
  const uint64_t acknowledged_bytes = wal->file_bytes();

  // Second batch hits the injected fsync failure: rejected, poisoned.
  env.set_armed(true);
  wal->Append(1, serve::Request::Insert(SomeX(1), 0.5));
  const Status failed = wal->Commit();
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_TRUE(wal->poisoned());
  EXPECT_EQ(wal->file_bytes(), acknowledged_bytes);

  // Poisoned: every further commit/sync/probe short-circuits without IO.
  const uint64_t ops_when_poisoned = env.counts().ops;
  wal->Append(2, serve::Request::Insert(SomeX(2), 0.5));
  EXPECT_EQ(wal->Commit().code(), StatusCode::kIoError);
  EXPECT_EQ(wal->Sync().code(), StatusCode::kIoError);
  EXPECT_EQ(wal->ProbeWritable().code(), StatusCode::kIoError);
  EXPECT_EQ(env.counts().ops, ops_when_poisoned)
      << "a poisoned WAL must not touch the file";

  // Only the acknowledged record is on disk (the rejected batch was rolled
  // back), and it replays cleanly.
  env.set_armed(false);
  FM_ASSERT_OK_AND_ASSIGN(const serve::WalReplay replay,
                          serve::Wal::ReadAll(options.path, 99));
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].position, 0u);
  EXPECT_FALSE(replay.torn_tail);
}

TEST(FaultWalTest, EnospcIsResumableNotPoison) {
  const std::string dir = TestDir("wal_enospc");
  io::FaultProfile profile;
  profile.seed = 5;
  profile.write_enospc = 1.0;
  io::FaultInjectingEnv env(io::Env::Default(), profile);

  serve::WalOptions options;
  options.path = dir + "/w.fmwal";
  options.sync = serve::WalSyncMode::kAlways;
  options.env = &env;
  FM_ASSERT_OK_AND_ASSIGN(std::unique_ptr<serve::Wal> wal,
                          serve::Wal::Open(options, 99));

  env.set_armed(true);
  wal->Append(0, serve::Request::Insert(SomeX(0), 0.5));
  const Status failed = wal->Commit();
  EXPECT_EQ(failed.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(wal->poisoned());
  EXPECT_EQ(wal->ProbeWritable().code(), StatusCode::kResourceExhausted);

  // "Space returns" (disarm): the probe succeeds and writes are re-admitted.
  env.set_armed(false);
  EXPECT_TRUE(wal->ProbeWritable().ok());
  wal->Append(0, serve::Request::Insert(SomeX(0), 0.5));
  EXPECT_TRUE(wal->Commit().ok());
  FM_ASSERT_OK_AND_ASSIGN(const serve::WalReplay replay,
                          serve::Wal::ReadAll(options.path, 99));
  ASSERT_EQ(replay.records.size(), 1u);
}

// ---------------------------------------------------------------------------
// Service: degraded read-only mode, TryResume, poisoned recovery
// ---------------------------------------------------------------------------

TEST(FaultServiceTest, EnospcDegradesToReadOnlyAndResumes) {
  const std::string dir = TestDir("svc_enospc");
  exec::ThreadPool pool(2);
  const serve::ServiceOptions options = MakeOptions(&pool);

  io::FaultProfile profile;
  profile.seed = 17;
  profile.write_enospc = 1.0;
  io::FaultInjectingEnv env(io::Env::Default(), profile);

  serve::DurabilityOptions durability;
  durability.wal.path = dir + "/svc.fmwal";
  durability.wal.sync = serve::WalSyncMode::kAlways;
  durability.wal.env = &env;
  durability.snapshot_dir = dir + "/snapshots";

  FM_ASSERT_OK_AND_ASSIGN(std::unique_ptr<serve::Service> service,
                          serve::Service::Create(options));
  ASSERT_TRUE(service->EnableDurability(durability).ok());
  SeedService(*service);
  const uint64_t position_before = service->log_position();

  // The volume "fills up": the commit fails with kResourceExhausted, the
  // batch consumes no log position, and the mode flips to degraded.
  env.set_armed(true);
  std::vector<serve::Response> responses =
      service->ExecuteLog({serve::Request::Insert(SomeX(100), 0.5)});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service->serving_mode(), serve::ServingMode::kDegradedReadOnly);
  EXPECT_EQ(service->log_position(), position_before);

  // Degraded: mutations are rejected with the typed code, reads still serve.
  responses = service->ExecuteLog({serve::Request::Insert(SomeX(101), 0.5),
                                   serve::Request::Predict(SomeX(102)),
                                   serve::Request::Evaluate()});
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].status.code(), StatusCode::kDegradedReadOnly);
  EXPECT_TRUE(responses[1].status.ok()) << responses[1].status.ToString();
  EXPECT_TRUE(responses[2].status.ok()) << responses[2].status.ToString();
  EXPECT_EQ(service->log_position(), position_before)
      << "degraded requests must not consume log positions";
  EXPECT_GT(service->degraded_rejections(), 0u);

  // Still out of space: the resume probe fails and the mode sticks.
  EXPECT_EQ(service->TryResume().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service->serving_mode(), serve::ServingMode::kDegradedReadOnly);

  // Space returns: TryResume re-probes, re-admits writes, and the service
  // picks up exactly where the acknowledged log left off.
  env.set_armed(false);
  EXPECT_TRUE(service->TryResume().ok());
  EXPECT_EQ(service->serving_mode(), serve::ServingMode::kNormal);
  responses = service->ExecuteLog({serve::Request::Insert(SomeX(103), 0.5)});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].status.ok()) << responses[0].status.ToString();
  EXPECT_EQ(service->log_position(), position_before + 1);

  // The rejected batches left no trace: recovery lands on the live state.
  const std::string live = StateBytes(*service);
  service.reset();
  FM_ASSERT_OK_AND_ASSIGN(service, serve::Service::Recover(options,
                                                           durability));
  EXPECT_EQ(StateBytes(*service), live);
}

TEST(FaultServiceTest, FsyncPoisonRequiresRestartAndRecoversAcknowledged) {
  const std::string dir = TestDir("svc_poison");
  exec::ThreadPool pool(2);
  const serve::ServiceOptions options = MakeOptions(&pool);

  io::FaultProfile profile;
  profile.seed = 23;
  profile.sync_error = 1.0;
  io::FaultInjectingEnv env(io::Env::Default(), profile);

  serve::DurabilityOptions durability;
  durability.wal.path = dir + "/svc.fmwal";
  durability.wal.sync = serve::WalSyncMode::kAlways;
  durability.wal.env = &env;
  durability.snapshot_dir = dir + "/snapshots";

  FM_ASSERT_OK_AND_ASSIGN(std::unique_ptr<serve::Service> service,
                          serve::Service::Create(options));
  ASSERT_TRUE(service->EnableDurability(durability).ok());
  SeedService(*service);
  const uint64_t position_before = service->log_position();

  env.set_armed(true);
  std::vector<serve::Response> responses =
      service->ExecuteLog({serve::Request::Insert(SomeX(200), 0.5)});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status.code(), StatusCode::kIoError);
  EXPECT_EQ(service->serving_mode(), serve::ServingMode::kPoisoned);

  // Poisoned is not resumable in-process — fsyncgate: the page cache may
  // have dropped the batch, so only re-reading the disk is trustworthy.
  EXPECT_EQ(service->TryResume().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service->serving_mode(), serve::ServingMode::kPoisoned);

  // Reads still serve while someone arranges the restart.
  responses = service->ExecuteLog({serve::Request::Predict(SomeX(201))});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].status.ok()) << responses[0].status.ToString();

  // Restart + Recover: every acknowledged response survives, the rejected
  // batch does not resurface, and the recovered service accepts writes.
  const std::string live = StateBytes(*service);
  service.reset();
  env.set_armed(false);
  FM_ASSERT_OK_AND_ASSIGN(service, serve::Service::Recover(options,
                                                           durability));
  EXPECT_EQ(StateBytes(*service), live);
  EXPECT_EQ(service->serving_mode(), serve::ServingMode::kNormal);
  EXPECT_EQ(service->log_position(), position_before);
  responses = service->ExecuteLog({serve::Request::Insert(SomeX(202), 0.5)});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].status.ok()) << responses[0].status.ToString();
}

// ---------------------------------------------------------------------------
// Snapshots: failure containment and hostile directories
// ---------------------------------------------------------------------------

// A minimal well-formed snapshot payload for `position` (the envelope
// requires the payload to open with the position and compaction counter).
std::string FakePayload(uint64_t position) {
  std::string payload;
  io::AppendU64(&payload, position);
  io::AppendU64(&payload, 0);
  payload += "components";
  return payload;
}

TEST(FaultSnapshotTest, FailedSnapshotWriteIsContained) {
  const std::string dir = TestDir("snap_contained");
  const uint64_t fingerprint = 77;
  ASSERT_TRUE(serve::WriteSnapshotFile(dir, 10, fingerprint, FakePayload(10),
                                       /*sync=*/false)
                  .ok());

  for (const char* kind : {"rename", "enospc", "open"}) {
    io::FaultProfile profile;
    profile.seed = 31;
    if (std::string(kind) == "rename") profile.rename_error = 1.0;
    if (std::string(kind) == "enospc") profile.write_enospc = 1.0;
    if (std::string(kind) == "open") profile.open_error = 1.0;
    io::FaultInjectingEnv env(io::Env::Default(), profile);
    env.set_armed(true);
    const Status written = serve::WriteSnapshotFile(
        dir, 20, fingerprint, FakePayload(20), /*sync=*/false, &env);
    EXPECT_FALSE(written.ok()) << kind;
    env.set_armed(false);

    // Containment: no tmp debris, and the previous snapshot still loads.
    FM_ASSERT_OK_AND_ASSIGN(const std::vector<std::string> names,
                            io::Env::Default().ListDirectory(dir));
    for (const std::string& name : names) {
      EXPECT_EQ(name.find(".tmp"), std::string::npos)
          << kind << " stranded " << name;
    }
    FM_ASSERT_OK_AND_ASSIGN(const serve::SnapshotContents latest,
                            serve::LoadLatestSnapshot(dir, fingerprint));
    EXPECT_EQ(latest.next_position, 10u) << kind;
  }
}

TEST(FaultSnapshotTest, SelectionSurvivesHostileDirectory) {
  const std::string dir = TestDir("snap_hostile");
  const uint64_t fingerprint = 88;

  // A valid older snapshot, then a newer one we corrupt in place.
  ASSERT_TRUE(serve::WriteSnapshotFile(dir, 5, fingerprint, FakePayload(5),
                                       false)
                  .ok());
  ASSERT_TRUE(serve::WriteSnapshotFile(dir, 9, fingerprint, FakePayload(9),
                                       false)
                  .ok());
  const std::string newest =
      dir + "/" + serve::SnapshotFileName(9);
  {
    std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(-3, std::ios::end);
    f.put('?');  // flip a payload byte: the CRC must reject it
  }
  // A zero-byte snapshot that sorts newest of all, and a partial tmp file.
  ASSERT_TRUE(io::WriteFileAtomic(io::Env::Default(),
                                  dir + "/" + serve::SnapshotFileName(12), "",
                                  false)
                  .ok());
  ASSERT_TRUE(io::WriteFileAtomic(
                  io::Env::Default(),
                  dir + "/" + serve::SnapshotFileName(99) + ".tmp",
                  "partial-checkpoint-debris", false)
                  .ok());

  // Selection skips the zero-byte file and the corrupt newest, lands on 5,
  // and never considers the tmp.
  FM_ASSERT_OK_AND_ASSIGN(const serve::SnapshotContents latest,
                          serve::LoadLatestSnapshot(dir, fingerprint));
  EXPECT_EQ(latest.next_position, 5u);

  // The pruner is the tmp janitor; valid snapshots within `keep` survive.
  ASSERT_TRUE(serve::PruneSnapshots(dir, 8).ok());
  FM_ASSERT_OK_AND_ASSIGN(const std::vector<std::string> names,
                          io::Env::Default().ListDirectory(dir));
  for (const std::string& name : names) {
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << "stranded " << name;
  }
  FM_ASSERT_OK_AND_ASSIGN(const serve::SnapshotContents still,
                          serve::LoadLatestSnapshot(dir, fingerprint));
  EXPECT_EQ(still.next_position, 5u);
}

// ---------------------------------------------------------------------------
// The fault differential itself (the fuzz harness's core, in miniature)
// ---------------------------------------------------------------------------

TEST(FaultDifferentialTest, ResponsesAndRecoveryAgreeAcrossKnobs) {
  const std::string dir = TestDir("differential");
  serve::WorkloadOptions workload;
  workload.dim = 5;
  workload.requests = 60;
  const uint64_t seed = 4;  // dim rotation puts faults on a mixed log
  const serve::ServiceOptions options =
      serve::WorkloadServiceOptions(workload, seed);
  const std::vector<serve::Request> log =
      serve::GenerateWorkload(workload, seed);

  // Sweep a few fault seeds so at least one injects something.
  uint64_t injected = 0;
  for (uint64_t fault_seed = 1; fault_seed <= 4; ++fault_seed) {
    FM_ASSERT_OK_AND_ASSIGN(
        const serve::FaultDivergence divergence,
        serve::RunFaultDifferential(options, log, fault_seed, dir));
    EXPECT_FALSE(divergence.failed)
        << "fault_seed " << fault_seed << ": " << divergence.what << " ["
        << divergence.knob_name << "]";
    injected += divergence.injected_faults;
  }
  EXPECT_GT(injected, 0u) << "the sweep injected nothing";
}

}  // namespace
}  // namespace fm
