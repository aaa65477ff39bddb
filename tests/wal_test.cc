// Durability for the serving layer (docs/SERVING.md, "Durability"):
//  - common/io_util.h primitives: CRC-32, byte encode/decode round trips,
//    atomic file writes.
//  - serve::Wal append/commit/scan round trips, torn-tail detection and
//    truncation, fingerprint binding, and the sync-policy counters.
//  - serve::snapshot encode/decode is bitwise (store, ledger, registry) and
//    LoadLatestSnapshot skips corrupt files instead of failing recovery.
//  - The tentpole proof: a crash-injection harness that executes a mixed
//    request log against a durable service, kills it by truncating the WAL
//    at a randomized byte (mid-group-commit, torn final record, anywhere),
//    recovers with Service::Recover, replays the rest of the log, and
//    demands the recovered run be BYTE-IDENTICAL to an uninterrupted
//    reference — every response field, the store (StoreStateBitwiseEquals),
//    the budget ledger, and the published model coefficients — across
//    FM_THREADS 1/8. Because the serving state is a pure function of the
//    request log, recovery = snapshot + replay is provable, not just
//    plausible.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/io_util.h"
#include "common/rng.h"
#include "common/ulp.h"
#include "data/dataset.h"
#include "exec/thread_pool.h"
#include "serve/budget_accountant.h"
#include "serve/incremental_objective.h"
#include "serve/model_registry.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/wal.h"

namespace fm {
namespace {

// A fresh per-test scratch directory under the gtest temp root.
std::string TestDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("fm_wal_" + name);
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
  // A low compaction floor so the mixed log triggers auto-compactions —
  // recovery must land on the same compaction schedule.
  options.compaction_min_dead = 12;
  options.compaction_dead_ratio = 0.5;
  return options;
}

// Deterministic mixed request log: inserts, deletes (including doomed
// deletes of already-dead ids — failed requests consume log positions and
// must replay to the same error), updates, predicts, evaluates, explicit
// compactions, private and non-private trains, and over-budget trains the
// ledger must reject identically on replay.
std::vector<serve::Request> BuildMixedLog(size_t dim, size_t ops,
                                          uint64_t seed) {
  Rng rng(seed);
  const double scale = 0.9 / std::sqrt(static_cast<double>(dim));
  auto random_x = [&] {
    linalg::Vector x(dim);
    for (size_t j = 0; j < dim; ++j) x[j] = rng.Uniform(-scale, scale);
    return x;
  };
  std::vector<serve::Request> log;
  std::vector<serve::TupleId> live;
  std::vector<serve::TupleId> dead;
  uint64_t next_id = 0;
  for (size_t i = 0; i < 16; ++i) {
    log.push_back(serve::Request::Insert(random_x(), rng.Uniform(-1.0, 1.0)));
    live.push_back(next_id++);
  }
  size_t fm_trains = 0;
  while (log.size() < ops) {
    const double p = rng.Uniform();
    if (p < 0.34 || live.size() < 8) {
      log.push_back(
          serve::Request::Insert(random_x(), rng.Uniform(-1.0, 1.0)));
      live.push_back(next_id++);
    } else if (p < 0.52) {
      const size_t v = static_cast<size_t>(rng.UniformInt(live.size()));
      log.push_back(serve::Request::Delete(live[v]));
      dead.push_back(live[v]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(v));
    } else if (p < 0.60) {
      const size_t v = static_cast<size_t>(rng.UniformInt(live.size()));
      log.push_back(serve::Request::Update(live[v], random_x(),
                                           rng.Uniform(-1.0, 1.0)));
    } else if (p < 0.74) {
      log.push_back(serve::Request::Predict(random_x()));
    } else if (p < 0.82) {
      log.push_back(serve::Request::Evaluate());
    } else if (p < 0.86 && !dead.empty()) {
      log.push_back(serve::Request::Delete(
          dead[static_cast<size_t>(rng.UniformInt(dead.size()))]));
    } else if (p < 0.90) {
      log.push_back(serve::Request::Compact());
    } else if (p < 0.93 && fm_trains < 4) {
      log.push_back(serve::Request::Train(
          serve::TrainerKind::kFunctionalMechanism, 0.4));
      ++fm_trains;
    } else if (p < 0.95) {
      log.push_back(serve::Request::Train(
          serve::TrainerKind::kFunctionalMechanism, 100.0));
    } else {
      log.push_back(
          serve::Request::Train(serve::TrainerKind::kTruncated, 0.0));
    }
  }
  return log;
}

void ExpectResponseEqual(const serve::Response& got,
                         const serve::Response& want, size_t position) {
  EXPECT_EQ(got.status.code(), want.status.code()) << "position " << position;
  EXPECT_EQ(got.id, want.id) << "position " << position;
  EXPECT_EQ(UlpDistance(got.value, want.value), 0u) << "position " << position;
  EXPECT_EQ(got.model_version, want.model_version) << "position " << position;
  EXPECT_EQ(UlpDistance(got.epsilon_spent, want.epsilon_spent), 0u)
      << "position " << position;
}

// The full bitwise state comparison the acceptance criterion names: store,
// counters, ledger balances and charge history, and the latest published
// model's coefficients.
void ExpectServicesBitwiseEqual(const serve::Service& got,
                                const serve::Service& want) {
  EXPECT_EQ(got.log_position(), want.log_position());
  EXPECT_EQ(got.compaction_count(), want.compaction_count());
  EXPECT_TRUE(got.objective().StoreStateBitwiseEquals(want.objective()));
  EXPECT_EQ(UlpDistance(got.accountant().spent_epsilon(),
                        want.accountant().spent_epsilon()),
            0u);
  const auto got_charges = got.accountant().charges();
  const auto want_charges = want.accountant().charges();
  ASSERT_EQ(got_charges.size(), want_charges.size());
  for (size_t i = 0; i < got_charges.size(); ++i) {
    EXPECT_EQ(UlpDistance(got_charges[i].epsilon, want_charges[i].epsilon),
              0u);
    EXPECT_EQ(got_charges[i].label, want_charges[i].label);
  }
  EXPECT_EQ(got.registry().latest_version(),
            want.registry().latest_version());
  const auto got_model = got.registry().Latest();
  const auto want_model = want.registry().Latest();
  ASSERT_EQ(got_model == nullptr, want_model == nullptr);
  if (got_model != nullptr) {
    EXPECT_EQ(got_model->version, want_model->version);
    EXPECT_EQ(got_model->algorithm, want_model->algorithm);
    ASSERT_EQ(got_model->omega.size(), want_model->omega.size());
    for (size_t j = 0; j < got_model->omega.size(); ++j) {
      EXPECT_EQ(UlpDistance(got_model->omega[j], want_model->omega[j]), 0u);
    }
    EXPECT_EQ(
        UlpDistance(got_model->epsilon_spent, want_model->epsilon_spent), 0u);
    EXPECT_EQ(got_model->is_private, want_model->is_private);
    EXPECT_EQ(got_model->log_position, want_model->log_position);
    EXPECT_EQ(got_model->trained_on, want_model->trained_on);
  }
}

serve::DurabilityOptions MakeDurability(const std::string& dir) {
  serve::DurabilityOptions durability;
  durability.wal.path = dir + "/requests.fmwal";
  // fsync-free mode: write(2) still happens on every commit, so truncating
  // the file models exactly what a crash leaves — a prefix.
  durability.wal.sync = serve::WalSyncMode::kNone;
  durability.snapshot_dir = dir + "/snapshots";
  durability.snapshot_keep = 3;
  return durability;
}

// --------------------------------------------------------------------------
// io_util
// --------------------------------------------------------------------------

TEST(IoUtil, Crc32MatchesKnownVectors) {
  // The standard zlib check value.
  EXPECT_EQ(io::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(io::Crc32("", 0), 0u);
  EXPECT_EQ(io::Crc32(std::string("123456789")), 0xCBF43926u);
}

TEST(IoUtil, ByteEncodingRoundTrips) {
  std::string buf;
  io::AppendU8(&buf, 0xAB);
  io::AppendU32(&buf, 0xDEADBEEFu);
  io::AppendU64(&buf, 0x0123456789ABCDEFull);
  io::AppendDouble(&buf, -0.0);
  io::AppendDouble(&buf, std::nan("0x5"));
  io::AppendLengthPrefixed(&buf, "hello");
  const std::vector<double> xs = {1.0, -2.5, 1e-300};
  io::AppendDoubleArray(&buf, xs.data(), xs.size());

  io::ByteReader reader(buf);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double neg_zero = 1.0;
  double nan_payload = 0.0;
  std::string str;
  std::vector<double> back;
  ASSERT_TRUE(reader.ReadU8(&u8).ok());
  ASSERT_TRUE(reader.ReadU32(&u32).ok());
  ASSERT_TRUE(reader.ReadU64(&u64).ok());
  ASSERT_TRUE(reader.ReadDouble(&neg_zero).ok());
  ASSERT_TRUE(reader.ReadDouble(&nan_payload).ok());
  ASSERT_TRUE(reader.ReadLengthPrefixed(&str).ok());
  ASSERT_TRUE(reader.ReadDoubleArray(&back, xs.size()).ok());
  EXPECT_TRUE(reader.empty());

  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  // Doubles round-trip by bits: −0.0 stays −0.0, the NaN keeps its payload.
  EXPECT_EQ(UlpDistance(neg_zero, -0.0), 0u);
  EXPECT_TRUE(std::signbit(neg_zero));
  uint64_t got_bits = 0;
  uint64_t want_bits = 0;
  const double want_nan = std::nan("0x5");
  std::memcpy(&got_bits, &nan_payload, sizeof(got_bits));
  std::memcpy(&want_bits, &want_nan, sizeof(want_bits));
  EXPECT_EQ(got_bits, want_bits);
  EXPECT_EQ(str, "hello");
  ASSERT_EQ(back.size(), xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(UlpDistance(back[i], xs[i]), 0u);
  }

  // Underruns fail instead of reading garbage.
  io::ByteReader short_reader(buf.data(), 2);
  EXPECT_EQ(short_reader.ReadU32(&u32).code(), StatusCode::kIoError);
}

TEST(IoUtil, AtomicWriteReadsBackAndMissingFileIsNotFound) {
  const std::string dir = TestDir("io_atomic");
  const std::string path = dir + "/file.bin";
  const std::string contents("with\0nul", 8);
  ASSERT_TRUE(io::WriteFileAtomic(path, contents, /*sync=*/false).ok());
  auto read = io::ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.ValueOrDie(), contents);
  EXPECT_EQ(io::FileSize(path).ValueOrDie(), contents.size());
  EXPECT_EQ(io::ReadFileToString(dir + "/missing").status().code(),
            StatusCode::kNotFound);
}

// --------------------------------------------------------------------------
// Wal
// --------------------------------------------------------------------------

std::vector<serve::Request> AllKindsRequests() {
  linalg::Vector x(3);
  x[0] = 0.25;
  x[1] = -0.0;
  x[2] = 1e-300;
  std::vector<serve::Request> requests;
  requests.push_back(serve::Request::Insert(x, -0.75));
  requests.push_back(serve::Request::Delete(42));
  requests.push_back(serve::Request::Update(7, x, 0.5));
  requests.push_back(
      serve::Request::Train(serve::TrainerKind::kFunctionalMechanism, 0.8));
  requests.push_back(
      serve::Request::Train(serve::TrainerKind::kNoPrivacy, 0.0));
  requests.push_back(serve::Request::Predict(x));
  requests.push_back(serve::Request::Evaluate());
  requests.push_back(serve::Request::Compact());
  return requests;
}

void ExpectRequestEqual(const serve::Request& got,
                        const serve::Request& want) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.trainer, want.trainer);
  EXPECT_EQ(UlpDistance(got.y, want.y), 0u);
  EXPECT_EQ(UlpDistance(got.epsilon, want.epsilon), 0u);
  ASSERT_EQ(got.x.size(), want.x.size());
  for (size_t j = 0; j < got.x.size(); ++j) {
    EXPECT_EQ(UlpDistance(got.x[j], want.x[j]), 0u);
  }
}

TEST(Wal, AppendCommitReadAllRoundTripsEveryKind) {
  const std::string dir = TestDir("wal_roundtrip");
  serve::WalOptions wopts;
  wopts.path = dir + "/w.fmwal";
  wopts.sync = serve::WalSyncMode::kNone;
  const uint64_t fp = 0xFEEDFACE;
  const auto requests = AllKindsRequests();
  {
    auto wal = serve::Wal::Open(wopts, fp).ValueOrDie();
    for (size_t i = 0; i < requests.size(); ++i) {
      wal->Append(i, requests[i]);
    }
    ASSERT_TRUE(wal->Commit().ok());
    EXPECT_EQ(wal->appended_records(), requests.size());
    EXPECT_EQ(wal->commit_batches(), 1u);
  }
  auto replay = serve::Wal::ReadAll(wopts.path, fp).ValueOrDie();
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(replay.records[i].position, i);
    ExpectRequestEqual(replay.records[i].request, requests[i]);
  }
  EXPECT_EQ(replay.valid_bytes, io::FileSize(wopts.path).ValueOrDie());

  // Reopen appends after the existing records.
  {
    auto wal = serve::Wal::Open(wopts, fp).ValueOrDie();
    wal->Append(requests.size(), requests[0]);
    ASSERT_TRUE(wal->Commit().ok());
  }
  replay = serve::Wal::ReadAll(wopts.path, fp).ValueOrDie();
  ASSERT_EQ(replay.records.size(), requests.size() + 1);
  EXPECT_EQ(replay.records.back().position, requests.size());
}

TEST(Wal, TornTailIsDetectedAndTruncatedOnOpen) {
  const std::string dir = TestDir("wal_torn");
  serve::WalOptions wopts;
  wopts.path = dir + "/w.fmwal";
  wopts.sync = serve::WalSyncMode::kNone;
  const uint64_t fp = 0xFEEDFACE;
  const auto requests = AllKindsRequests();
  {
    auto wal = serve::Wal::Open(wopts, fp).ValueOrDie();
    for (size_t i = 0; i < requests.size(); ++i) wal->Append(i, requests[i]);
    ASSERT_TRUE(wal->Commit().ok());
  }
  const uint64_t full = io::FileSize(wopts.path).ValueOrDie();

  // A crash mid-write leaves a torn final record: chop three bytes.
  ASSERT_TRUE(io::TruncateFile(wopts.path, full - 3).ok());
  auto replay = serve::Wal::ReadAll(wopts.path, fp).ValueOrDie();
  EXPECT_TRUE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), requests.size() - 1);
  EXPECT_LT(replay.valid_bytes, full - 3);

  // Garbage past the boundary is equally torn.
  {
    std::ofstream out(wopts.path, std::ios::binary | std::ios::app);
    out << "garbage";
  }
  auto replay2 = serve::Wal::ReadAll(wopts.path, fp).ValueOrDie();
  EXPECT_TRUE(replay2.torn_tail);
  EXPECT_EQ(replay2.records.size(), replay.records.size());
  EXPECT_EQ(replay2.valid_bytes, replay.valid_bytes);

  // Open truncates back to the record boundary; a fresh scan is clean.
  { auto wal = serve::Wal::Open(wopts, fp).ValueOrDie(); }
  EXPECT_EQ(io::FileSize(wopts.path).ValueOrDie(), replay.valid_bytes);
  auto replay3 = serve::Wal::ReadAll(wopts.path, fp).ValueOrDie();
  EXPECT_FALSE(replay3.torn_tail);
  EXPECT_EQ(replay3.records.size(), requests.size() - 1);
}

TEST(Wal, FingerprintMismatchIsRejected) {
  const std::string dir = TestDir("wal_fp");
  serve::WalOptions wopts;
  wopts.path = dir + "/w.fmwal";
  wopts.sync = serve::WalSyncMode::kNone;
  { auto wal = serve::Wal::Open(wopts, 1).ValueOrDie(); }
  EXPECT_FALSE(serve::Wal::ReadAll(wopts.path, 2).ok());
  EXPECT_FALSE(serve::Wal::Open(wopts, 2).ok());
}

TEST(Wal, SyncPolicyCounters) {
  const std::string dir = TestDir("wal_sync");
  const auto request = serve::Request::Evaluate();
  auto run = [&](serve::WalSyncMode mode, size_t batch_max_records) {
    serve::WalOptions wopts;
    wopts.path =
        dir + "/" + std::string(serve::WalSyncModeToString(mode)) + ".fmwal";
    wopts.sync = mode;
    wopts.batch_max_records = batch_max_records;
    auto wal = serve::Wal::Open(wopts, 9).ValueOrDie();
    for (uint64_t i = 0; i < 3; ++i) {
      wal->Append(i, request);
      EXPECT_TRUE(wal->Commit().ok());
    }
    EXPECT_EQ(wal->commit_batches(), 3u);
    return wal->sync_count();
  };
  EXPECT_EQ(run(serve::WalSyncMode::kNone, 256), 0u);
  EXPECT_EQ(run(serve::WalSyncMode::kAlways, 256), 3u);
  // Group commit with a one-record budget degenerates to sync-per-commit.
  EXPECT_EQ(run(serve::WalSyncMode::kBatch, 1), 3u);
}

TEST(Wal, OptionsFingerprintCoversSemanticFieldsOnly) {
  const serve::ServiceOptions base = MakeOptions(nullptr);
  const uint64_t fp = serve::OptionsFingerprint(base);

  serve::ServiceOptions changed = base;
  changed.seed ^= 1;
  EXPECT_NE(serve::OptionsFingerprint(changed), fp);
  changed = base;
  changed.dim += 1;
  EXPECT_NE(serve::OptionsFingerprint(changed), fp);
  changed = base;
  changed.total_epsilon *= 2;
  EXPECT_NE(serve::OptionsFingerprint(changed), fp);
  changed = base;
  changed.compaction_min_dead += 1;
  EXPECT_NE(serve::OptionsFingerprint(changed), fp);

  // Execution-only knobs do not bind the durable state.
  exec::ThreadPool pool(2);
  changed = base;
  changed.pool = &pool;
  changed.max_model_history += 8;
  EXPECT_EQ(serve::OptionsFingerprint(changed), fp);
}

// --------------------------------------------------------------------------
// Snapshots
// --------------------------------------------------------------------------

bool DoublesBitwiseEqual(const double* a, const double* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

TEST(Snapshot, ComponentsRoundTripBitwise) {
  // Build non-trivial component state through a real service run. A short
  // model history makes eviction drop the oldest versions, so the restored
  // versions must come from the registry's next version, not from 1.
  auto options = MakeOptions(nullptr);
  options.max_model_history = 2;
  auto service = serve::Service::Create(options).ValueOrDie();
  const auto log = BuildMixedLog(options.dim, 90, 0xBEEF);
  service->ExecuteLog(log);
  ASSERT_EQ(service->registry().size(), 2u);
  ASSERT_GT(service->registry().latest_version(), 2u);
  ASSERT_GT(service->accountant().charges().size(), 0u);

  const std::string payload = serve::EncodeSnapshot(
      service->objective(), service->accountant(), service->registry(),
      service->log_position(), service->compaction_count());

  const std::string dir = TestDir("snap_roundtrip");
  const uint64_t fp = serve::OptionsFingerprint(options);
  ASSERT_TRUE(serve::WriteSnapshotFile(dir, service->log_position(), fp,
                                       payload, /*sync=*/false)
                  .ok());
  auto contents = serve::LoadLatestSnapshot(dir, fp).ValueOrDie();
  EXPECT_EQ(contents.next_position, service->log_position());
  EXPECT_EQ(contents.compaction_count, service->compaction_count());

  serve::IncrementalObjective objective(options.dim,
                                        core::ObjectiveKind::kLinear);
  auto accountant =
      serve::BudgetAccountant::Create(options.total_epsilon).ValueOrDie();
  serve::ModelRegistry registry(options.max_model_history);
  ASSERT_TRUE(serve::DecodeSnapshotComponents(contents.components, &objective,
                                              accountant.get(), &registry)
                  .ok());
  EXPECT_TRUE(objective.StoreStateBitwiseEquals(service->objective()));

  // Every ledger field and charge, bitwise.
  EXPECT_EQ(UlpDistance(accountant->spent_epsilon(),
                        service->accountant().spent_epsilon()),
            0u);
  const auto charges = accountant->charges();
  const auto original_charges = service->accountant().charges();
  ASSERT_EQ(charges.size(), original_charges.size());
  for (size_t i = 0; i < charges.size(); ++i) {
    EXPECT_TRUE(DoublesBitwiseEqual(&charges[i].epsilon,
                                    &original_charges[i].epsilon, 1))
        << "charge " << i;
    EXPECT_EQ(charges[i].label, original_charges[i].label) << "charge " << i;
  }

  // Every field of every retained model, including the derived version,
  // task and ω length.
  EXPECT_EQ(registry.latest_version(), service->registry().latest_version());
  ASSERT_EQ(registry.size(), service->registry().size());
  const uint64_t latest = service->registry().latest_version();
  for (uint64_t version = latest - registry.size() + 1; version <= latest;
       ++version) {
    SCOPED_TRACE("version " + std::to_string(version));
    const auto restored = registry.Get(version);
    const auto original = service->registry().Get(version);
    ASSERT_TRUE(restored.ok()) << restored.status();
    ASSERT_TRUE(original.ok()) << original.status();
    const serve::ModelSnapshot& got = *restored.ValueOrDie();
    const serve::ModelSnapshot& want = *original.ValueOrDie();
    EXPECT_EQ(got.version, want.version);
    EXPECT_EQ(got.algorithm, want.algorithm);
    EXPECT_EQ(got.task, want.task);
    ASSERT_EQ(got.omega.size(), want.omega.size());
    EXPECT_TRUE(DoublesBitwiseEqual(got.omega.raw(), want.omega.raw(),
                                    want.omega.size()));
    EXPECT_TRUE(
        DoublesBitwiseEqual(&got.epsilon_spent, &want.epsilon_spent, 1));
    EXPECT_EQ(got.is_private, want.is_private);
    EXPECT_EQ(got.log_position, want.log_position);
    EXPECT_EQ(got.trained_on, want.trained_on);
  }
}

TEST(Snapshot, LoadSkipsCorruptNewestAndPrunes) {
  const std::string dir = TestDir("snap_select");
  const uint64_t fp = 0x51;
  const std::string older = "older-payload";
  const std::string newer = "newer-payload";
  // Payloads must start with the two counters DecodeSnapshot reads.
  auto payload_for = [](uint64_t position, const std::string& rest) {
    std::string payload;
    io::AppendU64(&payload, position);
    io::AppendU64(&payload, /*compaction_count=*/0);
    payload += rest;
    return payload;
  };
  ASSERT_TRUE(
      serve::WriteSnapshotFile(dir, 5, fp, payload_for(5, older), false).ok());
  ASSERT_TRUE(
      serve::WriteSnapshotFile(dir, 10, fp, payload_for(10, newer), false)
          .ok());

  auto contents = serve::LoadLatestSnapshot(dir, fp).ValueOrDie();
  EXPECT_EQ(contents.next_position, 10u);
  EXPECT_EQ(contents.components, newer);

  // A newest file whose header claims format version 1 (which wrote fields
  // version 2 derives) is skipped like any other invalid snapshot, even
  // though its CRC holds.
  const std::string v1 = dir + "/" + serve::SnapshotFileName(15);
  ASSERT_TRUE(
      serve::WriteSnapshotFile(dir, 15, fp, payload_for(15, newer), false)
          .ok());
  std::string v1_bytes = io::ReadFileToString(v1).ValueOrDie();
  std::string version_field;
  io::AppendU32(&version_field, 1);
  v1_bytes.replace(8, version_field.size(), version_field);  // after magic
  ASSERT_TRUE(io::WriteFileAtomic(v1, v1_bytes, false).ok());
  contents = serve::LoadLatestSnapshot(dir, fp).ValueOrDie();
  EXPECT_EQ(contents.next_position, 10u);
  EXPECT_EQ(contents.components, newer);

  // Corrupt the newest valid file; recovery must fall back to the older one.
  const std::string newest = dir + "/" + serve::SnapshotFileName(10);
  auto bytes = io::ReadFileToString(newest).ValueOrDie();
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  ASSERT_TRUE(io::WriteFileAtomic(newest, bytes, false).ok());
  contents = serve::LoadLatestSnapshot(dir, fp).ValueOrDie();
  EXPECT_EQ(contents.next_position, 5u);
  EXPECT_EQ(contents.components, older);

  // Wrong fingerprint → nothing valid → kNotFound (fresh-service path).
  EXPECT_EQ(serve::LoadLatestSnapshot(dir, fp ^ 1).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(serve::LoadLatestSnapshot(dir + "/missing", fp).status().code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(serve::PruneSnapshots(dir, 1).ok());
  EXPECT_EQ(io::ListDirectory(dir).ValueOrDie().size(), 1u);
}

// --------------------------------------------------------------------------
// Service durability: enable, checkpoint, recover
// --------------------------------------------------------------------------

TEST(ServiceDurability, EnableDurabilityGuards) {
  const std::string dir = TestDir("enable_guards");
  auto options = MakeOptions(nullptr);

  // Empty WAL path is rejected.
  {
    auto service = serve::Service::Create(options).ValueOrDie();
    serve::DurabilityOptions empty;
    EXPECT_EQ(service->EnableDurability(empty).code(),
              StatusCode::kInvalidArgument);
  }
  // Bootstrapped state with no snapshot dir cannot be made durable: the
  // bootstrap never flowed through the log, so WAL-only replay would lose
  // it.
  {
    auto service = serve::Service::Create(options).ValueOrDie();
    data::RegressionDataset ds;
    ds.x = linalg::Matrix(2, options.dim);
    ds.y = linalg::Vector(2);
    ds.x(0, 0) = 0.5;
    ds.y[0] = 0.25;
    ds.x(1, 1) = -0.5;
    ds.y[1] = -0.25;
    ASSERT_TRUE(service->Bootstrap(ds).ok());
    serve::DurabilityOptions wal_only;
    wal_only.wal.path = dir + "/bootstrap.fmwal";
    wal_only.wal.sync = serve::WalSyncMode::kNone;
    EXPECT_EQ(service->EnableDurability(wal_only).code(),
              StatusCode::kInvalidArgument);
  }
  // Double-enable and pre-existing WAL files are rejected.
  {
    auto durability = MakeDurability(dir);
    auto service = serve::Service::Create(options).ValueOrDie();
    ASSERT_TRUE(service->EnableDurability(durability).ok());
    EXPECT_EQ(service->EnableDurability(durability).code(),
              StatusCode::kFailedPrecondition);
    auto second = serve::Service::Create(options).ValueOrDie();
    EXPECT_EQ(second->EnableDurability(durability).code(),
              StatusCode::kAlreadyExists);
  }
}

TEST(ServiceDurability, RecoverFromEmptyWalThenFullReplay) {
  const std::string dir = TestDir("recover_empty");
  auto options = MakeOptions(nullptr);
  const auto log = BuildMixedLog(options.dim, 80, 0xE0);

  auto reference = serve::Service::Create(options).ValueOrDie();
  const auto ref_responses = reference->ExecuteLog(log);

  serve::DurabilityOptions durability;
  durability.wal.path = dir + "/requests.fmwal";
  durability.wal.sync = serve::WalSyncMode::kNone;
  // WAL-only durability: no snapshot dir at all.
  {
    auto service = serve::Service::Create(options).ValueOrDie();
    ASSERT_TRUE(service->EnableDurability(durability).ok());
  }
  // Recover from a header-only WAL: an empty service.
  {
    auto recovered =
        serve::Service::Recover(options, durability).ValueOrDie();
    EXPECT_EQ(recovered->log_position(), 0u);
    EXPECT_EQ(recovered->objective().live_size(), 0u);
    const auto responses = recovered->ExecuteLog(log);
    ASSERT_EQ(responses.size(), ref_responses.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      ExpectResponseEqual(responses[i], ref_responses[i], i);
    }
  }
  // Recover again: the whole log replays from the WAL alone.
  auto recovered = serve::Service::Recover(options, durability).ValueOrDie();
  EXPECT_EQ(recovered->log_position(), log.size());
  ExpectServicesBitwiseEqual(*recovered, *reference);
}

TEST(ServiceDurability, RecoverFromSnapshotPlusTailAndSnapshotOnly) {
  const std::string dir = TestDir("recover_snapshot");
  auto options = MakeOptions(nullptr);
  const auto log = BuildMixedLog(options.dim, 100, 0x5A);

  auto reference = serve::Service::Create(options).ValueOrDie();
  reference->ExecuteLog(log);

  const auto durability = MakeDurability(dir);
  {
    auto service = serve::Service::Create(options).ValueOrDie();
    ASSERT_TRUE(service->EnableDurability(durability).ok());
    const std::vector<serve::Request> head(log.begin(), log.begin() + 60);
    const std::vector<serve::Request> tail(log.begin() + 60, log.end());
    service->ExecuteLog(head);
    ASSERT_TRUE(service->Checkpoint().ok());
    service->ExecuteLog(tail);
  }
  EXPECT_GE(io::ListDirectory(durability.snapshot_dir).ValueOrDie().size(),
            1u);
  {
    auto recovered =
        serve::Service::Recover(options, durability).ValueOrDie();
    EXPECT_EQ(recovered->log_position(), log.size());
    ExpectServicesBitwiseEqual(*recovered, *reference);
    ASSERT_TRUE(recovered->Checkpoint().ok());
  }
  // Double recovery is idempotent: recover again from the same files.
  {
    auto recovered =
        serve::Service::Recover(options, durability).ValueOrDie();
    ExpectServicesBitwiseEqual(*recovered, *reference);
  }

  // Snapshot-only recovery: the final checkpoint covers everything, so the
  // WAL may vanish entirely (rotated away) and recovery still lands exact.
  ASSERT_TRUE(io::RemoveFileIfExists(durability.wal.path).ok());
  auto recovered = serve::Service::Recover(options, durability).ValueOrDie();
  EXPECT_EQ(recovered->log_position(), log.size());
  ExpectServicesBitwiseEqual(*recovered, *reference);
}

TEST(ServiceDurability, RecoverTruncatesTornFinalRecord) {
  const std::string dir = TestDir("recover_torn");
  auto options = MakeOptions(nullptr);
  const auto log = BuildMixedLog(options.dim, 60, 0x70);

  auto reference = serve::Service::Create(options).ValueOrDie();
  const auto ref_responses = reference->ExecuteLog(log);

  const auto durability = MakeDurability(dir);
  {
    auto service = serve::Service::Create(options).ValueOrDie();
    ASSERT_TRUE(service->EnableDurability(durability).ok());
    service->ExecuteLog(log);
  }
  // Tear the final record: every record is ≥ 16 header bytes, so chopping
  // three bytes always leaves a torn last record, never a clean boundary.
  const uint64_t full = io::FileSize(durability.wal.path).ValueOrDie();
  ASSERT_TRUE(io::TruncateFile(durability.wal.path, full - 3).ok());

  auto recovered = serve::Service::Recover(options, durability).ValueOrDie();
  EXPECT_EQ(recovered->log_position(), log.size() - 1);
  // Recovery truncated the WAL back to a record boundary.
  auto replay = serve::Wal::ReadAll(durability.wal.path,
                                    serve::OptionsFingerprint(options))
                    .ValueOrDie();
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.records.size(), log.size() - 1);
  // Replaying the lost request yields the reference's exact response.
  const auto responses = recovered->ExecuteLog({log.back()});
  ASSERT_EQ(responses.size(), 1u);
  ExpectResponseEqual(responses[0], ref_responses.back(), log.size() - 1);
  ExpectServicesBitwiseEqual(*recovered, *reference);
}

TEST(ServiceDurability, AutoCheckpointFiresAndStaysRecoverable) {
  const std::string dir = TestDir("auto_checkpoint");
  auto options = MakeOptions(nullptr);
  const auto log = BuildMixedLog(options.dim, 90, 0xAC);

  auto reference = serve::Service::Create(options).ValueOrDie();
  reference->ExecuteLog(log);

  auto durability = MakeDurability(dir);
  durability.snapshot_every = 16;
  durability.snapshot_keep = 2;
  {
    auto service = serve::Service::Create(options).ValueOrDie();
    ASSERT_TRUE(service->EnableDurability(durability).ok());
    for (size_t i = 0; i < log.size(); i += 10) {
      const std::vector<serve::Request> chunk(
          log.begin() + static_cast<std::ptrdiff_t>(i),
          log.begin() +
              static_cast<std::ptrdiff_t>(std::min(i + 10, log.size())));
      service->ExecuteLog(chunk);
    }
  }
  const auto files = io::ListDirectory(durability.snapshot_dir).ValueOrDie();
  EXPECT_GE(files.size(), 1u);
  EXPECT_LE(files.size(), durability.snapshot_keep);

  auto recovered = serve::Service::Recover(options, durability).ValueOrDie();
  EXPECT_EQ(recovered->log_position(), log.size());
  ExpectServicesBitwiseEqual(*recovered, *reference);
}

// --------------------------------------------------------------------------
// The tentpole: crash injection
// --------------------------------------------------------------------------

// One trial: execute a random prefix of `log` against a durable service in
// randomized commit batches with occasional checkpoints, "crash" by
// destroying the service and truncating the WAL at a uniformly random byte
// ≥ the header (modeling an arbitrary lost suffix — mid-group-commit, a
// torn final record, a cut that predates the newest snapshot), recover, and
// demand the recovered service finish the log byte-identically to the
// uninterrupted reference.
void RunCrashTrial(const serve::ServiceOptions& options,
                   const std::vector<serve::Request>& log,
                   const std::vector<serve::Response>& ref_responses,
                   const serve::Service& reference, const std::string& dir,
                   uint64_t trial_seed) {
  SCOPED_TRACE("trial_seed=" + std::to_string(trial_seed));
  Rng rng(trial_seed);
  const auto durability = MakeDurability(dir);

  uint64_t header_bytes = 0;
  {
    auto service = serve::Service::Create(options).ValueOrDie();
    ASSERT_TRUE(service->EnableDurability(durability).ok());
    header_bytes = io::FileSize(durability.wal.path).ValueOrDie();
    const size_t prefix = 1 + static_cast<size_t>(rng.UniformInt(log.size()));
    size_t i = 0;
    while (i < prefix) {
      const size_t chunk = 1 + static_cast<size_t>(rng.UniformInt(
                                   std::min<uint64_t>(prefix - i, 7)));
      const std::vector<serve::Request> batch(
          log.begin() + static_cast<std::ptrdiff_t>(i),
          log.begin() + static_cast<std::ptrdiff_t>(i + chunk));
      const auto responses = service->ExecuteLog(batch);
      for (size_t j = 0; j < responses.size(); ++j) {
        ExpectResponseEqual(responses[j], ref_responses[i + j], i + j);
      }
      i += chunk;
      if (rng.Uniform() < 0.2) {
        ASSERT_TRUE(service->Checkpoint().ok());
      }
    }
  }  // crash: whatever reached the file is all that survives

  const uint64_t size = io::FileSize(durability.wal.path).ValueOrDie();
  const uint64_t cut = header_bytes + rng.UniformInt(size - header_bytes + 1);
  ASSERT_TRUE(io::TruncateFile(durability.wal.path, cut).ok());

  auto recovered_or = serve::Service::Recover(options, durability);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  auto recovered = std::move(recovered_or).ValueOrDie();
  const uint64_t k = recovered->log_position();
  ASSERT_LE(k, log.size());

  // The client re-submits everything past the recovery point; the combined
  // response stream must be byte-identical to the uninterrupted run.
  const std::vector<serve::Request> rest(
      log.begin() + static_cast<std::ptrdiff_t>(k), log.end());
  const auto responses = recovered->ExecuteLog(rest);
  ASSERT_EQ(responses.size(), rest.size());
  for (size_t j = 0; j < responses.size(); ++j) {
    ExpectResponseEqual(responses[j], ref_responses[k + j],
                        static_cast<size_t>(k) + j);
  }
  ExpectServicesBitwiseEqual(*recovered, reference);
}

TEST(CrashInjection, RecoveryIsBitwiseAcrossThreads) {
  auto base_options = MakeOptions(nullptr);
  const auto log = BuildMixedLog(base_options.dim, 120, 0xC0FFEE);

  // One uninterrupted reference run (pool of 1): the determinism contract
  // makes it THE answer every pool size and every crash/recovery schedule
  // must reproduce byte for byte.
  exec::ThreadPool pool1(1);
  exec::ThreadPool pool8(8);
  auto ref_options = base_options;
  ref_options.pool = &pool1;
  auto reference = serve::Service::Create(ref_options).ValueOrDie();
  const auto ref_responses = reference->ExecuteLog(log);
  ASSERT_GT(reference->registry().latest_version(), 0u);
  ASSERT_GT(reference->compaction_count(), 0u);

  struct Combo {
    exec::ThreadPool* pool;
    const char* name;
  };
  const Combo combos[] = {{&pool1, "t1"}, {&pool8, "t8"}};
  uint64_t trial = 0;
  for (const auto& combo : combos) {
    SCOPED_TRACE(combo.name);
    auto options = base_options;
    options.pool = combo.pool;
    for (int t = 0; t < 6; ++t) {
      const std::string dir = TestDir(std::string("crash_") + combo.name +
                                      "_" + std::to_string(t));
      RunCrashTrial(options, log, ref_responses, *reference, dir,
                    0x9E3779B97F4A7C15ull + trial);
      ++trial;
    }
  }
}

}  // namespace
}  // namespace fm
