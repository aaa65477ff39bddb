#include "serve/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

#include "common/io_env.h"
#include "common/io_util.h"

namespace fm::serve {

namespace {

constexpr char kMagic[8] = {'F', 'M', 'S', 'N', 'A', 'P', '0', '1'};
constexpr uint32_t kFormatVersion = 3;
constexpr char kSuffix[] = ".fmsnap";
constexpr char kPrefix[] = "snapshot-";
constexpr char kTmpSuffix[] = ".fmsnap.tmp";

io::Env& EnvOrDefault(io::Env* env) {
  return env != nullptr ? *env : io::Env::Default();
}

bool HasPrefixSuffix(const std::string& name, const char* prefix,
                     size_t prefix_len, const char* suffix,
                     size_t suffix_len) {
  return name.size() > prefix_len + suffix_len &&
         name.compare(0, prefix_len, prefix) == 0 &&
         name.compare(name.size() - suffix_len, suffix_len, suffix) == 0;
}

}  // namespace

std::string EncodeSnapshot(const IncrementalObjective& objective,
                           const BudgetAccountant& accountant,
                           const ModelRegistry& registry,
                           uint64_t next_position,
                           uint64_t compaction_count) {
  std::string out;
  io::AppendU64(&out, next_position);
  io::AppendU64(&out, compaction_count);
  objective.SerializeTo(&out);
  accountant.SerializeTo(&out);
  registry.SerializeTo(&out);
  return out;
}

Status DecodeSnapshotComponents(const std::string& components,
                                IncrementalObjective* objective,
                                BudgetAccountant* accountant,
                                ModelRegistry* registry) {
  io::ByteReader reader(components);
  FM_RETURN_NOT_OK(objective->RestoreFrom(reader));
  FM_RETURN_NOT_OK(accountant->RestoreFrom(reader));
  // The registry's models share the store's dim and task; both are pinned
  // by the options fingerprint the file was checked against.
  const data::TaskKind task =
      objective->kind() == core::ObjectiveKindForTask(data::TaskKind::kLinear)
          ? data::TaskKind::kLinear
          : data::TaskKind::kLogistic;
  FM_RETURN_NOT_OK(registry->RestoreFrom(reader, objective->dim(), task));
  if (!reader.empty()) {
    return Status::IoError("snapshot payload has trailing bytes");
  }
  return Status::OK();
}

std::string SnapshotFileName(uint64_t position) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%020llu%s", kPrefix,
                static_cast<unsigned long long>(position), kSuffix);
  return buf;
}

Status WriteSnapshotFile(const std::string& dir, uint64_t position,
                         uint64_t fingerprint, const std::string& payload,
                         bool sync, io::Env* env) {
  io::Env& fs = EnvOrDefault(env);
  FM_RETURN_NOT_OK(fs.CreateDirectories(dir));
  std::string file;
  file.reserve(8 + 4 + 4 + 8 + 8 + 8 + payload.size());
  io::AppendBytes(&file, kMagic, sizeof(kMagic));
  io::AppendU32(&file, kFormatVersion);
  io::AppendU32(&file, io::Crc32(payload));
  io::AppendU64(&file, fingerprint);
  io::AppendU64(&file, position);
  io::AppendU64(&file, payload.size());
  file.append(payload);
  const std::string path =
      (std::filesystem::path(dir) / SnapshotFileName(position)).string();
  return io::WriteFileAtomic(fs, path, file, sync);
}

namespace {

// Parses and validates one snapshot file; any failure means "skip it".
Result<SnapshotContents> ParseSnapshotFile(io::Env& fs,
                                           const std::string& path,
                                           uint64_t fingerprint) {
  FM_ASSIGN_OR_RETURN(const std::string file,
                      io::ReadFileToString(fs, path));
  if (file.size() < sizeof(kMagic) ||
      std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("snapshot magic mismatch");
  }
  io::ByteReader reader(file.data() + sizeof(kMagic),
                        file.size() - sizeof(kMagic));
  uint32_t version = 0;
  uint32_t crc = 0;
  uint64_t file_fingerprint = 0;
  uint64_t position = 0;
  uint64_t payload_len = 0;
  FM_RETURN_NOT_OK(reader.ReadU32(&version));
  FM_RETURN_NOT_OK(reader.ReadU32(&crc));
  FM_RETURN_NOT_OK(reader.ReadU64(&file_fingerprint));
  FM_RETURN_NOT_OK(reader.ReadU64(&position));
  FM_RETURN_NOT_OK(reader.ReadU64(&payload_len));
  if (version != kFormatVersion) {
    return Status::IoError("snapshot format version unsupported");
  }
  if (file_fingerprint != fingerprint) {
    return Status::IoError("snapshot options fingerprint mismatch");
  }
  if (reader.remaining() != payload_len) {
    return Status::IoError("snapshot payload length mismatch");
  }
  const std::string payload_bytes = file.substr(file.size() - payload_len);
  if (io::Crc32(payload_bytes) != crc) {
    return Status::IoError("snapshot payload CRC mismatch");
  }
  SnapshotContents contents;
  io::ByteReader payload(payload_bytes);
  FM_RETURN_NOT_OK(payload.ReadU64(&contents.next_position));
  FM_RETURN_NOT_OK(payload.ReadU64(&contents.compaction_count));
  if (contents.next_position != position) {
    return Status::IoError("snapshot envelope/payload position mismatch");
  }
  contents.components = payload_bytes.substr(payload.offset());
  return contents;
}

std::vector<std::string> SnapshotFilesNewestFirst(io::Env& fs,
                                                  const std::string& dir) {
  const Result<std::vector<std::string>> names = fs.ListDirectory(dir);
  if (!names.ok()) return {};
  std::vector<std::string> snapshots;
  for (const std::string& name : names.ValueOrDie()) {
    if (HasPrefixSuffix(name, kPrefix, sizeof(kPrefix) - 1, kSuffix,
                        sizeof(kSuffix) - 1)) {
      snapshots.push_back(name);
    }
  }
  // Zero-padded positions sort lexicographically; newest = largest.
  std::sort(snapshots.rbegin(), snapshots.rend());
  return snapshots;
}

}  // namespace

Result<SnapshotContents> LoadLatestSnapshot(const std::string& dir,
                                            uint64_t fingerprint,
                                            io::Env* env) {
  io::Env& fs = EnvOrDefault(env);
  for (const std::string& name : SnapshotFilesNewestFirst(fs, dir)) {
    const std::string path = (std::filesystem::path(dir) / name).string();
    Result<SnapshotContents> parsed =
        ParseSnapshotFile(fs, path, fingerprint);
    if (parsed.ok()) return parsed;
  }
  return Status::NotFound("no valid snapshot under " + dir);
}

Status PruneSnapshots(const std::string& dir, size_t keep, io::Env* env) {
  io::Env& fs = EnvOrDefault(env);
  const std::vector<std::string> snapshots =
      SnapshotFilesNewestFirst(fs, dir);
  for (size_t i = keep; i < snapshots.size(); ++i) {
    FM_RETURN_NOT_OK(fs.RemoveFileIfExists(
        (std::filesystem::path(dir) / snapshots[i]).string()));
  }
  // A crash inside WriteFileAtomic (or between write and rename at power
  // cut) can strand a `snapshot-*.fmsnap.tmp`; LoadLatestSnapshot never
  // selects one, so the pruner is their only janitor.
  const Result<std::vector<std::string>> names = fs.ListDirectory(dir);
  if (names.ok()) {
    for (const std::string& name : names.ValueOrDie()) {
      if (HasPrefixSuffix(name, kPrefix, sizeof(kPrefix) - 1, kTmpSuffix,
                          sizeof(kTmpSuffix) - 1)) {
        FM_RETURN_NOT_OK(fs.RemoveFileIfExists(
            (std::filesystem::path(dir) / name).string()));
      }
    }
  }
  return Status::OK();
}

}  // namespace fm::serve
