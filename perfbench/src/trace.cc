// Span tracer of the traced runs. Spans live only in the benchmark's files,
// around calls into each module's public functions; nothing in src/ is
// instrumented. Each thread aggregates its own spans (count, total, self
// time and a bounded sample of durations); the merge runs after the pool
// has gone quiet.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

#include "bench.h"

namespace perfbench {

namespace {

constexpr size_t kMaxDepth = 64;
constexpr size_t kMaxSamples = size_t{1} << 20;

struct Acc {
  uint64_t count = 0;
  uint64_t units = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  std::vector<float> samples_ns;
};

struct ThreadTrace {
  struct Open {
    Layer layer;
    int64_t start;
    int64_t child_ns;
    uint64_t units;
    Phase phase;
  };
  Open stack[kMaxDepth];
  size_t depth = 0;
  Acc acc[2][kLayerCount];
  double root_ns[2][kLayerCount] = {};
};

std::atomic<bool> g_enabled{false};
std::atomic<int> g_phase{kReplay};
std::mutex g_threads_mutex;
std::vector<std::unique_ptr<ThreadTrace>>& Threads() {
  static auto* threads = new std::vector<std::unique_ptr<ThreadTrace>>();
  return *threads;
}

ThreadTrace& Local() {
  thread_local ThreadTrace* local = [] {
    auto owned = std::make_unique<ThreadTrace>();
    ThreadTrace* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_threads_mutex);
    Threads().push_back(std::move(owned));
    return raw;
  }();
  return *local;
}

void Close(ThreadTrace& t, const ThreadTrace::Open& open, int64_t duration) {
  Acc& acc = t.acc[open.phase][open.layer];
  ++acc.count;
  acc.units += open.units;
  acc.total_ns += static_cast<double>(duration);
  acc.self_ns += static_cast<double>(duration - open.child_ns);
  if (acc.samples_ns.size() < kMaxSamples) {
    acc.samples_ns.push_back(static_cast<float>(duration));
  }
  if (t.depth > 0) {
    t.stack[t.depth - 1].child_ns += duration;
  } else {
    t.root_ns[open.phase][open.layer] += static_cast<double>(duration);
  }
}

}  // namespace

const char* LayerName(Layer layer) {
  static const char* const kNames[kLayerCount] = {
      "serve.engine.call",     "eval.cv.call",
      "eval.fold_task",        "exec.parallel_map",
      "serve.store.insert",    "serve.store.delete",
      "serve.store.update",    "serve.store.compact",
      "serve.store.objective", "serve.ledger.reserve",
      "serve.ledger.settle",   "core.fit_objective",
      "serve.registry.publish", "serve.wal.append",
      "serve.wal.commit",      "serve.wal.fsync",
      "serve.snapshot.encode", "serve.snapshot.write",
      "serve.snapshot.prune",  "serve.snapshot.load",
      "serve.snapshot.decode", "serve.wal.read_all",
      "serve.recovery.replay", "core.accumulator_build",
      "data.kfold_split",      "core.fold_objective",
      "eval.task_error",       "core.perturb",
      "core.fit_quadratic",    "core.spectral_trim",
      "linalg.cholesky"};
  return kNames[layer];
}

bool IsRootLayer(Layer layer) {
  return layer == kCall || layer == kCvCall || layer == kFoldTask;
}

void TraceEnable(bool enabled) { g_enabled.store(enabled); }
void TraceSetPhase(Phase phase) { g_phase.store(phase); }

Span::Span(Layer layer, uint64_t units) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadTrace& t = Local();
  if (t.depth == kMaxDepth) return;
  t.stack[t.depth++] = {layer, NowNs(), 0, units,
                        static_cast<Phase>(g_phase.load(
                            std::memory_order_relaxed))};
  active_ = true;
}

Span::~Span() {
  if (!active_) return;
  const int64_t end = NowNs();
  ThreadTrace& t = Local();
  const ThreadTrace::Open open = t.stack[--t.depth];
  Close(t, open, end - open.start);
}

void TraceRecord(Layer layer, int64_t nanos, uint64_t units) {
  ThreadTrace& t = Local();
  const ThreadTrace::Open open = {
      layer, 0, 0, units, static_cast<Phase>(g_phase.load())};
  Close(t, open, nanos);
}

double LayerStats::MedianNs() const {
  if (samples_ns.empty()) return 0.0;
  return Median(samples_ns);
}

LayerStats TraceStats(Layer layer, Phase phase) {
  LayerStats stats;
  std::lock_guard<std::mutex> lock(g_threads_mutex);
  for (const auto& t : Threads()) {
    const Acc& acc = t->acc[phase][layer];
    stats.count += acc.count;
    stats.units += acc.units;
    stats.total_ns += acc.total_ns;
    stats.self_ns += acc.self_ns;
    stats.samples_ns.insert(stats.samples_ns.end(), acc.samples_ns.begin(),
                            acc.samples_ns.end());
  }
  return stats;
}

LayerStats TraceStatsPreferReplay(Layer layer) {
  LayerStats stats = TraceStats(layer, kReplay);
  return stats.count > 0 ? stats : TraceStats(layer, kProbe);
}

double TraceCoverage() {
  double attributed = 0.0;
  double roots = 0.0;
  std::lock_guard<std::mutex> lock(g_threads_mutex);
  for (const auto& t : Threads()) {
    for (int l = 0; l < kLayerCount; ++l) {
      roots += t->root_ns[kReplay][l];
      if (!IsRootLayer(static_cast<Layer>(l))) {
        attributed += t->acc[kReplay][l].self_ns;
      }
    }
  }
  return roots > 0.0 ? attributed / roots : 0.0;
}

void TraceWrite(const std::string& path, const std::string& header) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{%s, \"layers\": [", header.c_str());
  bool first = true;
  for (int phase = 0; phase < 2; ++phase) {
    for (int l = 0; l < kLayerCount; ++l) {
      const LayerStats s =
          TraceStats(static_cast<Layer>(l), static_cast<Phase>(phase));
      if (s.count == 0) continue;
      std::fprintf(f,
                   "%s\n  {\"layer\": \"%s\", \"phase\": \"%s\", "
                   "\"count\": %llu, \"units\": %llu, \"total_ms\": %.6f, "
                   "\"self_ms\": %.6f, \"p50_us\": %.4f}",
                   first ? "" : ",", LayerName(static_cast<Layer>(l)),
                   phase == kReplay ? "replay" : "probe",
                   static_cast<unsigned long long>(s.count),
                   static_cast<unsigned long long>(s.units),
                   s.total_ns / 1e6, s.self_ns / 1e6, s.P50Us());
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

}  // namespace perfbench
