// Shared machinery of the gistcr benchmark program: seeded generators, the
// key/point model that every correctness check consults, latency samples,
// bench-side spans, registry snapshots and the result report.
//
// Nothing here reaches into the engine's internals: spans are recorded
// around calls into the public API (Database, Gist, Client, Server), and
// per-layer counters are read from the registry the engine already keeps
// (Database::metrics()).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "obs/metrics.h"

namespace perfbench {

using gistcr::Status;

constexpr uint64_t kNever = UINT64_MAX;

uint64_t NowNs();
inline double NsToUs(double ns) { return ns / 1e3; }
inline double NsToMs(double ns) { return ns / 1e6; }

/// SplitMix64 finalizer: derives independent stream seeds from
/// (run seed, stream id) so every thread's operation stream is a pure
/// function of the --seed argument.
uint64_t Mix(uint64_t a, uint64_t b);

class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

/// Run-wide arguments.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;  ///< scratch database files (removed at exit)
  std::string out_dir;   ///< span dump
  int threads = 4;       ///< client threads / connections (<= nproc)
};

// ---------------------------------------------------------------------------
// The model. Every key the generator can produce carries (tag, seq) in its
// low bits, so a key read back from the engine maps to its model state in
// O(1) without a shared index: tag 0 = preload, 1..4 = client streams,
// 5..7 = workload-specific populations.
constexpr int kTagBits = 3;
constexpr int kSeqBits = 21;
constexpr uint64_t kLowBits = kTagBits + kSeqBits;  // 24
inline uint64_t TagSeq(uint32_t tag, uint64_t seq) {
  return (seq << kTagBits) | tag;
}
inline uint32_t TagOf(uint64_t v) { return v & ((1u << kTagBits) - 1); }
inline uint64_t SeqOf(uint64_t v) {
  return (v >> kTagBits) & ((uint64_t{1} << kSeqBits) - 1);
}

/// Lifecycle timestamps of one generated key (steady-clock ns). A search
/// that began at B and returned at E must see the key if it committed
/// before B and no delete had started by E; must not see it if its insert
/// started after E, its insert aborted before B, or its delete committed
/// before B; either outcome is correct otherwise. These bounds hold for
/// read committed, repeatable read and snapshot reads alike.
struct KeyState {
  std::atomic<uint64_t> ins_begin{kNever};
  std::atomic<uint64_t> ins_commit{kNever};
  std::atomic<uint64_t> ins_failed{kNever};
  std::atomic<uint64_t> del_begin{kNever};
  std::atomic<uint64_t> del_commit{kNever};
  std::atomic<uint64_t> rid{0};
  uint64_t key = 0;  ///< B-tree key, or the point's x bits
  uint64_t aux = 0;  ///< the point's y bits (R-tree)

  void MarkPreloaded(uint64_t packed_rid) {
    ins_begin.store(0);
    ins_commit.store(0);
    rid.store(packed_rid);
  }
  bool LiveAtRest() const {
    return ins_commit.load() != kNever && del_commit.load() == kNever;
  }
};

enum class Expect { kMust, kMay, kMustNot };
Expect Classify(const KeyState& s, uint64_t begin_ns, uint64_t end_ns);

/// Chunked per-tag arrays of KeyState with stable addresses. Create() is
/// called only by the tag's owning thread; Get() from any thread.
class KeyTable {
 public:
  static constexpr size_t kChunk = 4096;
  static constexpr size_t kMaxChunks = (size_t{1} << kSeqBits) / kChunk;
  KeyTable();
  ~KeyTable();
  KeyTable(const KeyTable&) = delete;
  KeyTable& operator=(const KeyTable&) = delete;

  KeyState* Create(uint32_t tag, uint64_t seq);
  KeyState* Get(uint32_t tag, uint64_t seq) const;
  /// Calls fn for every created state (quiescent use only).
  void ForEach(const std::function<void(KeyState&)>& fn) const;

 private:
  std::array<std::array<std::atomic<KeyState*>, kMaxChunks>, 8> chunks_;
  std::array<std::atomic<uint64_t>, 8> created_{};
};

/// 100-byte record payload derived from the key, so a record read back
/// through the wire can be checked without storing it.
std::string RecordFor(uint64_t key);
constexpr size_t kRecordBytes = 100;

// ---------------------------------------------------------------------------
// Latency samples and per-op accounting.
class Samples {
 public:
  void Add(uint64_t ns) { v_.push_back(ns); }
  void Merge(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  size_t size() const { return v_.size(); }
  /// Exact order statistic (nearest rank), in ns. Sorts in place.
  double Quantile(double q);

 private:
  std::vector<uint64_t> v_;
};

enum OpKind { kSearch = 0, kInsert = 1, kDelete = 2, kNumKinds = 3 };
const char* KindName(int k);

/// One thread's (or phase's) record of client-visible operations.
struct OpLog {
  static constexpr uint64_t kWindowNs = 500'000'000;
  Samples lat[kNumKinds];          ///< untraced ops
  Samples traced_lat[kNumKinds];   ///< ops that recorded spans
  /// Untraced ops by the window of steady-clock time they completed in.
  std::map<uint64_t, std::array<Samples, kNumKinds>> win;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t commits = 0;
  /// Files the latency (ns) of an operation that just completed.
  void Record(int kind, uint64_t ns, bool traced);
  void Merge(const OpLog& o);
  uint64_t completed() const;
};

// ---------------------------------------------------------------------------
// Bench-side spans (recorded only with --trace 1, and then only during the
// traced epochs, so the untraced epochs of the same run measure overhead).
struct Span {
  uint64_t req = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* layer = "";
  const char* name = "";
  uint64_t start = 0;
  uint64_t end = 0;
};

class Tracing {
 public:
  /// Enables span recording; a helper thread alternates a traced epoch of
  /// epoch_ms with an untraced one three times as long until Stop().
  void Start(bool trace_mode, uint32_t epoch_ms = 25);
  void Stop();
  bool mode() const { return mode_; }
  bool epoch_on() const { return on_.load(std::memory_order_relaxed); }
  /// Every span recorded by every thread so far.
  std::vector<Span> Collect() const;
  /// Writes Collect() as CSV (once, at the end of the run).
  void Dump(const std::string& path) const;
  static Tracing& Get();
  ~Tracing();

 private:
  friend class ReqScope;
  friend class SpanScope;
  struct Buffer {
    std::vector<Span> spans;
    uint64_t dropped = 0;
  };
  Buffer* ThreadBuffer();
  bool mode_ = false;
  std::atomic<bool> on_{false};
  std::atomic<bool> stop_{false};
  std::unique_ptr<std::thread> flipper_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Root span of one client-visible operation; decides whether the
/// operation is traced (trace mode and a traced epoch).
class ReqScope {
 public:
  explicit ReqScope(const char* name);
  ~ReqScope();
  ReqScope(const ReqScope&) = delete;
  ReqScope& operator=(const ReqScope&) = delete;
  bool traced() const { return traced_; }
  uint64_t start() const { return start_; }

 private:
  bool traced_;
  const char* name_;
  uint64_t start_;
  uint64_t id_ = 0;
};

/// Child span around one call into an engine layer.
class SpanScope {
 public:
  SpanScope(const char* layer, const char* name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  bool on_;
  const char* layer_;
  const char* name_;
  uint64_t start_ = 0;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
};

// ---------------------------------------------------------------------------
// Registry snapshots: counters and histograms the engine already keeps.
struct RegSnap {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, gistcr::obs::Histogram::Snapshot> hists;
  static RegSnap Take(gistcr::obs::MetricsRegistry* reg);
  uint64_t Counter(const std::string& name) const;
  /// this - before, per name.
  RegSnap Minus(const RegSnap& before) const;
  const gistcr::obs::Histogram::Snapshot& Hist(const std::string& name) const;
};

// ---------------------------------------------------------------------------
// Result report.
class Report {
 public:
  void EndToEnd(const std::string& name, double value, const char* unit,
                uint64_t samples);
  void Layer(const std::string& name, double value, const char* unit,
             uint64_t samples = 0);
  void Note(const std::string& line);  ///< human-readable line
  /// A correctness check failed; callable from any client thread.
  void Fail(const std::string& why);
  bool correct() const {
    std::lock_guard<std::mutex> l(fail_mu_);
    return failures_.empty();
  }
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Prints the human-readable lines and, last, the one-line JSON result.
  void Print(bool trace, const std::string& env_json) const;

 private:
  struct M {
    std::string name;
    double value;
    std::string unit;
    uint64_t samples;
  };
  std::vector<M> e2e_, layer_;
  std::vector<std::string> notes_;
  mutable std::mutex fail_mu_;
  std::vector<std::string> failures_;
};

/// Environment stamp shared by every result line.
struct PoolStamp {
  std::string workload;
  bool sync_commit = false;
  size_t pool_pages = 0;
  size_t data_pages = 0;
};
std::string EnvStampJson(const std::vector<PoolStamp>& pools, bool trace);

// ---------------------------------------------------------------------------
// Shared phases.

/// Per-layer metrics every workload reports: registry deltas over the
/// measured phase plus span statistics (self time per layer, bench-timed
/// calls). Missing sources report 0 so every traced run lists every name.
void ReportLayers(const RegSnap& delta, const OpLog& ops,
                  const std::vector<Span>& spans, Report* rep);
/// Span-derived per-layer metrics (self time, bench-timed call medians).
void ReportSpanLayers(const std::vector<Span>& spans, Report* rep);
/// Tracing overhead: traced vs untraced mean latency of the same run.
void ReportTraceOverhead(const OpLog& ops, Report* rep);
/// ops_per_s (as the workload measured it) and search/insert/delete
/// p50/p99 of the untraced operations. Each p50 is the lower quartile of
/// the p50s of the 0.5 s windows: on a shared host the host takes the CPUs
/// or the disk away for seconds at a time, and this measures the program
/// in the windows it was left alone. p99 is over the whole phase.
void ReportLatencies(OpLog* ops, double ops_per_s, Report* rep);

/// Runs `op(thread)` in a closed loop on `threads` threads for `seconds`
/// (a thread stops early when op returns false) and returns the median of
/// the completed-operation rates of its 0.5 s intervals, so a host stall in
/// part of the run does not move it.
double RunClosedLoop(int threads, double seconds,
                     const std::function<bool(int)>& op);

/// The restart every workload ends with: Database::Open (default instant
/// mode), one probe insert+commit (time to first commit), then `threads`
/// closed-loop workers for `window_s` seconds, and for at least
/// `min_post_recovery_s` after WaitForRecovery (timed from a helper
/// thread) returned.
struct RestartResult {
  double open_ms = 0;
  double ttfc_ms = 0;
  double recovered_ms = 0;
  double ramp_commits_per_s = 0;
  /// Operations per second completed after WaitForRecovery returned.
  double post_recovery_ops_per_s = 0;
  std::unique_ptr<gistcr::Database> db;
};
/// `op(thread, db, gist, log)` runs one client operation and returns
/// false when the thread has nothing more to do.
using RestartOp =
    std::function<bool(int, gistcr::Database*, gistcr::Gist*, OpLog*)>;
Status RunRestart(const gistcr::DatabaseOptions& opts,
                  const gistcr::GistExtension* ext,
                  const std::function<Status(gistcr::Database*,
                                             gistcr::Gist*)>& probe,
                  int threads, double window_s, double min_post_recovery_s,
                  const RestartOp& op, std::vector<OpLog>* logs,
                  RestartResult* out);

/// The closing restart of embedded_spatial and wire_oltp: `cycles` times
/// restore the crash image at `image` over opts.path, RunRestart it with
/// `probe(db, gist, cycle)`, crash it again and call `rollback(cycle)` (the
/// next restored image no longer holds that cycle's probe). The last cycle
/// runs `window_s` of traffic and stays open in out->db. out->ttfc_ms and
/// out->recovered_ms are the medians over the cycles.
Status RunCrashCycles(
    const gistcr::DatabaseOptions& opts, const std::string& image,
    const gistcr::GistExtension* ext,
    const std::function<Status(gistcr::Database*, gistcr::Gist*, int)>& probe,
    const std::function<void(int)>& rollback, int cycles, int threads,
    double window_s, const RestartOp& op, std::vector<OpLog>* logs,
    RestartResult* out, Report* rep);

/// recovery.* per-layer metrics of the restarted database.
void ReportRecoveryLayers(const RestartResult& r, Report* rep);

void RunThreads(int n, const std::function<void(int)>& fn);

// Files.
void RemoveDbFiles(const std::string& base);
Status CopyDbFiles(const std::string& from, const std::string& to);
uint64_t FileBytes(const std::string& path);

double Median(std::vector<double> v);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
