#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <unordered_map>

#include "obs/op_context.h"

namespace perfbench {

namespace fs = std::filesystem;
using gistcr::Database;
using gistcr::Gist;
using gistcr::obs::Histogram;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t Mix(uint64_t a, uint64_t b) {
  Rng r(a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL));
  r.Next();
  return r.Next();
}

Expect Classify(const KeyState& s, uint64_t begin_ns, uint64_t end_ns) {
  const uint64_t ib = s.ins_begin.load();
  const uint64_t ic = s.ins_commit.load();
  const uint64_t ifail = s.ins_failed.load();
  const uint64_t db = s.del_begin.load();
  const uint64_t dc = s.del_commit.load();
  if (ib == kNever || ib > end_ns) return Expect::kMustNot;
  if (ifail != kNever && ifail < begin_ns) return Expect::kMustNot;
  if (dc != kNever && dc < begin_ns) return Expect::kMustNot;
  if (ic != kNever && ic < begin_ns && (db == kNever || db > end_ns)) {
    return Expect::kMust;
  }
  return Expect::kMay;
}

KeyTable::KeyTable() {
  for (auto& per_tag : chunks_) {
    for (auto& c : per_tag) c.store(nullptr);
  }
}

KeyTable::~KeyTable() {
  for (auto& per_tag : chunks_) {
    for (auto& c : per_tag) delete[] c.load();
  }
}

KeyState* KeyTable::Create(uint32_t tag, uint64_t seq) {
  const size_t ci = seq / kChunk;
  if (tag >= chunks_.size() || ci >= kMaxChunks) {
    std::fprintf(stderr, "perfbench: key space exhausted (tag %u seq %" PRIu64
                 ")\n", tag, seq);
    std::abort();
  }
  KeyState* chunk = chunks_[tag][ci].load(std::memory_order_acquire);
  if (chunk == nullptr) {
    chunk = new KeyState[kChunk];
    chunks_[tag][ci].store(chunk, std::memory_order_release);
  }
  uint64_t n = created_[tag].load();
  while (n < seq + 1 && !created_[tag].compare_exchange_weak(n, seq + 1)) {
  }
  return &chunk[seq % kChunk];
}

KeyState* KeyTable::Get(uint32_t tag, uint64_t seq) const {
  const size_t ci = seq / kChunk;
  if (tag >= chunks_.size() || ci >= kMaxChunks) return nullptr;
  KeyState* chunk = chunks_[tag][ci].load(std::memory_order_acquire);
  return chunk == nullptr ? nullptr : &chunk[seq % kChunk];
}

void KeyTable::ForEach(const std::function<void(KeyState&)>& fn) const {
  for (uint32_t tag = 0; tag < chunks_.size(); tag++) {
    const uint64_t n = created_[tag].load();
    for (uint64_t seq = 0; seq < n; seq++) {
      KeyState* s = Get(tag, seq);
      if (s != nullptr && s->ins_begin.load() != kNever) fn(*s);
    }
  }
}

std::string RecordFor(uint64_t key) {
  std::string r(kRecordBytes, '\0');
  Rng rng(key);
  for (size_t i = 0; i < kRecordBytes; i += 8) {
    const uint64_t w = rng.Next();
    for (size_t b = 0; b < 8 && i + b < kRecordBytes; b++) {
      r[i + b] = static_cast<char>((w >> (8 * b)) & 0xff);
    }
  }
  return r;
}

double Samples::Quantile(double q) {
  if (v_.empty()) return 0;
  std::sort(v_.begin(), v_.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v_.size())));
  if (rank == 0) rank = 1;
  return static_cast<double>(v_[std::min(rank, v_.size()) - 1]);
}

const char* KindName(int k) {
  static const char* kNames[] = {"search", "insert", "delete"};
  return kNames[k];
}

void OpLog::Record(int kind, uint64_t ns, bool traced) {
  if (traced) {
    traced_lat[kind].Add(ns);
    return;
  }
  lat[kind].Add(ns);
  win[NowNs() / kWindowNs][kind].Add(ns);
}

void OpLog::Merge(const OpLog& o) {
  for (const auto& [w, per_kind] : o.win) {
    for (int k = 0; k < kNumKinds; k++) win[w][k].Merge(per_kind[k]);
  }
  for (int k = 0; k < kNumKinds; k++) {
    lat[k].Merge(o.lat[k]);
    traced_lat[k].Merge(o.traced_lat[k]);
  }
  attempted += o.attempted;
  failed += o.failed;
  commits += o.commits;
}

uint64_t OpLog::completed() const { return attempted - failed; }

// ---------------------------------------------------------------------------
// Spans.
namespace {
std::atomic<uint64_t> g_span_id{0};
constexpr size_t kSpansPerThread = 200000;
thread_local bool t_traced = false;
thread_local uint64_t t_req = 0;
thread_local uint64_t t_parent = 0;
thread_local void* t_buffer = nullptr;
}  // namespace

Tracing& Tracing::Get() {
  static Tracing t;
  return t;
}

Tracing::~Tracing() { Stop(); }

void Tracing::Start(bool trace_mode, uint32_t epoch_ms) {
  mode_ = trace_mode;
  if (!trace_mode) return;
  stop_.store(false);
  // Traced epochs take a quarter of the time: enough spans for stable
  // per-layer figures, untraced epochs in between for the overhead.
  flipper_ = std::make_unique<std::thread>([this, epoch_ms] {
    while (!stop_.load()) {
      on_.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(epoch_ms));
      on_.store(false);
      std::this_thread::sleep_for(std::chrono::milliseconds(3 * epoch_ms));
    }
  });
}

void Tracing::Stop() {
  stop_.store(true);
  if (flipper_ != nullptr) {
    flipper_->join();
    flipper_.reset();
  }
  on_.store(false);
}

Tracing::Buffer* Tracing::ThreadBuffer() {
  if (t_buffer == nullptr) {
    auto b = std::make_unique<Buffer>();
    b->spans.reserve(4096);
    std::lock_guard<std::mutex> l(mu_);
    t_buffer = b.get();
    buffers_.push_back(std::move(b));
  }
  return static_cast<Buffer*>(t_buffer);
}

std::vector<Span> Tracing::Collect() const {
  std::lock_guard<std::mutex> l(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

void Tracing::Dump(const std::string& path) const {
  const std::vector<Span> spans = Collect();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "req,id,parent,layer,name,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%s,%s,%" PRIu64
                 ",%" PRIu64 "\n", s.req, s.id, s.parent, s.layer, s.name,
                 s.start, s.end);
  }
  std::fclose(f);
}

ReqScope::ReqScope(const char* name)
    : traced_(Tracing::Get().mode() && Tracing::Get().epoch_on()),
      name_(name),
      start_(NowNs()) {
  if (traced_) {
    id_ = ++g_span_id;
    t_traced = true;
    t_req = id_;
    t_parent = id_;
  }
}

ReqScope::~ReqScope() {
  if (!traced_) return;
  Tracing::Buffer* b = Tracing::Get().ThreadBuffer();
  if (b->spans.size() < kSpansPerThread) {
    b->spans.push_back(Span{id_, id_, 0, "request", name_, start_, NowNs()});
  } else {
    b->dropped++;
  }
  t_traced = false;
  t_req = 0;
  t_parent = 0;
}

SpanScope::SpanScope(const char* layer, const char* name)
    : on_(t_traced), layer_(layer), name_(name) {
  if (!on_) return;
  id_ = ++g_span_id;
  parent_ = t_parent;
  t_parent = id_;
  start_ = NowNs();
}

SpanScope::~SpanScope() {
  if (!on_) return;
  const uint64_t end = NowNs();
  Tracing::Buffer* b = Tracing::Get().ThreadBuffer();
  if (b->spans.size() < kSpansPerThread) {
    b->spans.push_back(Span{t_req, id_, parent_, layer_, name_, start_, end});
  } else {
    b->dropped++;
  }
  t_parent = parent_;
}

// ---------------------------------------------------------------------------
// Registry snapshots.
namespace {
const char* const kCounters[] = {
    "gist.searches", "gist.inserts", "gist.deletes", "gist.splits",
    "gist.rightlink_follows", "gist.read.restarts", "gist.read.fallbacks",
    "gist.gc_removed", "gist.nodes_deleted", "lock.acquires",
    "lock.deadlocks", "pred.attaches", "pred.conflict_checks",
    "mvcc.snapshot_reads", "mvcc.versions_pruned", "wal.appends",
    "wal.append_bytes", "wal.flushes", "txn.commits", "txn.aborts",
    "bp.hits", "bp.misses", "bp.dirty_evictions", "bp.evictions",
    "recovery.inline_redos", "recovery.background_redos",
    "recovery.records_redone", "recovery.records_undone",
    "server.requests"};
const char* const kHists[] = {
    "rpc.request_total", "gist.latch_wait_ns", "lock.node_wait_ns",
    "lock.record_wait_ns", "lock.txn_wait_ns", "mvcc.chain_length",
    "wal.group_commit_records", "wal.fsync_ns", "bp.pin_wait_ns",
    "recovery.analysis_ns"};

std::vector<std::string> HistNames() {
  std::vector<std::string> names(std::begin(kHists), std::end(kHists));
  for (size_t s = 0; s < gistcr::obs::kNumStages; s++) {
    names.push_back(std::string("rpc.stage.") +
                    gistcr::obs::StageName(static_cast<gistcr::obs::Stage>(s)));
  }
  return names;
}
}  // namespace

RegSnap RegSnap::Take(gistcr::obs::MetricsRegistry* reg) {
  RegSnap s;
  for (const char* c : kCounters) s.counters[c] = reg->GetCounter(c)->value();
  for (const std::string& h : HistNames()) {
    s.hists[h] = reg->GetHistogram(h)->GetSnapshot();
  }
  return s;
}

uint64_t RegSnap::Counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

const Histogram::Snapshot& RegSnap::Hist(const std::string& name) const {
  static const Histogram::Snapshot kEmpty;
  auto it = hists.find(name);
  return it == hists.end() ? kEmpty : it->second;
}

RegSnap RegSnap::Minus(const RegSnap& before) const {
  RegSnap d;
  for (const auto& [name, v] : counters) d.counters[name] = v - before.Counter(name);
  for (const auto& [name, h] : hists) {
    const Histogram::Snapshot& b = before.Hist(name);
    Histogram::Snapshot x = h;
    x.count = h.count - b.count;
    x.sum = h.sum - b.sum;
    for (size_t i = 0; i < Histogram::kNumBuckets; i++) {
      x.buckets[i] = h.buckets[i] - b.buckets[i];
    }
    x.p50 = x.Percentile(0.50);
    x.p95 = x.Percentile(0.95);
    x.p99 = x.Percentile(0.99);
    d.hists[name] = x;
  }
  return d;
}

// ---------------------------------------------------------------------------
// Report.
namespace {
double Finite(double v) { return std::isfinite(v) ? v : 0.0; }
double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

std::string JsonEscape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o.push_back(c);
  }
  return o;
}
}  // namespace

void Report::EndToEnd(const std::string& name, double value, const char* unit,
                      uint64_t samples) {
  for (M& m : e2e_) {
    if (m.name == name) {
      m = M{name, Finite(value), unit, samples};
      return;
    }
  }
  e2e_.push_back(M{name, Finite(value), unit, samples});
}

void Report::Layer(const std::string& name, double value, const char* unit,
                   uint64_t samples) {
  for (M& m : layer_) {
    if (m.name == name) {
      m = M{name, Finite(value), unit, samples};
      return;
    }
  }
  layer_.push_back(M{name, Finite(value), unit, samples});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Fail(const std::string& why) {
  std::lock_guard<std::mutex> l(fail_mu_);
  if (failures_.size() < 20) failures_.push_back(why);
  if (failures_.size() == 20) failures_.push_back("(further failures elided)");
}

void Report::Print(bool trace, const std::string& env_json) const {
  std::printf("env %s\n", env_json.c_str());
  for (const std::string& n : notes_) std::printf("note %s\n", n.c_str());
  for (const M& m : e2e_) {
    std::printf("end_to_end %-28s %14.4f %-6s n=%" PRIu64 "\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  }
  for (const M& m : layer_) {
    std::printf("per_layer  %-34s %14.4f %-6s n=%" PRIu64 "\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  }
  for (const std::string& f : failures_) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("attempted=%" PRIu64 " failed=%" PRIu64 " failed_frac=%.6f\n",
              attempted, failed, Ratio(failed, attempted));
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  const std::vector<M>& ms = trace ? layer_ : e2e_;
  for (size_t i = 0; i < ms.size(); i++) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", ms[i].value);
    out += (i ? ", " : "") + std::string("\"") + JsonEscape(ms[i].name) +
           "\": {\"value\": " + buf + ", \"unit\": \"" +
           JsonEscape(ms[i].unit) + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::string EnvStampJson(const std::vector<PoolStamp>& pools, bool trace) {
  bool sanitizer = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitizer = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  sanitizer = true;
#endif
#endif
#ifdef NDEBUG
  const bool asserts = false;
#else
  const bool asserts = true;
#endif
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const bool flagged = sanitizer || asserts || build_type == "Debug";
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  std::string j = "{";
  j += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  j += ", \"compiler\": \"" + JsonEscape(PERFBENCH_COMPILER) + "\"";
  j += ", \"build_type\": \"" + JsonEscape(build_type) + "\"";
  j += ", \"cxx_flags\": \"" + JsonEscape(PERFBENCH_CXX_FLAGS) + "\"";
  j += ", \"git_sha\": \"" + JsonEscape(sha != nullptr ? sha : "unknown") + "\"";
  j += std::string(", \"sanitizer\": ") + (sanitizer ? "true" : "false");
  j += std::string(", \"asserts\": ") + (asserts ? "true" : "false");
  j += std::string(", \"engine_trace_events\": ") +
#ifdef GISTCR_TRACING
       "true";
#else
       "false";
#endif
  j += std::string(", \"fault_injection\": ") +
       (GISTCR_FAULT_INJECTION ? "true" : "false");
  j += std::string(", \"bench_spans\": ") + (trace ? "true" : "false");
  j += ", \"pools\": [";
  for (size_t i = 0; i < pools.size(); i++) {
    const PoolStamp& p = pools[i];
    j += (i ? ", " : "") + std::string("{\"phase\": \"") +
         JsonEscape(p.workload) + "\", \"sync_commit\": " +
         (p.sync_commit ? "1" : "0") +
         ", \"pool_pages\": " + std::to_string(p.pool_pages) +
         ", \"data_pages\": " + std::to_string(p.data_pages) +
         ", \"fits\": " + (p.pool_pages >= p.data_pages ? "true" : "false") +
         "}";
  }
  j += "]";
  j += std::string(", \"flagged\": ") + (flagged ? "true" : "false");
  j += "}";
  if (flagged) {
    std::fprintf(stderr,
                 "perfbench: WARNING: results come from a Debug, assert-enabled "
                 "or sanitizer build and are not comparable\n");
  }
  return j;
}

// ---------------------------------------------------------------------------
// Per-layer metrics.
void ReportSpanLayers(const std::vector<Span>& spans, Report* rep) {
  std::unordered_map<uint64_t, uint64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end - s.start;
  }
  static const char* const kLayers[] = {"request", "client", "txn", "gist",
                                        "db"};
  std::map<std::string, double> self_ns;
  std::map<std::string, Samples> by_name;
  uint64_t roots = 0;
  for (const Span& s : spans) {
    const uint64_t dur = s.end - s.start;
    auto it = child_ns.find(s.id);
    const uint64_t kids = it == child_ns.end() ? 0 : it->second;
    self_ns[s.layer] += static_cast<double>(dur > kids ? dur - kids : 0);
    by_name[s.name].Add(dur);
    if (s.parent == 0) roots++;
  }
  for (const char* l : kLayers) {
    rep->Layer(std::string("self.") + l + "_us_per_op",
               NsToUs(Ratio(self_ns[l], static_cast<double>(roots))), "us",
               roots);
  }
  struct Named {
    const char* metric;
    const char* span;
  };
  static const Named kTimed[] = {
      {"gist.search_rc_us_p50", "Gist::Search/rc"},
      {"gist.search_rr_us_p50", "Gist::Search/rr"},
      {"gist.search_snap_us_p50", "Gist::Search/snap"},
      {"db.insert_record_us_p50", "Database::InsertRecord"},
      {"db.delete_record_us_p50", "Database::DeleteRecord"},
      {"txn.begin_us_p50", "Database::Begin"},
      {"txn.commit_us_p50", "Database::Commit"},
      {"client.insert_us_p50", "Client::Insert"},
      {"client.delete_us_p50", "Client::Delete"},
      {"client.search_us_p50", "Client::Search"},
  };
  for (const Named& n : kTimed) {
    Samples& s = by_name[n.span];
    const uint64_t count = s.size();
    rep->Layer(n.metric, NsToUs(s.Quantile(0.5)), "us", count);
  }
  rep->Layer("trace.spans", static_cast<double>(spans.size()), "count");
}

void ReportTraceOverhead(const OpLog& ops, Report* rep) {
  // Per kind, traced vs untraced median latency from interleaved epochs of
  // the same run, weighted by the kind's share of all operations. Medians,
  // because a few operations that waited seconds (for loser undo, or in a
  // queue) would decide a mean by which epoch they fell in.
  double traced = 0, untraced = 0;
  uint64_t n = 0;
  for (int k = 0; k < kNumKinds; k++) {
    Samples plain = ops.lat[k], spanned = ops.traced_lat[k];
    if (plain.size() == 0 || spanned.size() == 0) continue;
    const double w = static_cast<double>(plain.size() + spanned.size());
    traced += w * spanned.Quantile(0.5);
    untraced += w * plain.Quantile(0.5);
    n += plain.size() + spanned.size();
  }
  rep->Layer("trace.overhead_frac", untraced == 0 ? 0 : traced / untraced - 1,
             "ratio", n);
}

void ReportLayers(const RegSnap& d, const OpLog& ops,
                  const std::vector<Span>& spans, Report* rep) {
  const double done = static_cast<double>(ops.completed());
  const double searches = static_cast<double>(d.Counter("gist.searches"));
  const double inserts = static_cast<double>(d.Counter("gist.inserts"));
  const double commits = static_cast<double>(d.Counter("txn.commits"));
  using gistcr::obs::Stage;
  const Histogram::Snapshot& total = d.Hist("rpc.request_total");
  auto stage = [&](Stage s) {
    return d.Hist(std::string("rpc.stage.") + gistcr::obs::StageName(s));
  };
  struct StageName {
    const char* metric;
    Stage stage;
  };
  static const StageName kStages[] = {
      {"server.queue_us", Stage::kQueue},   {"server.lock_us", Stage::kLock},
      {"server.latch_us", Stage::kLatch},   {"server.tree_us", Stage::kTree},
      {"server.walwait_us", Stage::kWalWait},
      {"server.fsync_us", Stage::kFsync},   {"server.other_us", Stage::kOther}};
  for (const StageName& s : kStages) {
    rep->Layer(s.metric,
               NsToUs(Ratio(static_cast<double>(stage(s.stage).sum),
                            static_cast<double>(total.count))),
               "us", total.count);
  }
  rep->Layer("server.other_frac",
             Ratio(static_cast<double>(stage(Stage::kOther).sum),
                   static_cast<double>(total.sum)),
             "ratio", total.count);
  rep->Layer("loadgen.late_us_p99", 0, "us");
  rep->Layer("loadgen.max_ok_rate_ops_s", 0, "1/s");
  for (int k = 0; k < kNumKinds; k++) {
    rep->Layer(std::string("wire.") + KindName(k) + "_p50_us", 0, "us");
  }

  rep->Layer("gist.restarts_per_search",
             Ratio(d.Counter("gist.read.restarts"), searches), "ratio");
  rep->Layer("gist.fallbacks_per_search",
             Ratio(d.Counter("gist.read.fallbacks"), searches), "ratio");
  rep->Layer("gist.rightlink_follows_per_op",
             Ratio(d.Counter("gist.rightlink_follows"), done), "ratio");
  rep->Layer("gist.splits_per_insert", Ratio(d.Counter("gist.splits"), inserts),
             "ratio");
  rep->Layer("gist.latch_wait_us_p99",
             NsToUs(d.Hist("gist.latch_wait_ns").p99), "us",
             d.Hist("gist.latch_wait_ns").count);
  rep->Layer("gist.gc_removed", d.Counter("gist.gc_removed"), "count");
  rep->Layer("gist.nodes_deleted", d.Counter("gist.nodes_deleted"), "count");

  rep->Layer("db.file_bytes", 0, "bytes");
  rep->Layer("db.live_bytes", 0, "bytes");
  rep->Layer("wal.file_bytes", 0, "bytes");

  const double lock_wait_ns =
      static_cast<double>(d.Hist("lock.node_wait_ns").sum +
                          d.Hist("lock.record_wait_ns").sum +
                          d.Hist("lock.txn_wait_ns").sum);
  rep->Layer("lock.acquires_per_op", Ratio(d.Counter("lock.acquires"), done),
             "ratio");
  rep->Layer("lock.wait_us_per_op", NsToUs(Ratio(lock_wait_ns, done)), "us");
  rep->Layer("lock.deadlocks", d.Counter("lock.deadlocks"), "count");
  rep->Layer("pred.attaches_per_search",
             Ratio(d.Counter("pred.attaches"), searches), "ratio");
  rep->Layer("pred.conflict_checks_per_insert",
             Ratio(d.Counter("pred.conflict_checks"), inserts), "ratio");

  rep->Layer("mvcc.snapshot_reads", d.Counter("mvcc.snapshot_reads"), "count");
  rep->Layer("mvcc.chain_length_p99", d.Hist("mvcc.chain_length").p99,
             "count", d.Hist("mvcc.chain_length").count);
  rep->Layer("mvcc.versions_pruned", d.Counter("mvcc.versions_pruned"),
             "count");

  rep->Layer("wal.records_per_op", Ratio(d.Counter("wal.appends"), done),
             "ratio");
  rep->Layer("wal.bytes_per_op", Ratio(d.Counter("wal.append_bytes"), done),
             "bytes");
  rep->Layer("wal.flushes_per_commit", Ratio(d.Counter("wal.flushes"), commits),
             "ratio");
  rep->Layer("wal.group_commit_records_mean",
             d.Hist("wal.group_commit_records").mean(), "count",
             d.Hist("wal.group_commit_records").count);
  rep->Layer("wal.fsync_us_p50", NsToUs(d.Hist("wal.fsync_ns").p50), "us",
             d.Hist("wal.fsync_ns").count);

  const double hits = static_cast<double>(d.Counter("bp.hits"));
  const double misses = static_cast<double>(d.Counter("bp.misses"));
  rep->Layer("bp.hit_rate", Ratio(hits, hits + misses), "ratio");
  rep->Layer("bp.misses_per_op", Ratio(misses, done), "ratio");
  rep->Layer("bp.dirty_evictions_per_op",
             Ratio(d.Counter("bp.dirty_evictions"), done), "ratio");
  rep->Layer("bp.pin_wait_us_p99", NsToUs(d.Hist("bp.pin_wait_ns").p99), "us",
             d.Hist("bp.pin_wait_ns").count);

  rep->Layer("failed_frac", Ratio(ops.failed, ops.attempted), "ratio",
             ops.attempted);
  ReportSpanLayers(spans, rep);
  ReportTraceOverhead(ops, rep);
}

void ReportLatencies(OpLog* ops, double ops_per_s, Report* rep) {
  // Windows with fewer samples of a kind do not vote; with fewer voting
  // windows than this the p50 is over the whole phase.
  constexpr size_t kMinWindowSamples = 20;
  constexpr size_t kMinWindows = 4;
  rep->Layer("ops_per_s", ops_per_s, "1/s", ops->completed());
  for (int k = 0; k < kNumKinds; k++) {
    Samples& s = ops->lat[k];
    const uint64_t n = s.size();
    std::vector<double> p50s;
    for (auto& [w, per_kind] : ops->win) {
      if (per_kind[k].size() >= kMinWindowSamples) {
        p50s.push_back(per_kind[k].Quantile(0.50));
      }
    }
    double p50 = s.Quantile(0.50);
    if (p50s.size() >= kMinWindows) {
      std::sort(p50s.begin(), p50s.end());
      p50 = p50s[(p50s.size() + 3) / 4 - 1];
    }
    rep->EndToEnd(std::string(KindName(k)) + "_p50_us", NsToUs(p50), "us", n);
    // p99 is stall-dominated here (maintenance passes, group-commit
    // batches) and spreads too much from run to run to gate on, so it is
    // reported with the per-layer figures.
    rep->Layer(std::string(KindName(k)) + "_p99_us", NsToUs(s.Quantile(0.99)),
               "us", n);
  }
}

// ---------------------------------------------------------------------------
// Restart phase.
Status RunRestart(const gistcr::DatabaseOptions& opts,
                  const gistcr::GistExtension* ext,
                  const std::function<Status(Database*, Gist*)>& probe,
                  int threads, double window_s, double min_post_recovery_s,
                  const RestartOp& op, std::vector<OpLog>* logs,
                  RestartResult* out) {
  const uint64_t t0 = NowNs();
  auto db_or = Database::Open(opts);
  if (!db_or.ok()) return db_or.status();
  std::unique_ptr<Database> db = std::move(db_or.value());
  out->open_ms = NsToMs(static_cast<double>(NowNs() - t0));
  Status st = db->OpenIndex(1, ext);
  if (!st.ok()) return st;
  Gist* gist = db->GetIndex(1).value();

  std::atomic<uint64_t> recovered_at{0};
  Status wait_status;
  std::thread waiter([&] {
    wait_status = db->WaitForRecovery();
    recovered_at.store(NowNs());
  });
  st = probe(db.get(), gist);
  const uint64_t t_first = NowNs();
  if (!st.ok()) {
    waiter.join();
    return st;
  }
  out->ttfc_ms = NsToMs(static_cast<double>(t_first - t0));
  const uint64_t deadline = t_first + static_cast<uint64_t>(window_s * 1e9);
  const double ramp_s = std::min(1.0, window_s);
  const uint64_t ramp_end = t_first + static_cast<uint64_t>(ramp_s * 1e9);
  const uint64_t min_post_ns = static_cast<uint64_t>(min_post_recovery_s * 1e9);
  auto keep_going = [&] {
    const uint64_t now = NowNs(), rec = recovered_at.load();
    return now < deadline ||
           (min_post_ns > 0 && (rec == 0 || now < rec + min_post_ns));
  };
  std::atomic<uint64_t> ramp_commits{0}, post_ops{0};
  logs->resize(static_cast<size_t>(threads));
  RunThreads(threads, [&](int i) {
    OpLog* log = &(*logs)[static_cast<size_t>(i)];
    while (keep_going()) {
      const uint64_t c0 = log->commits, f0 = log->failed;
      const uint64_t rec = recovered_at.load();
      if (!op(i, db.get(), gist, log)) break;
      const uint64_t now = NowNs();
      if (log->commits > c0 && now <= ramp_end) {
        ramp_commits.fetch_add(log->commits - c0);
      }
      if (rec != 0 && log->failed == f0) post_ops.fetch_add(1);
    }
  });
  const uint64_t t_end = NowNs();
  waiter.join();
  if (!wait_status.ok()) return wait_status;
  out->recovered_ms = NsToMs(static_cast<double>(recovered_at.load() - t0));
  if (recovered_at.load() < t_end) {
    out->post_recovery_ops_per_s =
        static_cast<double>(post_ops.load()) * 1e9 /
        static_cast<double>(t_end - recovered_at.load());
  }
  out->ramp_commits_per_s =
      ramp_s > 0 ? static_cast<double>(ramp_commits.load()) / ramp_s : 0;
  out->db = std::move(db);
  return Status::OK();
}

Status RunCrashCycles(
    const gistcr::DatabaseOptions& opts, const std::string& image,
    const gistcr::GistExtension* ext,
    const std::function<Status(Database*, Gist*, int)>& probe,
    const std::function<void(int)>& rollback, int cycles, int threads,
    double window_s, const RestartOp& op, std::vector<OpLog>* logs,
    RestartResult* out, Report* rep) {
  std::vector<double> ttfc, recovered;
  for (int i = 0; i < cycles; i++) {
    const bool last = i + 1 == cycles;
    Status st = CopyDbFiles(image, opts.path);
    if (!st.ok()) return st;
    *out = RestartResult();
    st = RunRestart(
        opts, ext, [&](Database* d, Gist* g) { return probe(d, g, i); },
        threads, last ? window_s : 0.0, 0.0, op, logs, out);
    if (!st.ok()) return st;
    ttfc.push_back(out->ttfc_ms);
    recovered.push_back(out->recovered_ms);
    if (last) break;
    out->db->SimulateCrash();
    out->db.reset();
    rollback(i);
  }
  std::string line = "crash restarts (ttfc / recovered ms):";
  for (size_t i = 0; i < ttfc.size(); i++) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %.1f/%.1f", ttfc[i], recovered[i]);
    line += buf;
  }
  rep->Note(line);
  out->ttfc_ms = Median(ttfc);
  out->recovered_ms = Median(recovered);
  return Status::OK();
}

void ReportRecoveryLayers(const RestartResult& r, Report* rep) {
  const RegSnap s = RegSnap::Take(r.db->metrics());
  rep->Layer("recovery.open_ms", r.open_ms, "ms");
  rep->Layer("recovery.analysis_ms",
             NsToMs(static_cast<double>(s.Hist("recovery.analysis_ns").sum)),
             "ms");
  for (const char* c : {"recovery.inline_redos", "recovery.background_redos",
                        "recovery.records_redone", "recovery.records_undone"}) {
    rep->Layer(c, static_cast<double>(s.Counter(c)), "count");
  }
}

double RunClosedLoop(int threads, double seconds,
                     const std::function<bool(int)>& op) {
  constexpr uint64_t kIntervalNs = 500'000'000;
  const uint64_t t0 = NowNs();
  const uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
  std::atomic<uint64_t> done{0};
  std::vector<double> rates;
  std::thread sampler([&] {
    uint64_t last = 0, last_t = t0;
    for (uint64_t next = t0 + kIntervalNs; next <= deadline;
         next += kIntervalNs) {
      const uint64_t before = NowNs();
      if (before < next) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(next - before));
      }
      const uint64_t now = NowNs(), n = done.load();
      rates.push_back(static_cast<double>(n - last) * 1e9 /
                      static_cast<double>(now - last_t));
      last = n;
      last_t = now;
    }
  });
  RunThreads(threads, [&](int t) {
    while (NowNs() < deadline && op(t)) {
      done.fetch_add(1, std::memory_order_relaxed);
    }
  });
  sampler.join();
  return Median(rates);
}

void RunThreads(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> ts;
  ts.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; i++) ts.emplace_back(fn, i);
  for (auto& t : ts) t.join();
}

void RemoveDbFiles(const std::string& base) {
  std::error_code ec;
  for (const char* ext : {".db", ".wal", ".ckpt", ".ckpt.tmp"}) {
    fs::remove(base + ext, ec);
  }
}

Status CopyDbFiles(const std::string& from, const std::string& to) {
  RemoveDbFiles(to);
  for (const char* ext : {".db", ".wal", ".ckpt"}) {
    std::error_code ec;
    if (!fs::exists(from + ext)) continue;
    fs::copy_file(from + ext, to + ext, fs::copy_options::overwrite_existing,
                  ec);
    if (ec) return Status::IOError("copy " + from + ext + ": " + ec.message());
  }
  return Status::OK();
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace perfbench
