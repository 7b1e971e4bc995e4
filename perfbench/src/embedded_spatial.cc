// embedded_spatial: in-process R-tree, cache-resident, closed loop.
//
// 200k uniform points with 100-byte records (~30 MiB) in a 16384-page
// (128 MiB) pool, sync_commit off, maintenance daemon on. Four closed-loop
// threads: 90% ~10-hit window searches (60% read committed, 20% repeatable
// read, 20% snapshot), 5% point inserts, 5% deletes of the thread's own
// oldest live insert, so the tree stays near the preload size. Every search
// result is checked against the model; the run ends with a clean close and
// reopen, then instant restarts of a crash image, each reopen followed by a
// quiescent full comparison.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <thread>

#include "access/rtree_extension.h"
#include "storage/page.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gistcr::Database;
using gistcr::DatabaseOptions;
using gistcr::Gist;
using gistcr::IsolationLevel;
using gistcr::Rect;
using gistcr::RtreeExtension;
using gistcr::SearchResult;
using gistcr::Transaction;

constexpr uint64_t kPreload = 200000;
constexpr size_t kPoolPages = 16384;
/// A maintenance pass (checkpoint, GC sweep) stalls the closed-loop
/// threads. In four interleaved pairs of runs, passes every 250 ms gave
/// run-to-run spreads of 29% (search p50) and 33% (throughput), passes
/// every 1000 ms 11% and 12%.
constexpr uint32_t kMaintenanceMs = 1000;
constexpr double kHitsPerWindow = 10;
constexpr int kSetupReps = 3;
/// The closing crash image: fresh points committed past the last
/// checkpoint (the redo span) and one open transaction's inserts (the
/// loser); restarted kCrashCycles times, ttfc and recovered time are the
/// medians.
constexpr uint64_t kTailCommitted = 20000;
constexpr uint64_t kTailLoser = 2000;
constexpr uint32_t kTailTag = 6;
constexpr uint32_t kLoserTag = 7;
constexpr int kCrashCycles = 9;
constexpr uint32_t kProbeTag = 5;
constexpr size_t kPointKeyBytes = 16;  // two doubles
constexpr int kGrid = 512;

// Coordinates are 40-bit fixed point: x carries 16 random bits above the
// (tag, seq) low bits, so every point is unique by construction.
constexpr double kScale = 1099511627776.0;  // 2^40
uint64_t XBits(Rng* r, uint32_t tag, uint64_t seq) {
  return ((r->Next() >> 48) << kLowBits) | TagSeq(tag, seq);
}
uint64_t YBits(Rng* r) { return r->Next() >> 24; }
double Coord(uint64_t bits) { return static_cast<double>(bits) / kScale; }
std::string PointKey(uint64_t xb, uint64_t yb) {
  return RtreeExtension::MakeKey(Rect::Point(Coord(xb), Coord(yb)));
}

/// A point of the crash tail: kTailCommitted committed ones, then the
/// loser's.
struct TailPoint {
  uint32_t tag;
  uint64_t seq, xb, yb;
};
std::vector<TailPoint> TailPoints(uint64_t seed) {
  Rng r(Mix(seed, 666));
  std::vector<TailPoint> pts;
  for (uint64_t i = 0; i < kTailCommitted + kTailLoser; i++) {
    const uint32_t tag = i < kTailCommitted ? kTailTag : kLoserTag;
    const uint64_t seq = i < kTailCommitted ? i : i - kTailCommitted;
    const uint64_t xb = XBits(&r, tag, seq);
    pts.push_back(TailPoint{tag, seq, xb, YBits(&r)});
  }
  return pts;
}

struct Op {
  OpKind kind = kSearch;
  IsolationLevel iso = IsolationLevel::kReadCommitted;
  double cx = 0, cy = 0;
  uint64_t seq = 0;
  uint64_t xb = 0, yb = 0;
};

/// One thread's operation stream: a pure function of (seed, thread) as
/// long as every operation succeeds (a failed insert leaves the delete
/// queue; a failed delete goes back to its front).
class Stream {
 public:
  Stream(uint64_t seed, int thread)
      : rng_(Mix(seed, 1000 + static_cast<uint64_t>(thread))),
        tag_(static_cast<uint32_t>(thread) + 1) {}
  uint32_t tag() const { return tag_; }
  Op Next() {
    Op op;
    const uint64_t u = rng_.Below(100);
    if (u < 90) {
      const uint64_t v = rng_.Below(10);
      op.iso = v < 6 ? IsolationLevel::kReadCommitted
               : v < 8 ? IsolationLevel::kRepeatableRead
                       : IsolationLevel::kSnapshot;
      op.cx = rng_.Uniform();
      op.cy = rng_.Uniform();
    } else if (u < 95 || live_.empty()) {
      op.kind = kInsert;
      op.seq = next_seq_++;
      op.xb = XBits(&rng_, tag_, op.seq);
      op.yb = YBits(&rng_);
      live_.push_back(op.seq);
    } else {
      op.kind = kDelete;
      op.seq = live_.front();
      live_.pop_front();
    }
    return op;
  }
  void InsertFailed(uint64_t seq) {
    for (auto it = live_.begin(); it != live_.end(); ++it) {
      if (*it == seq) {
        live_.erase(it);
        return;
      }
    }
  }
  void DeleteFailed(uint64_t seq) { live_.push_front(seq); }

 private:
  Rng rng_;
  uint32_t tag_;
  uint64_t next_seq_ = 0;
  std::deque<uint64_t> live_;
};

/// Uniform grid over the unit square: the model's spatial index, used to
/// list the points a window must return.
class Grid {
 public:
  Grid() : cells_(new Cell[kGrid * kGrid]) {}
  void Add(KeyState* s) {
    Cell& c = cells_[Index(Coord(s->key), Coord(s->aux))];
    Lock(c);
    c.pts.push_back(s);
    c.lock.clear(std::memory_order_release);
  }
  template <typename Fn>
  void Visit(const Rect& w, Fn fn) {
    const int x0 = Clamp(w.xlo), x1 = Clamp(w.xhi);
    const int y0 = Clamp(w.ylo), y1 = Clamp(w.yhi);
    for (int x = x0; x <= x1; x++) {
      for (int y = y0; y <= y1; y++) {
        Cell& c = cells_[x * kGrid + y];
        Lock(c);
        for (KeyState* s : c.pts) fn(s);
        c.lock.clear(std::memory_order_release);
      }
    }
  }

 private:
  struct Cell {
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    std::vector<KeyState*> pts;
  };
  static void Lock(Cell& c) {
    while (c.lock.test_and_set(std::memory_order_acquire)) {
    }
  }
  static int Clamp(double v) {
    const int i = static_cast<int>(std::floor(v * kGrid));
    return i < 0 ? 0 : i >= kGrid ? kGrid - 1 : i;
  }
  static int Index(double x, double y) { return Clamp(x) * kGrid + Clamp(y); }
  std::unique_ptr<Cell[]> cells_;
};

bool Inside(const Rect& w, double x, double y) {
  return w.xlo <= x && x <= w.xhi && w.ylo <= y && y <= w.yhi;
}

const char* SearchSpanName(IsolationLevel iso) {
  switch (iso) {
    case IsolationLevel::kReadCommitted: return "Gist::Search/rc";
    case IsolationLevel::kRepeatableRead: return "Gist::Search/rr";
    case IsolationLevel::kSnapshot: return "Gist::Search/snap";
  }
  return "Gist::Search";
}

class Workload {
 public:
  Workload(const Args& args, Report* rep) : args_(args), rep_(rep) {
    half_ = std::sqrt(kHitsPerWindow / static_cast<double>(kPreload)) / 2;
    Rng r(Mix(args.seed, 999));
    for (uint64_t i = 0; i < kPreload; i++) {
      KeyState* s = table_.Create(0, i);
      s->key = XBits(&r, 0, i);
      s->aux = YBits(&r);
      grid_.Add(s);
    }
    for (int t = 0; t < args.threads; t++) streams_.emplace_back(args.seed, t);
    for (uint64_t i = 0; i < kPreload; i++) load_order_.push_back(table_.Get(0, i));
    std::sort(load_order_.begin(), load_order_.end(),
              [](const KeyState* a, const KeyState* b) {
                return ZOrder(a) < ZOrder(b);
              });
  }

  /// Morton code of the point's top 20 bits per axis.
  static uint64_t ZOrder(const KeyState* s) {
    const uint64_t x = s->key >> 20, y = s->aux >> 20;
    uint64_t z = 0;
    for (int b = 0; b < 20; b++) {
      z |= ((x >> b) & 1) << (2 * b + 1) | ((y >> b) & 1) << (2 * b);
    }
    return z;
  }

  DatabaseOptions Options() const {
    DatabaseOptions o;
    o.path = args_.data_dir + "/embedded_spatial";
    o.buffer_pool_pages = kPoolPages;
    o.sync_commit = false;
    o.maintenance_interval_ms = kMaintenanceMs;
    return o;
  }

  /// Creates the database and loads the preload points; the timed set-up.
  /// The measured phase runs on this instance: the maintenance daemon's
  /// passes checkpoint it.
  Status Setup(std::unique_ptr<Database>* out) {
    RemoveDbFiles(Options().path);
    auto db_or = Database::Create(Options());
    if (!db_or.ok()) return db_or.status();
    std::unique_ptr<Database> db = std::move(db_or.value());
    Status st = db->CreateIndex(1, &ext_);
    if (!st.ok()) return st;
    Gist* gist = db->GetIndex(1).value();
    // One loader thread, points in Z-order: the R-tree's shape depends on
    // insertion order, and a random or concurrent order gives trees whose
    // search cost differs by a quarter from seed to seed.
    std::vector<Status> errs(1);
    RunThreads(1, [&](int t) {
      Transaction* txn = nullptr;
      uint64_t in_txn = 0;
      for (KeyState* s : load_order_) {
        if (txn == nullptr) txn = db->Begin(IsolationLevel::kReadCommitted);
        auto rid = db->InsertRecord(txn, gist, PointKey(s->key, s->aux),
                                    RecordFor(s->key));
        if (!rid.ok()) {
          errs[static_cast<size_t>(t)] = rid.status();
          (void)db->Abort(txn);
          return;
        }
        s->MarkPreloaded(rid.value().Pack());
        if (++in_txn == 100) {
          Status c = db->Commit(txn);
          if (!c.ok()) {
            errs[static_cast<size_t>(t)] = c;
            return;
          }
          txn = nullptr;
          in_txn = 0;
        }
      }
      if (txn != nullptr) errs[static_cast<size_t>(t)] = db->Commit(txn);
    });
    for (const Status& e : errs) {
      if (!e.ok()) return e;
    }
    *out = std::move(db);
    return Status::OK();
  }

  /// Reopens the cleanly closed database, whose index must hold exactly
  /// the model's live points; then appends the crash tail (kTailCommitted
  /// points committed in transactions of 100, one open transaction of
  /// kTailLoser inserts, the log made durable), crashes it and copies the
  /// image aside.
  Status BuildCrashImage(const std::string& image) {
    auto db_or = Database::Open(Options());
    if (!db_or.ok()) return db_or.status();
    std::unique_ptr<Database> db = std::move(db_or.value());
    Status st = db->OpenIndex(1, &ext_);
    if (!st.ok()) return st;
    Gist* gist = db->GetIndex(1).value();
    VerifyAtRest(db.get(), gist);

    const std::vector<TailPoint> pts = TailPoints(args_.seed);
    Transaction* txn = nullptr;
    for (uint64_t i = 0; i < kTailCommitted; i++) {
      KeyState* s = table_.Create(pts[i].tag, pts[i].seq);
      s->key = pts[i].xb;
      s->aux = pts[i].yb;
      if (txn == nullptr) txn = db->Begin(IsolationLevel::kReadCommitted);
      auto rid = db->InsertRecord(txn, gist, PointKey(s->key, s->aux),
                                  RecordFor(s->key));
      if (!rid.ok()) return rid.status();
      s->MarkPreloaded(rid.value().Pack());
      grid_.Add(s);
      if ((i + 1) % 100 == 0 || i + 1 == kTailCommitted) {
        st = db->Commit(txn);
        if (!st.ok()) return st;
        txn = nullptr;
      }
    }
    Transaction* loser = db->Begin(IsolationLevel::kReadCommitted);
    for (size_t i = kTailCommitted; i < pts.size(); i++) {
      KeyState* s = table_.Create(pts[i].tag, pts[i].seq);
      s->key = pts[i].xb;
      s->aux = pts[i].yb;
      auto rid = db->InsertRecord(loser, gist, PointKey(s->key, s->aux),
                                  RecordFor(s->key));
      if (!rid.ok()) return rid.status();
      s->ins_begin.store(0);
      s->ins_failed.store(0);
    }
    st = db->log()->FlushAll();
    if (!st.ok()) return st;
    db->SimulateCrash();
    db.reset();
    return CopyDbFiles(Options().path, image);
  }

  /// One client operation from thread t's stream; returns false only when
  /// the engine reports an error the stream cannot absorb.
  bool RunOp(int t, Database* db, Gist* gist, OpLog* log) {
    Stream& stream = streams_[static_cast<size_t>(t)];
    const Op op = stream.Next();
    log->attempted++;
    switch (op.kind) {
      case kSearch: return Search(op, db, gist, log);
      case kInsert: return Insert(stream, op, db, gist, log);
      case kDelete: return Delete(stream, op, db, gist, log);
      default: return false;
    }
  }

  bool Search(const Op& op, Database* db, Gist* gist, OpLog* log) {
    const Rect w{op.cx - half_, op.cy - half_, op.cx + half_, op.cy + half_};
    const std::string query = RtreeExtension::MakeWindowQuery(w);
    std::vector<SearchResult> out;
    uint64_t begin_ns = 0, end_ns = 0;
    Status st;
    bool traced = false;
    uint64_t lat = 0;
    {
      ReqScope req("search");
      traced = req.traced();
      begin_ns = NowNs();
      Transaction* txn;
      {
        SpanScope s("txn", "Database::Begin");
        txn = db->Begin(op.iso);
      }
      {
        SpanScope s("gist", SearchSpanName(op.iso));
        st = gist->Search(txn, query, &out);
      }
      end_ns = NowNs();
      if (st.ok()) {
        SpanScope s("txn", "Database::Commit");
        st = db->Commit(txn);
      } else {
        (void)db->Abort(txn);
      }
      lat = NowNs() - req.start();
    }
    if (!st.ok()) {
      log->failed++;
      return true;
    }
    log->commits++;
    log->Record(kSearch, lat, traced);
    Verify(w, out, begin_ns, end_ns);
    return true;
  }

  bool Insert(Stream& stream, const Op& op, Database* db, Gist* gist,
              OpLog* log) {
    KeyState* s = table_.Create(stream.tag(), op.seq);
    s->key = op.xb;
    s->aux = op.yb;
    grid_.Add(s);
    Status st;
    bool traced = false;
    uint64_t lat = 0;
    {
      ReqScope req("insert");
      traced = req.traced();
      s->ins_begin.store(NowNs());
      Transaction* txn;
      {
        SpanScope sp("txn", "Database::Begin");
        txn = db->Begin(IsolationLevel::kRepeatableRead);
      }
      {
        SpanScope sp("db", "Database::InsertRecord");
        auto rid = db->InsertRecord(txn, gist, PointKey(op.xb, op.yb),
                                    RecordFor(op.xb));
        st = rid.status();
        if (st.ok()) s->rid.store(rid.value().Pack());
      }
      if (st.ok()) {
        SpanScope sp("txn", "Database::Commit");
        st = db->Commit(txn);
      } else {
        (void)db->Abort(txn);
      }
      lat = NowNs() - req.start();
    }
    if (!st.ok()) {
      s->ins_failed.store(NowNs());
      stream.InsertFailed(op.seq);
      log->failed++;
      return true;
    }
    s->ins_commit.store(NowNs());
    log->commits++;
    log->Record(kInsert, lat, traced);
    return true;
  }

  bool Delete(Stream& stream, const Op& op, Database* db, Gist* gist,
              OpLog* log) {
    KeyState* s = table_.Get(stream.tag(), op.seq);
    Status st;
    bool traced = false;
    uint64_t lat = 0;
    {
      ReqScope req("delete");
      traced = req.traced();
      s->del_begin.store(NowNs());
      Transaction* txn;
      {
        SpanScope sp("txn", "Database::Begin");
        txn = db->Begin(IsolationLevel::kRepeatableRead);
      }
      {
        SpanScope sp("db", "Database::DeleteRecord");
        st = db->DeleteRecord(txn, gist, PointKey(s->key, s->aux),
                              gistcr::Rid::Unpack(s->rid.load()));
      }
      if (st.ok()) {
        SpanScope sp("txn", "Database::Commit");
        st = db->Commit(txn);
      } else {
        (void)db->Abort(txn);
      }
      lat = NowNs() - req.start();
    }
    if (!st.ok()) {
      stream.DeleteFailed(op.seq);
      log->failed++;
      return true;
    }
    s->del_commit.store(NowNs());
    log->commits++;
    log->Record(kDelete, lat, traced);
    return true;
  }

  /// Every returned point is a generated point inside the window that may
  /// be live, each at most once; every point that must be live is there.
  void Verify(const Rect& w, const std::vector<SearchResult>& out,
              uint64_t begin_ns, uint64_t end_ns) {
    std::vector<KeyState*> got;
    got.reserve(out.size());
    for (const SearchResult& r : out) {
      const Rect p = Rect::Decode(r.key);
      const uint64_t xb = static_cast<uint64_t>(p.xlo * kScale);
      const uint64_t yb = static_cast<uint64_t>(p.ylo * kScale);
      KeyState* s = table_.Get(TagOf(xb), SeqOf(xb));
      if (s == nullptr || s->key != xb || s->aux != yb || p.xhi != p.xlo ||
          p.yhi != p.ylo) {
        rep_->Fail("window search returned a point the generator never made");
        continue;
      }
      if (!Inside(w, p.xlo, p.ylo)) {
        rep_->Fail("window search returned a point outside the window");
      }
      if (Classify(*s, begin_ns, end_ns) == Expect::kMustNot) {
        rep_->Fail("window search returned a point that was not live");
      }
      got.push_back(s);
    }
    std::sort(got.begin(), got.end());
    if (std::adjacent_find(got.begin(), got.end()) != got.end()) {
      rep_->Fail("window search returned a point twice");
    }
    grid_.Visit(w, [&](KeyState* s) {
      if (!Inside(w, Coord(s->key), Coord(s->aux))) return;
      if (Classify(*s, begin_ns, end_ns) != Expect::kMust) return;
      if (!std::binary_search(got.begin(), got.end(), s)) {
        rep_->Fail("window search missed a committed live point");
      }
    });
  }

  /// Quiescent check: one whole-space search returns exactly the points
  /// the model holds live, and the tree's invariants hold.
  void VerifyAtRest(Database* db, Gist* gist) {
    Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
    std::vector<SearchResult> out;
    Status st = gist->Search(
        txn, RtreeExtension::MakeWindowQuery(Rect{-1, -1, 2, 2}), &out);
    (void)db->Commit(txn);
    if (!st.ok()) {
      rep_->Fail("full search failed: " + st.ToString());
      return;
    }
    uint64_t live = 0;
    table_.ForEach([&](KeyState& s) {
      if (s.LiveAtRest()) live++;
    });
    const uint64_t now = NowNs();
    uint64_t matched = 0;
    for (const SearchResult& r : out) {
      const Rect p = Rect::Decode(r.key);
      const uint64_t xb = static_cast<uint64_t>(p.xlo * kScale);
      KeyState* s = table_.Get(TagOf(xb), SeqOf(xb));
      if (s != nullptr && s->key == xb && s->LiveAtRest() &&
          Classify(*s, now, now) == Expect::kMust) {
        matched++;
      }
    }
    if (matched != live || out.size() != live) {
      rep_->Fail("at rest: index holds " + std::to_string(out.size()) +
                 " points (" + std::to_string(matched) + " live in model), " +
                 "model has " + std::to_string(live));
    }
    st = gist->CheckInvariants();
    if (!st.ok()) rep_->Fail("CheckInvariants: " + st.ToString());
    live_points_ = live;
  }

  Status ProbeInsert(Database* db, Gist* gist) {
    KeyState* s = table_.Create(kProbeTag, probe_seq_);
    Rng r(Mix(args_.seed, 5000 + probe_seq_));
    s->key = XBits(&r, kProbeTag, probe_seq_);
    s->aux = YBits(&r);
    probe_seq_++;
    grid_.Add(s);
    s->ins_begin.store(NowNs());
    Transaction* txn = db->Begin(IsolationLevel::kRepeatableRead);
    auto rid = db->InsertRecord(txn, gist, PointKey(s->key, s->aux),
                                RecordFor(s->key));
    if (!rid.ok()) {
      (void)db->Abort(txn);
      s->ins_failed.store(NowNs());
      return rid.status();
    }
    s->rid.store(rid.value().Pack());
    Status st = db->Commit(txn);
    if (!st.ok()) {
      s->ins_failed.store(NowNs());
      return st;
    }
    s->ins_commit.store(NowNs());
    return Status::OK();
  }

  Status Run(std::vector<PoolStamp>* pools) {
    // Set-up, repeated; the last database is the one measured.
    std::vector<double> setup_s;
    std::unique_ptr<Database> db;
    for (int rep = 0; rep < kSetupReps; rep++) {
      db.reset();
      const uint64_t t0 = NowNs();
      Status st = Setup(&db);
      if (!st.ok()) return st;
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    rep_->EndToEnd("setup_s", Median(setup_s), "s", setup_s.size());
    Gist* gist = db->GetIndex(1).value();
    // Live data pages (the file itself grows only as pages are written).
    const uint64_t data_pages =
        kPreload * (kPointKeyBytes + kRecordBytes) / gistcr::kPageSize;
    pools->push_back(PoolStamp{"embedded_spatial", false, kPoolPages, data_pages});

    // Warm the pool (and check the preload) with one whole-space search.
    VerifyAtRest(db.get(), gist);
    if (live_points_ != kPreload) rep_->Fail("preload count mismatch");

    Tracing& tr = Tracing::Get();
    tr.Start(args_.trace);
    const RegSnap before = RegSnap::Take(db->metrics());
    std::vector<OpLog> logs(static_cast<size_t>(args_.threads));
    const double ops_per_s = RunClosedLoop(args_.threads, args_.seconds, [&](int t) {
      return RunOp(t, db.get(), gist, &logs[static_cast<size_t>(t)]);
    });
    const RegSnap delta = RegSnap::Take(db->metrics()).Minus(before);
    tr.Stop();
    OpLog all;
    for (const OpLog& l : logs) all.Merge(l);

    uint64_t live = 0;
    table_.ForEach([&](KeyState& s) {
      if (s.LiveAtRest()) live++;
    });
    const double live_bytes =
        static_cast<double>(live * (kPointKeyBytes + kRecordBytes));
    ReportLatencies(&all, ops_per_s, rep_);

    // Clean shutdown (stop the maintenance daemon, write every dirty page
    // back, checkpoint, close), reopen and check, then the crash restarts;
    // the last runs a second of the same traffic.
    db->PrepareShutdown();
    Status st = db->FlushAll();
    if (st.ok()) st = db->Checkpoint();
    if (!st.ok()) return st;
    db.reset();
    const double db_bytes = static_cast<double>(FileBytes(Options().path + ".db"));
    rep_->EndToEnd("db_bytes_per_live_byte", db_bytes / live_bytes, "ratio",
                   live);
    const std::string image = Options().path + "_image";
    st = BuildCrashImage(image);
    if (!st.ok()) return st;
    RestartResult rr;
    std::vector<OpLog> ramp_logs;
    st = RunCrashCycles(
        Options(), image, &ext_,
        [this](Database* d, Gist* g, int) { return ProbeInsert(d, g); },
        [this](int) {
          // The image predates the probe just committed.
          KeyState* s = table_.Get(kProbeTag, probe_seq_ - 1);
          const uint64_t now = NowNs();
          s->del_begin.store(now);
          s->del_commit.store(now);
        },
        kCrashCycles, args_.threads, 1.0,
        [this](int t, Database* d, Gist* g, OpLog* l) { return RunOp(t, d, g, l); },
        &ramp_logs, &rr, rep_);
    RemoveDbFiles(image);
    if (!st.ok()) return st;
    for (const OpLog& l : ramp_logs) {
      rep_->attempted += l.attempted;
      rep_->failed += l.failed;
    }
    rep_->EndToEnd("ttfc_ms", rr.ttfc_ms, "ms", kCrashCycles);
    rep_->Layer("ramp_commits_per_s", rr.ramp_commits_per_s, "1/s", 1);
    rep_->EndToEnd("recovered_ms", rr.recovered_ms, "ms", kCrashCycles);
    rep_->attempted += all.attempted + kCrashCycles;
    rep_->failed += all.failed;

    ReportLayers(delta, all, tr.Collect(), rep_);
    rep_->Layer("db.file_bytes", db_bytes, "bytes");
    rep_->Layer("db.live_bytes", live_bytes, "bytes");
    rep_->Layer("wal.file_bytes",
                static_cast<double>(FileBytes(Options().path + ".wal")), "bytes");
    ReportRecoveryLayers(rr, rep_);

    VerifyAtRest(rr.db.get(), rr.db->GetIndex(1).value());
    rr.db.reset();
    RemoveDbFiles(Options().path);
    return Status::OK();
  }

 private:
  const Args& args_;
  Report* rep_;
  RtreeExtension ext_;
  KeyTable table_;
  Grid grid_;
  std::vector<Stream> streams_;
  std::vector<KeyState*> load_order_;
  double half_ = 0;
  uint64_t probe_seq_ = 0;
  uint64_t live_points_ = 0;
};

}  // namespace

Status RunEmbeddedSpatial(const Args& args, Report* rep,
                          std::vector<PoolStamp>* pools) {
  auto w = std::make_unique<Workload>(args, rep);
  return w->Run(pools);
}

uint64_t EmbeddedSpatialDigest(uint64_t seed, uint64_t ops) {
  uint64_t h = 0;
  Rng r(Mix(seed, 999));
  for (uint64_t i = 0; i < kPreload; i++) {
    h = Mix(h, XBits(&r, 0, i));
    h = Mix(h, YBits(&r));
  }
  for (const TailPoint& p : TailPoints(seed)) h = Mix(h, p.xb ^ (p.yb << 1));
  for (int t = 0; t < 4; t++) {
    Stream s(seed, t);
    for (uint64_t i = 0; i < ops; i++) {
      const Op op = s.Next();
      uint64_t cx, cy;
      std::memcpy(&cx, &op.cx, 8);
      std::memcpy(&cy, &op.cy, 8);
      h = Mix(h, static_cast<uint64_t>(op.kind) * 7 +
                     static_cast<uint64_t>(op.iso));
      h = Mix(h, cx ^ (cy * 3) ^ op.seq ^ (op.xb << 1) ^ (op.yb << 2));
    }
  }
  return h;
}

}  // namespace perfbench
