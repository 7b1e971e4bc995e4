// wire_oltp: durable OLTP through the network server, cache does not fit.
//
// In-process Server (4 workers) over a B-tree of 200k keys with 100-byte
// records (~29 MiB .db) in a 512-page (4 MiB) pool, sync_commit on,
// maintenance daemon on. Open loop: 4 connections each send on a seeded
// Poisson schedule and latency runs from the intended send time. Mix: 40%
// fresh inserts, 40% deletes of the connection's oldest live key (its
// share of the preload first), 20% auto-commit repeatable-read 10-key range
// searches with records. A nominal phase at a frozen rate gives the wire
// latencies and the server's stage split; a fixed ramp of rate steps then
// finds the highest rate meeting the latency limit; an in-process phase of
// the same streams without fdatasync gives the end-to-end throughput and
// latencies. Ends with a graceful Server::Shutdown, a reopen with an exact
// comparison of the index against the model, and instant restarts of a
// crash image.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>

#include "client/client.h"
#include "oltp.h"
#include "server/server.h"
#include "storage/page.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gistcr::BtreeExtension;
using gistcr::Client;
using gistcr::ClientOptions;
using gistcr::Database;
using gistcr::DatabaseOptions;
using gistcr::Gist;
using gistcr::IsolationLevel;
using gistcr::Server;
using gistcr::ServerOptions;
using gistcr::Transaction;

constexpr uint64_t kPreload = 200000;
constexpr size_t kBulkPoolPages = 16384;
constexpr size_t kPoolPages = 512;
constexpr uint32_t kMaintenanceMs = 250;
constexpr int kSetupReps = 3;
constexpr uint32_t kProbeTag = 5;
/// Offered load of the nominal phase, ops/s over all connections. The
/// closed-loop saturation of this mix, measured once on the reference
/// machine (shared 4-core 2 GHz VM), was 10.2k-10.5k ops/s while the host
/// was quiet; when the host's fsync latency rose 4x, the same mix saturated
/// near 1.4k ops/s and nominal phases at 5000 and 2500 ops/s collapsed into
/// queueing. The nominal rate sits below that floor. Frozen; never
/// recomputed per run, so a faster engine shows as lower latency here and
/// a higher max_ok_rate in the ramp.
constexpr double kNominalRate = 1000;
/// Ramp steps as multiples of the nominal rate.
constexpr double kRampSteps[] = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0};
/// A step passes when p99 latency (from intended send time) is within this
/// limit, nothing failed and the generator ended the step on schedule. The
/// p99 at the nominal rate is ~20 ms, set by periodic maintenance stalls.
constexpr double kLatencyLimitUs = 25000;
/// Shares of --seconds: wire nominal phase and in-process phase; the ramp
/// gets the rest. The in-process phase gives the end-to-end latencies, and
/// the longer it is, the more of its 0.5 s windows miss the host's
/// episodes.
constexpr double kNominalShare = 0.3;
constexpr double kLocalShare = 0.5;
/// The closing crash image: fresh keys committed past the last checkpoint
/// (the redo span) and one open transaction's inserts (the loser).
constexpr uint64_t kTailCommitted = 40000;
constexpr uint64_t kTailLoser = 4000;
constexpr uint32_t kTailTag = 6;
constexpr uint32_t kLoserTag = 7;
/// Restarts of the crash image; ttfc and recovered time are their medians.
constexpr int kCrashCycles = 9;
/// A connection this far behind its schedule abandons a ramp step (the
/// step has failed) or, much later, the nominal phase (bounding the run).
constexpr uint64_t kAbandonStepNs = 1'000'000'000;
constexpr uint64_t kAbandonNominalNs = 20'000'000'000;

/// The crash tail's keys: kTailCommitted committed ones, then the loser's.
std::vector<uint64_t> TailKeys(uint64_t seed) {
  Rng r(Mix(seed, 666));
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < kTailCommitted; i++) {
    keys.push_back(OltpKey(&r, kTailTag, i));
  }
  for (uint64_t i = 0; i < kTailLoser; i++) {
    keys.push_back(OltpKey(&r, kLoserTag, i));
  }
  return keys;
}

struct Conn {
  std::unique_ptr<Client> client;
  std::unique_ptr<OltpStream> stream;
  std::optional<OltpOp> pending;  ///< drawn but past the previous phase
};

struct Phase {
  OpLog ops;
  Samples late;
  bool on_schedule = true;
};

class Workload {
 public:
  Workload(const Args& args, Report* rep) : args_(args), rep_(rep) {
    Rng r(Mix(args.seed, 777));
    preload_.reserve(kPreload);
    for (uint64_t i = 0; i < kPreload; i++) {
      preload_.push_back(OltpKey(&r, 0, i));
      model_.Prepare(preload_.back());
    }
  }

  /// `bulk`: the options the crash image is built with (large pool, no
  /// fdatasync, no maintenance); otherwise the measured ones.
  DatabaseOptions Options(bool bulk) const {
    DatabaseOptions o;
    o.path = args_.data_dir + "/wire_oltp";
    o.buffer_pool_pages = bulk ? kBulkPoolPages : kPoolPages;
    o.sync_commit = !bulk;
    o.maintenance_interval_ms = bulk ? 0 : kMaintenanceMs;
    return o;
  }

  /// Creates the database and loads the preload through the measured
  /// pool with fdatasync off; the timed set-up. The measured phases run on
  /// this instance, so the set-up calls no fdatasync: on a shared host its
  /// time would otherwise follow the host's disk.
  Status Setup(std::unique_ptr<Database>* out) {
    RemoveDbFiles(Options(false).path);
    auto db_or = Database::Create(Options(false));
    if (!db_or.ok()) return db_or.status();
    std::unique_ptr<Database> db = std::move(db_or.value());
    Status st = db->CreateIndex(1, &ext_);
    if (!st.ok()) return st;
    db->log()->SetSyncOnFlush(false);
    st = OltpLoad(db.get(), db->GetIndex(1).value(), &model_, preload_,
                  args_.threads);
    if (!st.ok()) return st;
    db->log()->SetSyncOnFlush(true);
    *out = std::move(db);
    return Status::OK();
  }

  /// Reopens the gracefully shut down database, whose index must hold
  /// exactly the acknowledged, undeleted keys; then appends the crash tail
  /// (kTailCommitted keys committed in transactions of 100, one open
  /// transaction of kTailLoser inserts, the log made durable), crashes it
  /// and copies the image aside.
  Status BuildCrashImage(const std::string& image) {
    auto db_or = Database::Open(Options(true));
    if (!db_or.ok()) return db_or.status();
    std::unique_ptr<Database> db = std::move(db_or.value());
    Status st = db->OpenIndex(1, &ext_);
    if (!st.ok()) return st;
    Gist* gist = db->GetIndex(1).value();
    model_.VerifyAtRest(db.get(), gist, rep_);

    const std::vector<uint64_t> keys = TailKeys(args_.seed);
    const std::vector<uint64_t> tail(keys.begin(),
                                     keys.begin() + kTailCommitted);
    for (uint64_t k : tail) model_.Prepare(k);
    st = OltpLoad(db.get(), gist, &model_, tail, 1);
    if (!st.ok()) return st;
    Transaction* loser = db->Begin(IsolationLevel::kReadCommitted);
    for (size_t i = kTailCommitted; i < keys.size(); i++) {
      KeyState* s = model_.Prepare(keys[i]);
      auto rid = db->InsertRecord(
          loser, gist, BtreeExtension::MakeKey(static_cast<int64_t>(s->key)),
          RecordFor(s->key));
      if (!rid.ok()) return rid.status();
      s->ins_begin.store(0);
      s->ins_failed.store(0);
    }
    st = db->log()->FlushAll();
    if (!st.ok()) return st;
    db->SimulateCrash();
    db.reset();
    return CopyDbFiles(Options(false).path, image);
  }

  /// One operation over the wire, sent at `intended` (ns).
  void WireOp(Conn* c, const OltpOp& op, uint64_t intended, Phase* ph) {
    ph->ops.attempted++;
    Status st;
    bool traced = false;
    KeyState* s = nullptr;
    std::vector<gistcr::RemoteResult> results;
    uint64_t begin_ns = 0, end_ns = 0;
    {
      ReqScope req(KindName(op.kind));
      traced = req.traced();
      begin_ns = req.start();
      ph->late.Add(begin_ns > intended ? begin_ns - intended : 0);
      const std::string key =
          BtreeExtension::MakeKey(static_cast<int64_t>(op.key));
      if (op.kind == kInsert) {
        s = model_.Prepare(op.key);
        s->ins_begin.store(begin_ns);
        SpanScope sp("client", "Client::Insert");
        auto rid = c->client->Insert(1, key, RecordFor(op.key));
        st = rid.status();
        if (st.ok()) s->rid.store(rid.value());
      } else if (op.kind == kDelete) {
        s = model_.Find(op.key);
        s->del_begin.store(begin_ns);
        SpanScope sp("client", "Client::Delete");
        st = c->client->Delete(1, key, s->rid.load());
      } else {
        SpanScope sp("client", "Client::Search");
        auto r = c->client->Search(
            1,
            BtreeExtension::MakeRange(static_cast<int64_t>(op.key),
                                      static_cast<int64_t>(op.hi)),
            /*with_records=*/true);
        st = r.status();
        if (st.ok()) results = std::move(r.value());
      }
      end_ns = NowNs();
    }
    if (!st.ok()) {
      ph->ops.failed++;
      if (op.kind == kInsert) {
        s->ins_failed.store(end_ns);
        c->stream->InsertFailed(op.key);
      } else if (op.kind == kDelete) {
        c->stream->DeleteFailed(op.key);
      }
      return;
    }
    if (op.kind == kInsert) s->ins_commit.store(end_ns);
    if (op.kind == kDelete) s->del_commit.store(end_ns);
    ph->ops.commits++;
    ph->ops.Record(op.kind, end_ns - intended, traced);
    for (const auto& r : results) {
      model_.CheckResult(static_cast<uint64_t>(BtreeExtension::Lo(r.key)),
                         r.record, begin_ns, end_ns, rep_);
    }
  }

  /// Open loop at `rate` ops/s (all connections) for `seconds`.
  Phase OpenLoop(double rate, double seconds, uint64_t abandon_ns) {
    std::vector<Phase> per(conns_.size());
    const uint64_t t0 = NowNs() + 2'000'000;
    const uint64_t end = t0 + static_cast<uint64_t>(seconds * 1e9);
    const double per_conn = rate / static_cast<double>(conns_.size());
    RunThreads(static_cast<int>(conns_.size()), [&](int i) {
      Conn* c = &conns_[static_cast<size_t>(i)];
      Phase* ph = &per[static_cast<size_t>(i)];
      double t = static_cast<double>(t0);
      uint64_t last_late = 0;
      for (;;) {
        if (!c->pending) c->pending = c->stream->Next();
        t += c->pending->gap / per_conn * 1e9;
        const uint64_t intended = static_cast<uint64_t>(t);
        if (intended >= end) break;
        uint64_t now = NowNs();
        if (now > intended + abandon_ns) {
          ph->on_schedule = false;
          break;
        }
        if (now + 200'000 < intended) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(intended - now - 100'000));
        }
        while ((now = NowNs()) < intended) {
        }
        last_late = now - intended;
        const OltpOp op = *c->pending;
        c->pending.reset();
        WireOp(c, op, intended, ph);
      }
      if (static_cast<double>(last_late) > kLatencyLimitUs * 1e3) {
        ph->on_schedule = false;
      }
      // The op drawn past the end stays pending; the next phase schedules
      // it one gap after its own start.
    });
    Phase all;
    for (Phase& p : per) {
      all.ops.Merge(p.ops);
      all.late.Merge(p.late);
      all.on_schedule = all.on_schedule && p.on_schedule;
    }
    return all;
  }

  /// Returns an undone pending op to its stream before the streams move
  /// to in-process execution.
  void DropPending() {
    for (Conn& c : conns_) {
      if (!c.pending) continue;
      if (c.pending->kind == kInsert) c.stream->InsertFailed(c.pending->key);
      if (c.pending->kind == kDelete) c.stream->DeleteFailed(c.pending->key);
      c.pending.reset();
    }
  }

  Status Run(std::vector<PoolStamp>* pools) {
    // Set-up, repeated; the last database is the one measured.
    std::vector<double> setup_s;
    std::unique_ptr<Database> db;
    for (int i = 0; i < kSetupReps; i++) {
      if (db != nullptr) db->SimulateCrash();  // discarded, not flushed
      db.reset();
      const uint64_t t0 = NowNs();
      Status st = Setup(&db);
      if (!st.ok()) return st;
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    rep_->EndToEnd("setup_s", Median(setup_s), "s", setup_s.size());
    const std::string path = Options(false).path;
    pools->push_back(PoolStamp{
        "wire_oltp", true, kPoolPages,
        kPreload * (kOltpKeyBytes + kRecordBytes) / gistcr::kPageSize});
    Status st;
    auto server = std::make_unique<Server>(db.get(), ServerOptions());
    st = server->Start();
    if (!st.ok()) return st;

    const auto owned = Partition(preload_, args_.threads);
    const uint64_t width = OltpRangeWidth(kPreload);
    for (int i = 0; i < args_.threads; i++) {
      Conn c;
      ClientOptions co;
      co.port = server->port();
      c.client = std::make_unique<Client>(co);
      st = c.client->Connect();
      if (!st.ok()) return st;
      c.stream = std::make_unique<OltpStream>(
          args_.seed, i, static_cast<uint32_t>(i) + 1, width,
          owned[static_cast<size_t>(i)]);
      conns_.push_back(std::move(c));
    }

    // Nominal phase: the latencies, the server stage split and the space.
    const double nominal_s = args_.seconds * kNominalShare;
    Tracing& tr = Tracing::Get();
    tr.Start(args_.trace);
    const RegSnap before = RegSnap::Take(db->metrics());
    const uint64_t nominal_t0 = NowNs();
    Phase nominal = OpenLoop(kNominalRate, nominal_s, kAbandonNominalNs);
    {
      const double took = static_cast<double>(NowNs() - nominal_t0) / 1e9;
      char line[160];
      std::snprintf(line, sizeof(line),
                    "nominal phase: %llu ops offered at %.0f ops/s, done in "
                    "%.3f s (%.0f ops/s completed)",
                    static_cast<unsigned long long>(nominal.ops.attempted),
                    kNominalRate, took,
                    static_cast<double>(nominal.ops.completed()) / took);
      rep_->Note(line);
    }
    const RegSnap delta = RegSnap::Take(db->metrics()).Minus(before);
    tr.Stop();
    uint64_t live = 0;
    model_.table().ForEach([&](KeyState& s) {
      if (s.LiveAtRest()) live++;
    });
    const double live_bytes =
        static_cast<double>(live * (kOltpKeyBytes + kRecordBytes));
    const double db_bytes = static_cast<double>(FileBytes(path + ".db"));
    const double wal_bytes = static_cast<double>(FileBytes(path + ".wal"));
    rep_->EndToEnd("db_bytes_per_live_byte", db_bytes / live_bytes, "ratio",
                   live);
    if (!nominal.on_schedule) {
      rep_->Note("nominal phase fell behind its schedule");
    }

    // Ramp: fixed steps, stop at the first that misses the limit.
    const double steps = sizeof(kRampSteps) / sizeof(kRampSteps[0]);
    const double local_s = args_.seconds * kLocalShare;
    const double step_s =
        (args_.seconds - nominal_s - local_s) / steps;
    double max_ok = 0;
    uint64_t ramp_attempted = 0, ramp_failed = 0;
    for (double m : kRampSteps) {
      Phase p = OpenLoop(kNominalRate * m, step_s, kAbandonStepNs);
      ramp_attempted += p.ops.attempted;
      ramp_failed += p.ops.failed;
      Samples all;
      for (int k = 0; k < kNumKinds; k++) all.Merge(p.ops.lat[k]);
      const double p99 = NsToUs(all.Quantile(0.99));
      char line[160];
      std::snprintf(line, sizeof(line),
                    "ramp step %.0f ops/s: p99 %.1f us over %zu ops, %llu "
                    "failed, %s", kNominalRate * m, p99, all.size(),
                    static_cast<unsigned long long>(p.ops.failed),
                    p.on_schedule ? "on schedule" : "behind schedule");
      rep_->Note(line);
      if (p99 > kLatencyLimitUs || p.ops.failed != 0 || !p.on_schedule) break;
      max_ok = kNominalRate * m;
    }
    DropPending();

    // In-process phase: the same streams, closed loop, through the embedded
    // API, with commits that write the log but skip fdatasync. Its
    // throughput and latencies are the workload's end-to-end figures. A
    // durable request over the wire waits for an fsync and four thread
    // wake-ups, and on a shared host both follow the host's load (the wire
    // p50s moved fourfold between runs of the same code), so the wire
    // latencies are per-layer figures.
    db->log()->SetSyncOnFlush(false);
    Gist* gist = db->GetIndex(1).value();
    std::vector<OpLog> local_logs(conns_.size());
    const double local_rate = RunClosedLoop(args_.threads, local_s, [&](int t) {
      model_.RunEmbedded(conns_[static_cast<size_t>(t)].stream.get(), db.get(),
                         gist, &local_logs[static_cast<size_t>(t)], rep_);
      return true;
    });
    OpLog local;
    for (const OpLog& l : local_logs) local.Merge(l);
    ReportLatencies(&local, local_rate, rep_);

    // Graceful shutdown (the server's drain ends with a checkpoint; flush
    // and checkpoint once more so the image is settled whatever the last
    // maintenance pass left dirty), reopen and check, then the crash
    // restarts.
    st = server->Shutdown();
    if (!st.ok()) return st;
    server.reset();
    for (Conn& c : conns_) c.client->Close();
    st = db->FlushAll();
    if (st.ok()) st = db->Checkpoint();
    if (!st.ok()) return st;
    db.reset();
    const std::string image = path + "_image";
    st = BuildCrashImage(image);
    if (!st.ok()) return st;
    RestartResult rr;
    std::vector<OpLog> ramp_logs;
    st = RunCrashCycles(
        Options(false), image, &ext_,
        [this](Database* d, Gist* g, int i) {
          return model_.Probe(d, g, kProbeTag, static_cast<uint64_t>(i),
                              args_.seed);
        },
        [this](int i) {
          model_.RollBackProbe(kProbeTag, static_cast<uint64_t>(i), args_.seed);
        },
        kCrashCycles, args_.threads, 1.0,
        [this](int t, Database* d, Gist* g, OpLog* l) {
          model_.RunEmbedded(conns_[static_cast<size_t>(t)].stream.get(), d, g,
                             l, rep_);
          return true;
        },
        &ramp_logs, &rr, rep_);
    RemoveDbFiles(image);
    if (!st.ok()) return st;
    rep_->EndToEnd("ttfc_ms", rr.ttfc_ms, "ms", kCrashCycles);
    rep_->Layer("ramp_commits_per_s", rr.ramp_commits_per_s, "1/s", 1);
    rep_->EndToEnd("recovered_ms", rr.recovered_ms, "ms", kCrashCycles);

    rep_->attempted =
        nominal.ops.attempted + ramp_attempted + local.attempted + kCrashCycles;
    rep_->failed = nominal.ops.failed + ramp_failed + local.failed;
    for (const OpLog& l : ramp_logs) {
      rep_->attempted += l.attempted;
      rep_->failed += l.failed;
    }

    ReportLayers(delta, nominal.ops, tr.Collect(), rep_);
    rep_->Layer("loadgen.late_us_p99", NsToUs(nominal.late.Quantile(0.99)), "us",
                nominal.late.size());
    rep_->Layer("loadgen.max_ok_rate_ops_s", max_ok, "1/s");
    for (int k = 0; k < kNumKinds; k++) {
      rep_->Layer(std::string("wire.") + KindName(k) + "_p50_us",
                  NsToUs(nominal.ops.lat[k].Quantile(0.50)), "us",
                  nominal.ops.lat[k].size());
    }
    rep_->Layer("db.file_bytes", db_bytes, "bytes");
    rep_->Layer("db.live_bytes", live_bytes, "bytes");
    rep_->Layer("wal.file_bytes", wal_bytes, "bytes");
    ReportRecoveryLayers(rr, rep_);

    model_.VerifyAtRest(rr.db.get(), rr.db->GetIndex(1).value(), rep_);
    rr.db.reset();
    RemoveDbFiles(path);
    return Status::OK();
  }

 private:
  const Args& args_;
  Report* rep_;
  BtreeExtension ext_;
  OltpModel model_;
  std::vector<uint64_t> preload_;
  std::vector<Conn> conns_;
};

}  // namespace

Status RunWireOltp(const Args& args, Report* rep,
                   std::vector<PoolStamp>* pools) {
  auto w = std::make_unique<Workload>(args, rep);
  return w->Run(pools);
}

uint64_t WireOltpDigest(uint64_t seed, uint64_t ops) {
  Rng r(Mix(seed, 777));
  std::vector<uint64_t> preload;
  uint64_t h = 0;
  for (uint64_t i = 0; i < kPreload; i++) {
    preload.push_back(OltpKey(&r, 0, i));
    h = Mix(h, preload.back());
  }
  for (uint64_t k : TailKeys(seed)) h = Mix(h, k);
  const auto owned = Partition(preload, 4);
  for (int i = 0; i < 4; i++) {
    OltpStream s(seed, i, static_cast<uint32_t>(i) + 1,
                 OltpRangeWidth(kPreload), owned[static_cast<size_t>(i)]);
    for (uint64_t k = 0; k < ops; k++) {
      const OltpOp op = s.Next();
      uint64_t g;
      std::memcpy(&g, &op.gap, 8);
      h = Mix(h, (static_cast<uint64_t>(op.kind) << 60) ^ op.key ^ (op.hi << 1) ^ g);
    }
  }
  return h;
}

}  // namespace perfbench
