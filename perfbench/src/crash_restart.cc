// crash_restart: instant restart of a crashed B-tree under committing load.
//
// Set-up builds one crash image: preload 100k keys, checkpoint, 100k
// committed single-row inserts, then a 30k-insert loser transaction left
// open, and SimulateCrash(). The image is built with sync_commit off and
// the log flushed explicitly before the crash: the bytes on disk are the
// same as with per-commit fsync, only the set-up is faster. Each measured
// cycle restores the image, opens it in the default instant mode with a
// 512-page pool (commits skip fdatasync, as in wire_oltp), commits one
// probe insert (time to first commit), then runs 4 closed-loop threads of
// the OLTP mix while recovery drains, with WaitForRecovery timed
// alongside. After each cycle every committed key must be present, no
// loser key, and the tree's invariants must hold.
#include <cstdio>
#include <cstring>
#include <memory>

#include "oltp.h"
#include "storage/page.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gistcr::BtreeExtension;
using gistcr::Database;
using gistcr::DatabaseOptions;
using gistcr::Gist;
using gistcr::IsolationLevel;
using gistcr::Transaction;

constexpr uint64_t kPreload = 100000;
constexpr uint64_t kCommitted = 100000;
constexpr uint64_t kLoser = 30000;
constexpr size_t kSetupPoolPages = 16384;
constexpr size_t kPoolPages = 512;
constexpr uint32_t kMaintenanceMs = 250;
constexpr int kSetupReps = 3;
/// Restarts per run; ttfc, recovered time and ramp are their medians.
constexpr int kCycles = 3;
/// Every cycle runs at least this long after WaitForRecovery returns.
constexpr double kMinPostRecoveryS = 1.0;
constexpr uint32_t kProbeTag = 5;
constexpr uint32_t kCommittedTag = 6;
constexpr uint32_t kLoserTag = 7;

struct Population {
  std::vector<uint64_t> preload, committed, loser;
  explicit Population(uint64_t seed) {
    Rng r(Mix(seed, 888));
    for (uint64_t i = 0; i < kPreload; i++) preload.push_back(OltpKey(&r, 0, i));
    for (uint64_t i = 0; i < kCommitted; i++) {
      committed.push_back(OltpKey(&r, kCommittedTag, i));
    }
    for (uint64_t i = 0; i < kLoser; i++) {
      loser.push_back(OltpKey(&r, kLoserTag, i));
    }
  }
  std::vector<uint64_t> Durable() const {
    std::vector<uint64_t> all = preload;
    all.insert(all.end(), committed.begin(), committed.end());
    return all;
  }
};

class Workload {
 public:
  Workload(const Args& args, Report* rep)
      : args_(args), rep_(rep), pop_(args.seed) {}

  std::string Path() const { return args_.data_dir + "/crash_restart"; }
  std::string ImagePath() const { return Path() + "_image"; }

  DatabaseOptions Options(bool setup) const {
    DatabaseOptions o;
    o.path = Path();
    o.buffer_pool_pages = setup ? kSetupPoolPages : kPoolPages;
    o.sync_commit = false;
    o.maintenance_interval_ms = setup ? 0 : kMaintenanceMs;
    return o;
  }

  Status Setup() {
    RemoveDbFiles(Path());
    model_.Reset();
    for (uint64_t k : pop_.preload) model_.Prepare(k);
    for (uint64_t k : pop_.committed) model_.Prepare(k);
    auto db_or = Database::Create(Options(true));
    if (!db_or.ok()) return db_or.status();
    std::unique_ptr<Database> db = std::move(db_or.value());
    Status st = db->CreateIndex(1, &ext_);
    if (!st.ok()) return st;
    Gist* gist = db->GetIndex(1).value();
    st = OltpLoad(db.get(), gist, &model_, pop_.preload, args_.threads);
    if (st.ok()) st = db->FlushAll();
    if (st.ok()) st = db->Checkpoint();
    if (!st.ok()) return st;

    // Committed single-row transactions: the redo span past the checkpoint.
    std::vector<Status> errs(static_cast<size_t>(args_.threads));
    RunThreads(args_.threads, [&](int t) {
      for (size_t i = static_cast<size_t>(t); i < pop_.committed.size();
           i += static_cast<size_t>(args_.threads)) {
        const uint64_t key = pop_.committed[i];
        Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
        auto rid = db->InsertRecord(
            txn, gist, BtreeExtension::MakeKey(static_cast<int64_t>(key)),
            RecordFor(key));
        Status s = rid.status();
        if (s.ok()) s = db->Commit(txn);
        if (!s.ok()) {
          (void)db->Abort(txn);
          errs[static_cast<size_t>(t)] = s;
          return;
        }
        model_.Find(key)->MarkPreloaded(rid.value().Pack());
      }
    });
    for (const Status& e : errs) {
      if (!e.ok()) return e;
    }

    // The loser: one open bulk insert whose log is durable.
    Transaction* loser = db->Begin(IsolationLevel::kReadCommitted);
    for (uint64_t key : pop_.loser) {
      auto rid = db->InsertRecord(
          loser, gist, BtreeExtension::MakeKey(static_cast<int64_t>(key)),
          RecordFor(key));
      if (!rid.ok()) return rid.status();
    }
    st = db->log()->FlushAll();
    if (!st.ok()) return st;
    db->SimulateCrash();
    db.reset();
    return CopyDbFiles(Path(), ImagePath());
  }

  /// Resets the model to the crash image: durable keys committed (with the
  /// rids the set-up recorded), loser keys aborted.
  void ResetModel(const std::vector<uint64_t>& rids) {
    const std::vector<uint64_t> durable = pop_.Durable();
    model_.Reset();
    for (size_t i = 0; i < durable.size(); i++) {
      model_.Prepare(durable[i])->MarkPreloaded(rids[i]);
    }
    for (uint64_t k : pop_.loser) {
      KeyState* s = model_.Prepare(k);
      s->ins_begin.store(0);
      s->ins_failed.store(0);
    }
    const auto owned = Partition(durable, args_.threads);
    streams_.clear();
    for (int i = 0; i < args_.threads; i++) {
      streams_.push_back(std::make_unique<OltpStream>(
          args_.seed, i, static_cast<uint32_t>(i) + 1,
          OltpRangeWidth(durable.size()), owned[static_cast<size_t>(i)]));
    }
  }

  Status Run(std::vector<PoolStamp>* pools) {
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupReps; i++) {
      const uint64_t t0 = NowNs();
      Status st = Setup();
      if (!st.ok()) return st;
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    rep_->EndToEnd("setup_s", Median(setup_s), "s", setup_s.size());
    pools->push_back(PoolStamp{"crash_restart", false, kPoolPages,
                               FileBytes(ImagePath() + ".db") / gistcr::kPageSize});
    std::vector<uint64_t> rids;
    for (uint64_t k : pop_.Durable()) rids.push_back(model_.Find(k)->rid.load());

    Tracing& tr = Tracing::Get();
    OpLog all, last;
    RegSnap last_reg;
    std::vector<double> ttfc, recovered, ramp, post_rate;
    double db_bytes = 0, live_bytes = 0, wal_bytes = 0;
    for (int cycle = 0; cycle < kCycles; cycle++) {
      Status st = CopyDbFiles(ImagePath(), Path());
      if (!st.ok()) return st;
      ResetModel(rids);
      RestartResult rr;
      std::vector<OpLog> logs;
      tr.Start(args_.trace);
      st = RunRestart(
          Options(false), &ext_,
          [&](Database* d, Gist* g) {
            return model_.Probe(d, g, kProbeTag, static_cast<uint64_t>(cycle),
                                args_.seed);
          },
          args_.threads, args_.seconds / kCycles, kMinPostRecoveryS,
          [this](int t, Database* d, Gist* g, OpLog* l) {
            model_.RunEmbedded(streams_[static_cast<size_t>(t)].get(), d, g, l,
                               rep_);
            return true;
          },
          &logs, &rr);
      tr.Stop();
      if (!st.ok()) return st;
      ttfc.push_back(rr.ttfc_ms);
      recovered.push_back(rr.recovered_ms);
      ramp.push_back(rr.ramp_commits_per_s);
      post_rate.push_back(rr.post_recovery_ops_per_s);
      last = OpLog();
      for (const OpLog& l : logs) last.Merge(l);
      all.Merge(last);
      rep_->attempted += 1;  // the probe
      last_reg = RegSnap::Take(rr.db->metrics());
      const uint64_t live = model_.VerifyAtRest(rr.db.get(),
                                                rr.db->GetIndex(1).value(), rep_);
      live_bytes = static_cast<double>(live * (kOltpKeyBytes + kRecordBytes));
      ReportRecoveryLayers(rr, rep_);  // the last cycle's figures stand
      rr.db.reset();
      db_bytes = static_cast<double>(FileBytes(Path() + ".db"));
      wal_bytes = static_cast<double>(FileBytes(Path() + ".wal"));
    }
    RemoveDbFiles(Path());
    RemoveDbFiles(ImagePath());

    // Throughput here is the rate after recovery finished (median over the
    // cycles): before that, new work mostly waits for loser undo, and how
    // long that takes is recovered_ms's business.
    ReportLatencies(&all, Median(post_rate), rep_);
    rep_->EndToEnd("db_bytes_per_live_byte", db_bytes / live_bytes, "ratio",
                   kCycles);
    rep_->EndToEnd("ttfc_ms", Median(ttfc), "ms", ttfc.size());
    rep_->Layer("ramp_commits_per_s", Median(ramp), "1/s", ramp.size());
    rep_->EndToEnd("recovered_ms", Median(recovered), "ms", recovered.size());
    rep_->attempted += all.attempted;
    rep_->failed += all.failed;

    ReportLayers(last_reg, last, tr.Collect(), rep_);
    rep_->Layer("db.file_bytes", db_bytes, "bytes");
    rep_->Layer("db.live_bytes", live_bytes, "bytes");
    rep_->Layer("wal.file_bytes", wal_bytes, "bytes");
    return Status::OK();
  }

 private:
  const Args& args_;
  Report* rep_;
  BtreeExtension ext_;
  Population pop_;
  OltpModel model_;
  std::vector<std::unique_ptr<OltpStream>> streams_;
};

}  // namespace

Status RunCrashRestart(const Args& args, Report* rep,
                       std::vector<PoolStamp>* pools) {
  auto w = std::make_unique<Workload>(args, rep);
  return w->Run(pools);
}

uint64_t CrashRestartDigest(uint64_t seed, uint64_t ops) {
  const Population pop(seed);
  uint64_t h = 0;
  const std::vector<uint64_t> durable = pop.Durable();
  for (uint64_t k : durable) h = Mix(h, k);
  for (uint64_t k : pop.loser) h = Mix(h, k);
  const auto owned = Partition(durable, 4);
  for (int i = 0; i < 4; i++) {
    OltpStream s(seed, i, static_cast<uint32_t>(i) + 1,
                 OltpRangeWidth(durable.size()), owned[static_cast<size_t>(i)]);
    for (uint64_t k = 0; k < ops; k++) {
      const OltpOp op = s.Next();
      h = Mix(h, (static_cast<uint64_t>(op.kind) << 60) ^ op.key ^ (op.hi << 1));
    }
  }
  return h;
}

}  // namespace perfbench
