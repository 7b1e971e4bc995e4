#ifndef GISTCR_TESTS_CRASH_HARNESS_H_
#define GISTCR_TESTS_CRASH_HARNESS_H_

/// Fork-based crash-torture harness (ISSUE 2 tentpole).
///
/// Shape of every matrix case:
///   1. Parent forks. The child builds a fresh database, arms one named
///      crash point in kExit mode (AFTER setup, so bootstrap commits do not
///      trip txn/wal points), and runs a deterministic single-threaded
///      mixed insert/delete/GC/checkpoint workload until the point fires
///      and _Exit(42)s the process mid-operation — a simulated power cut.
///   2. The parent computes the ground-truth visible set by scanning the
///      durable WAL tail exactly as recovery will (committed Add-Leaf-Entry
///      records minus committed Mark-Leaf-Entry records; a transaction is
///      committed iff its Commit record is durable).
///   3. The parent re-opens the database (restart recovery runs), then
///      asserts full tree integrity (CheckInvariants: BP containment,
///      level sanity, rightlink acyclicity, RID uniqueness) and exact
///      atomicity (search result set == oracle, and every visible rid's
///      heap record is readable).
///
/// The WAL oracle is sound because the workload keys are unique and never
/// reinserted, and the child never uses savepoint rollback — so a committed
/// transaction's record set is order-insensitive and CLR-free.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "access/btree_extension.h"
#include "db/database.h"
#include "storage/fault_injector.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "wal/log_payloads.h"

namespace gistcr {
namespace crash {

struct TortureOptions {
  uint64_t seed = 7;
  int txns = 48;
  uint16_t max_entries = 5;  ///< Per-node cap: splits with few keys.
  size_t buffer_pool_pages = 512;
  /// Keys inserted (committed) before the crash point is armed. Use with a
  /// small pool to make the armed phase eviction-heavy.
  int preload_keys = 0;
};

[[noreturn]] inline void ChildDie(const char* what, const Status& st) {
  std::fprintf(stderr, "crash-harness child: %s: %s\n", what,
               st.ToString().c_str());
  std::_Exit(3);
}

#define GISTCR_CHILD_OK(what, expr)            \
  do {                                         \
    ::gistcr::Status _st = (expr);             \
    if (!_st.ok()) ChildDie(what, _st);        \
  } while (0)

/// Child body: build, arm, torture. Never returns — exits 42 when the
/// armed point fires, 0 when the workload drains without firing, 3 on an
/// unexpected error.
[[noreturn]] inline void RunTortureChild(const std::string& path,
                                         const std::string& point, int skip,
                                         const TortureOptions& opt) {
  static BtreeExtension ext;  // outlives the Database
  DatabaseOptions dopts;
  dopts.path = path;
  dopts.buffer_pool_pages = opt.buffer_pool_pages;
  auto db_or = Database::Create(dopts);
  if (!db_or.ok()) ChildDie("create", db_or.status());
  std::unique_ptr<Database> db = db_or.MoveValue();
  GistOptions gopts;
  gopts.index_id = 1;
  gopts.max_entries = opt.max_entries;
  GISTCR_CHILD_OK("create index", db->CreateIndex(1, &ext, gopts));
  auto gist_or = db->GetIndex(1);
  if (!gist_or.ok()) ChildDie("get index", gist_or.status());
  Gist* gist = gist_or.value();

  Random rng(opt.seed);
  std::map<int64_t, uint64_t> live;  // committed live keys -> packed rid
  int64_t next_key = 0;

  for (int i = 0; i < opt.preload_keys; i += 16) {
    Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
    for (int j = i; j < i + 16 && j < opt.preload_keys; j++) {
      const int64_t k = next_key++;
      auto rid_or = db->InsertRecord(txn, gist, BtreeExtension::MakeKey(k),
                                     "v" + std::to_string(k));
      if (!rid_or.ok()) ChildDie("preload insert", rid_or.status());
      live[k] = rid_or.value().Pack();
    }
    GISTCR_CHILD_OK("preload commit", db->Commit(txn));
  }

  // Setup is done: everything after this line can die at the armed point.
  FaultInjector::Global().Reset();
  FaultInjector::Global().ArmCrashPoint(point, skip,
                                        FaultInjector::CrashAction::kExit);

  for (int t = 0; t < opt.txns; t++) {
    if (t == opt.txns / 3) {
      // Mass delete two thirds of the live keys, then garbage-collect:
      // empties leaves and exercises GC / node-deletion crash points.
      Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
      std::vector<int64_t> doomed;
      int i = 0;
      for (const auto& [k, rid] : live) {
        if (i++ % 3 != 2) doomed.push_back(k);
      }
      for (int64_t k : doomed) {
        GISTCR_CHILD_OK("mass delete",
                        db->DeleteRecord(txn, gist, BtreeExtension::MakeKey(k),
                                         Rid::Unpack(live[k])));
      }
      GISTCR_CHILD_OK("mass delete commit", db->Commit(txn));
      for (int64_t k : doomed) live.erase(k);
    }
    if (t == opt.txns / 3 || t == 2 * opt.txns / 3) {
      Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
      uint64_t removed = 0, nodes = 0;
      GISTCR_CHILD_OK("gc", gist->GarbageCollect(txn, &removed, &nodes));
      GISTCR_CHILD_OK("gc commit", db->Commit(txn));
    }
    if (t == opt.txns / 2) {
      GISTCR_CHILD_OK("checkpoint", db->Checkpoint());
    }

    Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
    std::vector<std::pair<int64_t, uint64_t>> added;
    std::set<int64_t> removed;
    const int ops = 2 + static_cast<int>(rng.Uniform(5));
    for (int i = 0; i < ops; i++) {
      const bool do_delete =
          !live.empty() && removed.size() < live.size() && rng.Uniform(3) == 0;
      if (do_delete) {
        auto it = live.begin();
        std::advance(it, static_cast<long>(rng.Uniform(live.size())));
        if (removed.count(it->first) != 0) continue;
        GISTCR_CHILD_OK(
            "delete", db->DeleteRecord(txn, gist,
                                       BtreeExtension::MakeKey(it->first),
                                       Rid::Unpack(it->second)));
        removed.insert(it->first);
      } else {
        const int64_t k = next_key++;
        auto rid_or = db->InsertRecord(txn, gist, BtreeExtension::MakeKey(k),
                                       "v" + std::to_string(k));
        if (!rid_or.ok()) ChildDie("insert", rid_or.status());
        added.emplace_back(k, rid_or.value().Pack());
      }
    }
    if (rng.Uniform(6) == 0) {
      GISTCR_CHILD_OK("abort", db->Abort(txn));
    } else {
      GISTCR_CHILD_OK("commit", db->Commit(txn));
      for (const auto& [k, rid] : added) live[k] = rid;
      for (int64_t k : removed) live.erase(k);
    }
  }
  std::_Exit(0);  // the armed point never fired
}

/// Forks, runs RunTortureChild in the child, returns the child's exit code
/// (-1 if it died on a signal or the fork failed).
inline int ForkTorture(const std::string& path, const std::string& point,
                       int skip, const TortureOptions& opt) {
  std::fflush(nullptr);  // don't duplicate buffered gtest output
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    RunTortureChild(path, point, skip, opt);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  if (!WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

/// Ground truth computed from the durable WAL — the same prefix restart
/// recovery will see.
struct Oracle {
  std::map<int64_t, uint64_t> visible;  // key -> packed rid
};

inline Status ComputeOracle(const std::string& path, Oracle* out) {
  struct TxnAgg {
    bool committed = false;
    std::vector<std::pair<int64_t, uint64_t>> adds;
    std::vector<int64_t> marks;
  };
  LogManager log;
  GISTCR_RETURN_IF_ERROR(log.Open(path + ".wal"));
  std::unordered_map<TxnId, TxnAgg> txns;
  GISTCR_RETURN_IF_ERROR(log.Scan(kInvalidLsn, [&](const LogRecord& rec) {
    if (rec.txn_id == kInvalidTxnId) return true;
    TxnAgg& agg = txns[rec.txn_id];
    EntryOpPayload pl;
    switch (rec.type) {
      case LogRecordType::kCommit:
        agg.committed = true;
        break;
      case LogRecordType::kAddLeafEntry:
        if (pl.DecodeFrom(rec.payload)) {
          agg.adds.emplace_back(BtreeExtension::Lo(pl.entry.key),
                                pl.entry.value);
        }
        break;
      case LogRecordType::kMarkLeafEntry:
        if (pl.DecodeFrom(rec.payload)) {
          agg.marks.push_back(BtreeExtension::Lo(pl.entry.key));
        }
        break;
      default:
        break;
    }
    return true;
  }));
  out->visible.clear();
  for (const auto& [id, agg] : txns) {
    (void)id;
    if (!agg.committed) continue;
    for (const auto& [k, rid] : agg.adds) out->visible[k] = rid;
  }
  for (const auto& [id, agg] : txns) {
    (void)id;
    if (!agg.committed) continue;
    for (int64_t k : agg.marks) out->visible.erase(k);
  }
  return Status::OK();
}

/// Sanity-checks the flight-recorder sidecar an induced crash must leave
/// behind (ISSUE 6 tentpole): the file exists, is one JSON object, and
/// carries the reason plus the metrics/slow-op/trace sections. Call after
/// ForkTorture returned kCrashExitCode, before re-opening the database.
inline void VerifyFlightArtifact(const std::string& path) {
  const std::string flight = path + ".flight";
  FILE* f = std::fopen(flight.c_str(), "r");
  ASSERT_NE(f, nullptr) << "crash left no flight artifact at " << flight;
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  ASSERT_FALSE(contents.empty()) << flight << " is empty";
  EXPECT_EQ(contents.front(), '{') << flight << " is not a JSON object";
  EXPECT_NE(contents.find("\"reason\":\""), std::string::npos);
  EXPECT_NE(contents.find("\"metrics\":"), std::string::npos);
  EXPECT_NE(contents.find("\"slow_ops\":"), std::string::npos);
  EXPECT_NE(contents.find("\"trace\":"), std::string::npos);
}

/// Restart recovery + full integrity and atomicity verification. Gtest
/// assertions fire inside, so call from a TEST body.
inline void RecoverAndVerify(const std::string& path,
                             const TortureOptions& opt) {
  Oracle oracle;
  ASSERT_OK(ComputeOracle(path, &oracle));

  static BtreeExtension ext;
  DatabaseOptions dopts;
  dopts.path = path;
  dopts.buffer_pool_pages = opt.buffer_pool_pages;
  auto db_or = Database::Open(dopts);
  ASSERT_OK(db_or.status());
  std::unique_ptr<Database> db = db_or.MoveValue();
  // Under instant restart the open returns mid-recovery; the oracle
  // describes the *final* state, so drain before verifying.
  ASSERT_OK(db->WaitForRecovery());
  GistOptions gopts;
  gopts.index_id = 1;
  gopts.max_entries = opt.max_entries;
  ASSERT_OK(db->OpenIndex(1, &ext, gopts));
  auto gist_or = db->GetIndex(1);
  ASSERT_OK(gist_or.status());
  Gist* gist = gist_or.value();

  // Structural integrity: BP containment, levels, rightlink chain, RID
  // uniqueness.
  ASSERT_OK(gist->CheckInvariants());

  // Atomicity: the live set equals the WAL oracle exactly.
  Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
  std::vector<SearchResult> results;
  ASSERT_OK(gist->Search(txn, BtreeExtension::MakeRange(0, 1 << 20),
                         &results));
  ASSERT_OK(db->Commit(txn));
  std::map<int64_t, uint64_t> found;
  for (const SearchResult& r : results) {
    const int64_t k = BtreeExtension::Lo(r.key);
    EXPECT_EQ(found.count(k), 0u) << "duplicate visible key " << k;
    found[k] = r.rid.Pack();
  }
  EXPECT_EQ(found, oracle.visible);

  // Durability reaches the heap too: every visible rid must resolve.
  for (const auto& [k, rid] : oracle.visible) {
    auto rec_or = db->ReadRecord(Rid::Unpack(rid));
    EXPECT_TRUE(rec_or.ok()) << "heap record for key " << k << " lost: "
                             << rec_or.status().ToString();
    if (rec_or.ok()) {
      EXPECT_EQ(rec_or.value(), "v" + std::to_string(k));
    }
  }
}

/// Restart modes a recovery test body runs under (DatabaseOptions::
/// instant_restart).
enum class RestartMode { kOffline, kInstant };

inline const char* RestartModeName(RestartMode m) {
  return m == RestartMode::kInstant ? "instant" : "offline";
}

/// One restart scenario, in the shape of Zero's runRestartTest: PreCrash
/// builds state on a fresh database (index 1, B-tree, 8 entries per node)
/// and may leave transactions open; the harness then crashes it; after
/// recovery has drained, PostRestart checks the reopened database.
struct RestartScenario {
  virtual ~RestartScenario() = default;
  virtual void PreCrash(Database* db, Gist* gist) = 0;
  virtual void PostRestart(Database* db, Gist* gist) = 0;
};

/// Runs \p s: create, PreCrash, SimulateCrash (buffer pool and unflushed
/// log tail lost), then \p restarts restarts in \p mode — each one but the
/// last drains recovery and crashes again — and PostRestart on the last.
/// Gtest assertions fire inside, so call from a TEST body.
inline void RunRestartTest(const std::string& path, RestartScenario* s,
                           RestartMode mode, int restarts = 1) {
  static BtreeExtension ext;
  GistOptions gopts;
  gopts.max_entries = 8;
  DatabaseOptions opts;
  opts.path = path;
  opts.buffer_pool_pages = 256;
  opts.instant_restart = mode == RestartMode::kInstant;
  {
    auto db_or = Database::Create(opts);
    ASSERT_OK(db_or.status());
    std::unique_ptr<Database> db = db_or.MoveValue();
    ASSERT_OK(db->CreateIndex(1, &ext, gopts));
    s->PreCrash(db.get(), db->GetIndex(1).value());
    if (::testing::Test::HasFatalFailure()) return;
    db->SimulateCrash();
  }
  for (int round = 1; round <= restarts; round++) {
    auto db_or = Database::Open(opts);
    ASSERT_OK(db_or.status());
    std::unique_ptr<Database> db = db_or.MoveValue();
    ASSERT_OK(db->WaitForRecovery());
    if (round < restarts) {
      db->SimulateCrash();
      continue;
    }
    ASSERT_OK(db->OpenIndex(1, &ext, gopts));
    s->PostRestart(db.get(), db->GetIndex(1).value());
  }
}

}  // namespace crash
}  // namespace gistcr

#endif  // GISTCR_TESTS_CRASH_HARNESS_H_
