#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "access/btree_extension.h"
#include "storage/fault_injector.h"
#include "tests/test_util.h"
#include "wal/log_payloads.h"

namespace gistcr {
namespace {

/// Read-only transactions log nothing (DESIGN.md section 11): Begin writes
/// no record, the Begin record goes in front of a transaction's first
/// update, and a transaction that reaches Commit or Abort having logged
/// nothing appends nothing and forces nothing.
class ReadOnlyTxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("ro");
    RemoveDbFiles(path_);
    opts_.path = path_;
    opts_.buffer_pool_pages = 512;
    auto db_or = Database::Create(opts_);
    ASSERT_OK(db_or.status());
    db_ = db_or.MoveValue();
    GistOptions gopts;
    gopts.max_entries = 8;
    ASSERT_OK(db_->CreateIndex(1, &ext_, gopts));
    gist_ = db_->GetIndex(1).value();
    Transaction* txn = db_->Begin(IsolationLevel::kReadCommitted);
    for (int64_t k = 0; k < 40; k++) Insert(txn, k);
    ASSERT_OK(db_->Commit(txn));
  }
  void TearDown() override {
    db_.reset();
    RemoveDbFiles(path_);
  }

  Rid Insert(Transaction* txn, int64_t key) {
    auto rid = db_->InsertRecord(txn, gist_, BtreeExtension::MakeKey(key),
                                 "v" + std::to_string(key));
    EXPECT_OK(rid.status());
    return rid.ok() ? rid.value() : Rid{};
  }

  size_t Count(Transaction* txn, int64_t lo, int64_t hi) {
    std::vector<SearchResult> results;
    EXPECT_OK(gist_->Search(txn, BtreeExtension::MakeRange(lo, hi),
                            &results));
    return results.size();
  }

  /// Committed keys in [lo, hi], read by a fresh read-committed search.
  size_t CountCommitted(int64_t lo, int64_t hi) {
    Transaction* txn = db_->Begin(IsolationLevel::kReadCommitted);
    const size_t n = Count(txn, lo, hi);
    EXPECT_OK(db_->Commit(txn));
    return n;
  }

  uint64_t Counter(const char* name) {
    return db_->metrics()->GetCounter(name)->value();
  }
  uint64_t FlushWaits() {
    return db_->metrics()
        ->GetHistogram("wal.flusher.wait_ns")
        ->GetSnapshot()
        .count;
  }

  /// Payload of the checkpoint the master pointer names.
  CheckpointPayload MasterCheckpoint() {
    CheckpointPayload pl;
    FILE* f = std::fopen((path_ + ".ckpt").c_str(), "r");
    EXPECT_NE(f, nullptr);
    if (f == nullptr) return pl;
    unsigned long long lsn = 0;
    EXPECT_EQ(std::fscanf(f, "%llu", &lsn), 1);
    std::fclose(f);
    LogRecord rec;
    EXPECT_OK(db_->log()->ReadRecord(static_cast<Lsn>(lsn), &rec));
    EXPECT_EQ(rec.type, LogRecordType::kCheckpoint);
    EXPECT_TRUE(pl.DecodeFrom(rec.payload));
    return pl;
  }

  std::string path_;
  DatabaseOptions opts_;
  std::unique_ptr<Database> db_;
  BtreeExtension ext_;
  Gist* gist_ = nullptr;
};

TEST_F(ReadOnlyTxnTest, SearchTxnsAppendAndForceNothing) {
  // A writer's uncommitted records sit unforced in the log tail, so any
  // force a reader issued would have to wait for the flusher.
  Transaction* writer = db_->Begin(IsolationLevel::kReadCommitted);
  Insert(writer, 1000);
  for (IsolationLevel iso :
       {IsolationLevel::kReadCommitted, IsolationLevel::kRepeatableRead}) {
    for (bool commit : {true, false}) {
      const uint64_t appends = Counter("wal.appends");
      const uint64_t waits = FlushWaits();
      const uint64_t ro_commits = Counter("txn.readonly_commits");
      const uint64_t ro_aborts = Counter("txn.readonly_aborts");
      Transaction* reader = db_->Begin(iso);
      const TxnId id = reader->id();
      EXPECT_EQ(Count(reader, 0, 99), 40u);
      EXPECT_EQ(reader->last_lsn(), kInvalidLsn);
      ASSERT_OK(commit ? db_->Commit(reader) : db_->Abort(reader));
      EXPECT_EQ(Counter("wal.appends"), appends);
      EXPECT_EQ(FlushWaits(), waits);
      EXPECT_EQ(Counter("txn.readonly_commits"), ro_commits + (commit ? 1 : 0));
      EXPECT_EQ(Counter("txn.readonly_aborts"), ro_aborts + (commit ? 0 : 1));
      // Locks and predicates are gone with the transaction.
      EXPECT_FALSE(db_->txns()->IsActive(id));
      EXPECT_FALSE(db_->locks()->Holds(id, LockName{LockSpace::kTxn, id},
                                       LockMode::kExclusive));
    }
  }
  ASSERT_OK(db_->Commit(writer));
  EXPECT_EQ(CountCommitted(0, 2000), 41u);
  EXPECT_EQ(db_->txns()->OpenCount(), 0u);
  // Both stats surfaces carry the counters: kStats (JSON) and Prometheus.
  EXPECT_NE(db_->DumpMetrics(/*as_json=*/true).find("\"txn.readonly_aborts\""),
            std::string::npos);
  const std::string prom = db_->DumpMetricsPrometheus();
  EXPECT_NE(prom.find("\ngistcr_txn_readonly_commits 3\n"), std::string::npos);
  EXPECT_NE(prom.find("\ngistcr_txn_readonly_aborts 2\n"), std::string::npos);
}

TEST_F(ReadOnlyTxnTest, ReadThenWriteLogsBeginFirstAndAbortUndoesAll) {
  Transaction* txn = db_->Begin(IsolationLevel::kRepeatableRead);
  EXPECT_EQ(Count(txn, 0, 99), 40u);
  EXPECT_EQ(txn->first_lsn(), kInvalidLsn);
  for (int64_t k = 100; k < 130; k++) Insert(txn, k);
  // Walk the backchain: it ends at the transaction's Begin record, which
  // is its first record.
  Lsn cur = txn->last_lsn();
  LogRecord rec;
  size_t begins = 0;
  while (cur != kInvalidLsn) {
    ASSERT_OK(db_->log()->ReadRecord(cur, &rec));
    EXPECT_EQ(rec.txn_id, txn->id());
    if (rec.type == LogRecordType::kBegin) begins++;
    cur = rec.prev_lsn;
  }
  EXPECT_EQ(rec.type, LogRecordType::kBegin);
  EXPECT_EQ(rec.lsn, txn->first_lsn());
  EXPECT_EQ(begins, 1u);
  ASSERT_OK(db_->Abort(txn));
  EXPECT_EQ(CountCommitted(0, 200), 40u);
  EXPECT_EQ(CountCommitted(100, 200), 0u);
}

TEST_F(ReadOnlyTxnTest, SavepointBeforeFirstWriteRollsBackEverything) {
  Transaction* txn = db_->Begin(IsolationLevel::kRepeatableRead);
  EXPECT_EQ(Count(txn, 0, 99), 40u);
  ASSERT_OK(db_->txns()->Savepoint(txn, "sp"));
  for (int64_t k = 100; k < 120; k++) Insert(txn, k);
  EXPECT_EQ(Count(txn, 100, 200), 20u);
  ASSERT_OK(db_->txns()->RollbackToSavepoint(txn, "sp"));
  EXPECT_EQ(Count(txn, 100, 200), 0u);
  // Still usable after the rollback.
  Insert(txn, 500);
  ASSERT_OK(db_->Commit(txn));
  EXPECT_EQ(CountCommitted(100, 200), 0u);
  EXPECT_EQ(CountCommitted(500, 500), 1u);
}

TEST_F(ReadOnlyTxnTest, CheckpointRecordsNoReadOnlyTxns) {
  std::vector<Transaction*> readers;
  for (IsolationLevel iso :
       {IsolationLevel::kReadCommitted, IsolationLevel::kRepeatableRead,
        IsolationLevel::kSnapshot}) {
    Transaction* r = db_->Begin(iso);
    EXPECT_EQ(Count(r, 0, 99), 40u);
    readers.push_back(r);
  }
  Transaction* writer = db_->Begin(IsolationLevel::kReadCommitted);
  Insert(writer, 1000);
  ASSERT_OK(db_->Checkpoint());
  const CheckpointPayload pl = MasterCheckpoint();
  ASSERT_EQ(pl.active_txns.size(), 1u);
  EXPECT_EQ(pl.active_txns[0].txn_id, writer->id());
  EXPECT_EQ(pl.active_txns[0].last_lsn, writer->last_lsn());
  EXPECT_NE(pl.begin_lsn, kInvalidLsn);
  for (Transaction* r : readers) ASSERT_OK(db_->Commit(r));
  ASSERT_OK(db_->Commit(writer));
}

// Crash with read-only transactions open across a checkpoint: the child
// dies right after a writer's commit became durable. Nothing the readers
// did is in the log, so restart finds no loser at all.
TEST(ReadOnlyTxnCrashTest, OpenReadersAreNotLosers) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  const std::string path = TestPath("rocrash");
  RemoveDbFiles(path);
  static BtreeExtension ext;
  GistOptions gopts;
  gopts.index_id = 1;
  gopts.max_entries = 8;
  DatabaseOptions dopts;
  dopts.path = path;

  std::fflush(nullptr);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto db_or = Database::Create(dopts);
    if (!db_or.ok()) std::_Exit(3);
    std::unique_ptr<Database> db = db_or.MoveValue();
    if (!db->CreateIndex(1, &ext, gopts).ok()) std::_Exit(3);
    Gist* gist = db->GetIndex(1).value();
    auto insert_committed = [&](int64_t lo, int64_t hi) {
      Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
      for (int64_t k = lo; k < hi; k++) {
        if (!db->InsertRecord(txn, gist, BtreeExtension::MakeKey(k), "v")
                 .ok()) {
          std::_Exit(3);
        }
      }
      return db->Commit(txn);
    };
    if (!insert_committed(0, 30).ok()) std::_Exit(3);
    for (IsolationLevel iso :
         {IsolationLevel::kReadCommitted, IsolationLevel::kRepeatableRead,
          IsolationLevel::kReadCommitted}) {
      Transaction* reader = db->Begin(iso);  // left open on purpose
      std::vector<SearchResult> results;
      if (!gist->Search(reader, BtreeExtension::MakeRange(0, 99), &results)
               .ok()) {
        std::_Exit(3);
      }
    }
    if (!db->Checkpoint().ok()) std::_Exit(3);
    FaultInjector::Global().ArmCrashPoint(
        "txn.commit.after_log_force", 0, FaultInjector::CrashAction::kExit);
    (void)insert_committed(100, 110);  // dies once its commit is durable
    std::_Exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), FaultInjector::kCrashExitCode);

  auto db_or = Database::Open(dopts);
  ASSERT_OK(db_or.status());
  std::unique_ptr<Database> db = db_or.MoveValue();
  ASSERT_OK(db->WaitForRecovery());
  EXPECT_EQ(db->recovery()->restart_stats().loser_txns.load(), 0u);
  ASSERT_OK(db->OpenIndex(1, &ext, gopts));
  Gist* gist = db->GetIndex(1).value();
  Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
  std::vector<SearchResult> results;
  ASSERT_OK(gist->Search(txn, BtreeExtension::MakeRange(0, 999), &results));
  ASSERT_OK(db->Commit(txn));
  EXPECT_EQ(results.size(), 40u);
  db.reset();
  RemoveDbFiles(path);
}

}  // namespace
}  // namespace gistcr
