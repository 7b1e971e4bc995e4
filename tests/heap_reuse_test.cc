#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "access/btree_extension.h"
#include "tests/crash_harness.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace gistcr {
namespace {

/// Fixed-width records, so any dead slot fits any new record.
std::string RecordOf(int64_t key) {
  const std::string digits = std::to_string(key);
  std::string rec = "v";
  rec.append(8 - digits.size(), '0');
  rec.append(digits);
  return rec;
}

uint64_t CounterOf(Database* db, const char* name) {
  return db->metrics()->GetCounter(name)->value();
}

/// Heap slot reuse (DESIGN.md section 14.4): a dead slot goes back to
/// inserts only once nothing can reach its Rid. Each case pins one gate.
class HeapReuseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("heap_reuse");
    RemoveDbFiles(path_);
    DatabaseOptions opts;
    opts.path = path_;
    opts.buffer_pool_pages = 256;
    auto db_or = Database::Create(opts);
    ASSERT_OK(db_or.status());
    db_ = db_or.MoveValue();
    GistOptions gopts;
    gopts.max_entries = 8;
    ASSERT_OK(db_->CreateIndex(1, &ext_, gopts));
    gist_ = db_->GetIndex(1).value();
  }
  void TearDown() override {
    db_.reset();
    RemoveDbFiles(path_);
  }

  Rid Insert(Transaction* txn, int64_t key, bool unique = false) {
    auto rid = db_->InsertRecord(txn, gist_, BtreeExtension::MakeKey(key),
                                 RecordOf(key), unique);
    EXPECT_OK(rid.status());
    return rid.ok() ? rid.value() : Rid{};
  }
  /// Inserts \p key in its own committed transaction.
  Rid InsertCommitted(int64_t key) {
    Transaction* txn = db_->Begin();
    const Rid rid = Insert(txn, key);
    EXPECT_OK(db_->Commit(txn));
    return rid;
  }
  void DeleteCommitted(int64_t key, Rid rid) {
    Transaction* txn = db_->Begin();
    EXPECT_OK(db_->DeleteRecord(txn, gist_, BtreeExtension::MakeKey(key), rid));
    EXPECT_OK(db_->Commit(txn));
  }
  /// What the background daemon runs: checkpoint + GC sweep + version GC.
  void Gc() { ASSERT_OK(db_->RunMaintenancePass()); }

  std::vector<SearchResult> Find(Transaction* txn, int64_t key) {
    std::vector<SearchResult> out;
    EXPECT_OK(gist_->Search(txn, BtreeExtension::MakeRange(key, key), &out));
    return out;
  }
  uint64_t Reused() { return CounterOf(db_.get(), "heap.slots_reused"); }
  uint64_t Freed() { return CounterOf(db_.get(), "heap.slots_freed"); }

  std::string path_;
  std::unique_ptr<Database> db_;
  BtreeExtension ext_;
  Gist* gist_ = nullptr;
};

// Gate (a), the open-transaction horizon: a reader that still holds a Rid
// but no lock on it — a degree-2 reader may drop its read lock once the
// record is read (cursor stability); this engine keeps it until commit, so
// the test drops it explicitly — is protected only by its age.
TEST_F(HeapReuseTest, RcReaderBlocksReuseUntilItEnds) {
  const Rid rid1 = InsertCommitted(1);
  Transaction* reader = db_->Begin(IsolationLevel::kReadCommitted);
  auto found = Find(reader, 1);
  ASSERT_EQ(found.size(), 1u);
  ASSERT_EQ(found[0].rid, rid1);
  db_->locks()->Unlock(reader->id(),
                       LockName{LockSpace::kRecord, rid1.Pack()});

  DeleteCommitted(1, rid1);
  Gc();
  EXPECT_EQ(Freed(), 1u);
  EXPECT_EQ(db_->data()->QueuedSlots(), 1u);

  // The reader is older than the slot's stamp: no reuse yet.
  const Rid rid2 = InsertCommitted(2);
  EXPECT_FALSE(rid2 == rid1);
  EXPECT_EQ(Reused(), 0u);
  auto rec = db_->ReadRecord(found[0].rid);
  EXPECT_TRUE(rec.status().IsNotFound()) << "reader saw a reused slot";
  ASSERT_OK(db_->Commit(reader));

  const Rid rid3 = InsertCommitted(3);
  EXPECT_EQ(rid3, rid1);
  EXPECT_EQ(Reused(), 1u);
  EXPECT_EQ(db_->ReadRecord(rid3).value(), RecordOf(3));
}

// MVCC horizon (GC's SafeToReclaim): the leaf entry a snapshot can still
// see is not removed, so its Rid is never freed while the snapshot lives.
TEST_F(HeapReuseTest, SnapshotOlderThanDeleteKeepsItsRid) {
  ASSERT_NE(db_->mvcc(), nullptr);
  const Rid rid1 = InsertCommitted(1);
  Transaction* snap = db_->Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(snap->is_snapshot());
  ASSERT_EQ(Find(snap, 1).size(), 1u);

  DeleteCommitted(1, rid1);
  Gc();
  EXPECT_EQ(Freed(), 0u);
  const Rid rid2 = InsertCommitted(2);
  EXPECT_FALSE(rid2 == rid1);

  auto still = Find(snap, 1);
  ASSERT_EQ(still.size(), 1u) << "snapshot lost the old version";
  EXPECT_EQ(still[0].rid, rid1);
  auto rec = db_->ReadRecord(rid1);
  EXPECT_FALSE(rec.ok() && rec.value() == RecordOf(2));
  ASSERT_OK(db_->Commit(snap));

  Gc();
  EXPECT_EQ(Freed(), 1u);
  EXPECT_EQ(InsertCommitted(3), rid1);
}

// Only a physically removed entry frees its Rid: GC that must skip a mark
// (deleter still active) frees nothing, so re-inserting the same key can
// never pair it with the Rid its marked entry still carries.
TEST_F(HeapReuseTest, ReinsertSameKeyNeverDuplicatesKeyRid) {
  const Rid rid1 = InsertCommitted(1);
  Transaction* deleter = db_->Begin();
  ASSERT_OK(
      db_->DeleteRecord(deleter, gist_, BtreeExtension::MakeKey(1), rid1));
  Gc();  // the mark belongs to an active transaction: kept
  EXPECT_EQ(Freed(), 0u);
  ASSERT_OK(db_->Commit(deleter));

  const Rid rid2 = InsertCommitted(1);  // the marked (1, rid1) is still there
  EXPECT_FALSE(rid2 == rid1);
  Gc();  // now the mark goes, and rid1 with it
  EXPECT_EQ(Freed(), 1u);
  DeleteCommitted(1, rid2);
  const Rid rid3 = InsertCommitted(1);
  EXPECT_EQ(rid3, rid1);

  std::vector<IndexEntry> entries;
  ASSERT_OK(gist_->DumpEntries(&entries));
  std::set<std::pair<std::string, uint64_t>> seen;
  for (const IndexEntry& e : entries) {
    EXPECT_TRUE(seen.emplace(e.key, e.value).second)
        << "duplicate (key, rid) " << Rid::Unpack(e.value).slot;
  }
  ASSERT_OK(gist_->CheckInvariants());
  Transaction* txn = db_->Begin();
  auto live = Find(txn, 1);
  ASSERT_OK(db_->Commit(txn));
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].rid, rid3);
}

// Rollback frees: a reusing insert that aborts leaves a tombstone, the
// undo hands the slot back, and a later insert takes it again.
TEST_F(HeapReuseTest, AbortedReuseLeavesTombstoneAndIsReusedLater) {
  const Rid rid1 = InsertCommitted(1);
  DeleteCommitted(1, rid1);
  Gc();
  Transaction* t = db_->Begin();
  const Rid rid2 = Insert(t, 2);
  ASSERT_EQ(rid2, rid1);
  EXPECT_EQ(db_->ReadRecord(rid2).value(), RecordOf(2));
  ASSERT_OK(db_->Abort(t));

  EXPECT_TRUE(db_->ReadRecord(rid1).status().IsNotFound());
  EXPECT_EQ(Freed(), 2u);  // GC, then the abort's undo
  EXPECT_EQ(db_->data()->QueuedSlots(), 1u);
  const Rid rid3 = InsertCommitted(3);
  EXPECT_EQ(rid3, rid1);
  EXPECT_EQ(db_->ReadRecord(rid3).value(), RecordOf(3));
  EXPECT_EQ(Reused(), 2u);
}

// Savepoint rollback frees too: the slot of an insert refused as a
// duplicate key goes back once its (still running) transaction ends.
TEST_F(HeapReuseTest, DuplicateKeyRollbackSlotIsReused) {
  Transaction* first = db_->Begin();
  const Rid rid1 = Insert(first, 1, /*unique=*/true);
  ASSERT_OK(db_->Commit(first));

  Transaction* t = db_->Begin();
  auto dup = db_->InsertRecord(t, gist_, BtreeExtension::MakeKey(1),
                               RecordOf(1), /*unique=*/true);
  ASSERT_TRUE(dup.status().IsDuplicateKey()) << dup.status().ToString();
  EXPECT_EQ(Freed(), 1u);
  EXPECT_EQ(db_->data()->QueuedSlots(), 1u);
  Rid rolled_back;
  rolled_back.page_id = rid1.page_id;
  rolled_back.slot = static_cast<uint16_t>(rid1.slot + 1);
  EXPECT_TRUE(db_->ReadRecord(rolled_back).status().IsNotFound());

  // t is still open and older than the stamp: no one reuses it yet.
  const Rid rid2 = InsertCommitted(2);
  EXPECT_FALSE(rid2 == rolled_back);
  ASSERT_OK(db_->Commit(t));

  const Rid rid3 = InsertCommitted(3);
  EXPECT_EQ(rid3, rolled_back);
  EXPECT_EQ(db_->ReadRecord(rid1).value(), RecordOf(1));
  EXPECT_EQ(db_->ReadRecord(rid3).value(), RecordOf(3));
}

// Gate (b), the try X lock: a transaction holding a lock on the dead Rid
// (younger than the stamp, e.g. one acting on a Rid it kept from earlier)
// makes the insert pass the slot by — without waiting for the holder.
TEST_F(HeapReuseTest, LockedRidIsPassedByWithoutWaiting) {
  const Rid rid1 = InsertCommitted(1);
  DeleteCommitted(1, rid1);
  Gc();
  Transaction* holder = db_->Begin();
  ASSERT_OK(db_->locks()->Lock(holder->id(),
                               LockName{LockSpace::kRecord, rid1.Pack()},
                               LockMode::kShared));

  auto fut = std::async(std::launch::async, [this] {
    Transaction* txn = db_->Begin();
    const Rid rid = Insert(txn, 2);
    EXPECT_OK(db_->Commit(txn));
    return rid;
  });
  const bool done =
      fut.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  EXPECT_TRUE(done) << "insert waited on the holder of a dead Rid's lock";
  ASSERT_OK(db_->Commit(holder));  // unblocks a waiting insert either way
  const Rid rid2 = fut.get();
  EXPECT_FALSE(rid2 == rid1);
  EXPECT_EQ(db_->data()->QueuedSlots(), 1u);  // put back, not lost

  EXPECT_EQ(InsertCommitted(3), rid1);
}

// Gate (c), the re-check under the page latch: a queued slot that is no
// longer a tombstone, or too small for the record, is never written.
TEST_F(HeapReuseTest, LiveOrTooSmallSlotIsNeverOverwritten) {
  const Rid live = InsertCommitted(1);
  db_->data()->FreeSlot(live);  // a stale duplicate queue entry

  const Rid rid2 = InsertCommitted(2);
  EXPECT_FALSE(rid2 == live);
  EXPECT_EQ(db_->ReadRecord(live).value(), RecordOf(1));

  // A dead slot too small for the next record stays dead.
  DeleteCommitted(2, rid2);
  Gc();
  Transaction* txn = db_->Begin();
  const std::string big(64, 'x');
  auto rid3 =
      db_->InsertRecord(txn, gist_, BtreeExtension::MakeKey(3), Slice(big));
  ASSERT_OK(rid3.status());
  ASSERT_OK(db_->Commit(txn));
  EXPECT_FALSE(rid3.value() == rid2);
  EXPECT_EQ(Reused(), 0u);
}

// The queue is bounded by a constant: overflow is counted and stays dead.
TEST_F(HeapReuseTest, QueueOverflowIsDropped) {
  const size_t extra = 10;
  for (size_t i = 0; i < DataStore::kMaxQueuedSlots + extra; i++) {
    Rid rid;
    rid.page_id = static_cast<PageId>(1000 + i / 64);
    rid.slot = static_cast<uint16_t>(i % 64);
    db_->data()->FreeSlot(rid);
  }
  EXPECT_EQ(db_->data()->QueuedSlots(), DataStore::kMaxQueuedSlots);
  EXPECT_EQ(CounterOf(db_.get(), "heap.slots_dropped"), extra);
  EXPECT_EQ(db_->metrics()->GetGauge("heap.slots_queued")->value(),
            static_cast<double>(DataStore::kMaxQueuedSlots));
}

TEST_F(HeapReuseTest, CountersReachJsonAndPrometheus) {
  const Rid rid1 = InsertCommitted(1);
  DeleteCommitted(1, rid1);
  Gc();
  InsertCommitted(2);
  const std::string json = db_->DumpMetrics(/*as_json=*/true);
  const std::string prom = db_->DumpMetricsPrometheus();
  for (const char* name : {"heap.slots_freed", "heap.slots_reused",
                           "heap.slots_dropped", "heap.slots_queued"}) {
    EXPECT_NE(json.find(std::string("\"") + name + "\""), std::string::npos)
        << name;
    std::string p = std::string("gistcr_") + name;
    std::replace(p.begin(), p.end(), '.', '_');
    EXPECT_NE(prom.find(p), std::string::npos) << p;
  }
  EXPECT_EQ(Reused(), 1u);
}

// ---------------------------------------------------------------------
// Recovery of reused slots, in both restart modes. Each scenario is one
// body in the shape of Zero's runRestartTest (crash::RunRestartTest):
// PreCrash builds the state, the harness crashes and restarts, PostRestart
// checks the recovered database.
// ---------------------------------------------------------------------

class HeapReuseRecoveryTest
    : public ::testing::TestWithParam<crash::RestartMode> {
 protected:
  void SetUp() override {
    path_ = TestPath("heap_reuse_recovery");
    RemoveDbFiles(path_);
  }
  void TearDown() override { RemoveDbFiles(path_); }
  std::string path_;
};

/// Shared pre-crash shape: 40 committed keys, every other one deleted and
/// garbage-collected, so 20 dead slots sit in the reuse queue.
struct ReuseScenario : crash::RestartScenario {
  std::map<int64_t, Rid> live;   ///< committed, expected after restart
  std::vector<Rid> reused_rids;  ///< slots the reusing writes took

  void Populate(Database* db, Gist* gist) {
    Transaction* t = db->Begin();
    for (int64_t k = 0; k < 40; k++) {
      auto rid = db->InsertRecord(t, gist, BtreeExtension::MakeKey(k),
                                  RecordOf(k));
      ASSERT_OK(rid.status());
      live[k] = rid.value();
    }
    ASSERT_OK(db->Commit(t));
    Transaction* d = db->Begin();
    for (int64_t k = 0; k < 40; k += 2) {
      ASSERT_OK(db->DeleteRecord(d, gist, BtreeExtension::MakeKey(k), live[k]));
      live.erase(k);
    }
    ASSERT_OK(db->Commit(d));
    ASSERT_OK(db->RunMaintenancePass());
    ASSERT_EQ(db->data()->QueuedSlots(), 20u);
  }

  /// Inserts keys [lo, lo+n) in \p t, asserting every one reused a slot.
  void ReuseInsert(Database* db, Gist* gist, Transaction* t, int64_t lo,
                   int64_t n) {
    const uint64_t before = CounterOf(db, "heap.slots_reused");
    for (int64_t k = lo; k < lo + n; k++) {
      auto rid = db->InsertRecord(t, gist, BtreeExtension::MakeKey(k),
                                  RecordOf(k));
      ASSERT_OK(rid.status());
      reused_rids.push_back(rid.value());
      live[k] = rid.value();
    }
    ASSERT_EQ(CounterOf(db, "heap.slots_reused") - before,
              static_cast<uint64_t>(n));
  }

  /// Exactly the expected live keys, each on its pre-crash Rid with its
  /// own record; no marked or duplicate leftovers; structure intact.
  void VerifyState(Database* db, Gist* gist) {
    ASSERT_OK(gist->CheckInvariants());
    Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
    std::vector<SearchResult> out;
    ASSERT_OK(gist->Search(txn, BtreeExtension::MakeRange(0, 1 << 20), &out));
    ASSERT_OK(db->Commit(txn));
    std::map<int64_t, Rid> found;
    for (const SearchResult& r : out) {
      const int64_t k = BtreeExtension::Lo(r.key);
      EXPECT_EQ(found.count(k), 0u) << "duplicate key " << k;
      found[k] = r.rid;
    }
    EXPECT_EQ(found, live);
    for (const auto& [k, rid] : live) {
      auto rec = db->ReadRecord(rid);
      ASSERT_OK(rec.status());
      EXPECT_EQ(rec.value(), RecordOf(k));
    }
  }

  /// Redo idempotence: replaying the whole log again over the recovered
  /// pages (reused-slot overwrites included) changes nothing.
  void VerifyRedoIdempotent(Database* db, Gist* gist) {
    std::vector<IndexEntry> before;
    ASSERT_OK(gist->DumpEntries(&before));
    ASSERT_OK(db->log()->Scan(kInvalidLsn, [&](const LogRecord& rec) {
      EXPECT_OK(db->recovery()->RedoRecord(rec));
      return true;
    }));
    std::vector<IndexEntry> after;
    ASSERT_OK(gist->DumpEntries(&after));
    ASSERT_EQ(before.size(), after.size());
    for (size_t i = 0; i < before.size(); i++) {
      EXPECT_EQ(before[i].key, after[i].key);
      EXPECT_EQ(before[i].value, after[i].value);
      EXPECT_EQ(before[i].del_txn, after[i].del_txn);
    }
    VerifyState(db, gist);
  }
};

/// A committed transaction's reuse survives the crash on its old slots.
struct CommittedReuse : ReuseScenario {
  void PreCrash(Database* db, Gist* gist) override {
    Populate(db, gist);
    Transaction* t = db->Begin();
    ReuseInsert(db, gist, t, 100, 20);
    ASSERT_OK(db->Commit(t));
  }
  void PostRestart(Database* db, Gist* gist) override {
    VerifyState(db, gist);
    VerifyRedoIdempotent(db, gist);
  }
};

/// A loser that reused slots is undone to tombstones; loser undo hands the
/// slots back, and the first transactions after restart take them.
struct LoserReuse : ReuseScenario {
  bool flush_pages = false;
  bool expect_freed = true;
  void PreCrash(Database* db, Gist* gist) override {
    Populate(db, gist);
    Transaction* loser = db->Begin();
    const std::map<int64_t, Rid> committed = live;
    ReuseInsert(db, gist, loser, 100, 20);
    live = committed;  // the loser's keys must not come back
    ASSERT_OK(db->log()->FlushAll());
    // Overwritten slots on disk too: undo must tombstone them there.
    if (flush_pages) ASSERT_OK(db->pool()->FlushAll());
  }
  void PostRestart(Database* db, Gist* gist) override {
    VerifyState(db, gist);
    for (const Rid& rid : reused_rids) {
      EXPECT_TRUE(db->ReadRecord(rid).status().IsNotFound());
    }
    if (expect_freed) {
      EXPECT_EQ(CounterOf(db, "heap.slots_freed"), reused_rids.size());
      std::set<uint64_t> loser_slots;
      for (const Rid& rid : reused_rids) loser_slots.insert(rid.Pack());
      Transaction* t = db->Begin();
      auto rid = db->InsertRecord(t, gist, BtreeExtension::MakeKey(500),
                                  RecordOf(500));
      ASSERT_OK(rid.status());
      ASSERT_OK(db->Commit(t));
      EXPECT_EQ(loser_slots.count(rid.value().Pack()), 1u)
          << "first insert after restart did not take a loser's slot";
      live[500] = rid.value();
    }
    VerifyState(db, gist);
    VerifyRedoIdempotent(db, gist);
  }
};

TEST_P(HeapReuseRecoveryTest, CommittedReuseSurvivesCrash) {
  CommittedReuse s;
  crash::RunRestartTest(path_, &s, GetParam());
}

TEST_P(HeapReuseRecoveryTest, LoserReuseUndoneToTombstoneAndFreed) {
  LoserReuse s;
  crash::RunRestartTest(path_, &s, GetParam());
}

TEST_P(HeapReuseRecoveryTest, LoserReuseOnFlushedPagesUndone) {
  LoserReuse s;
  s.flush_pages = true;
  crash::RunRestartTest(path_, &s, GetParam());
}

TEST_P(HeapReuseRecoveryTest, RecoverTwiceAfterLoserReuse) {
  // The second restart finds the first one's CLRs (or redoes the undo if
  // they never became durable); either way the state converges. Slots the
  // first restart freed are volatile and not re-found.
  LoserReuse s;
  s.flush_pages = true;
  s.expect_freed = false;
  crash::RunRestartTest(path_, &s, GetParam(), /*restarts=*/2);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, HeapReuseRecoveryTest,
    ::testing::Values(crash::RestartMode::kOffline,
                      crash::RestartMode::kInstant),
    [](const ::testing::TestParamInfo<crash::RestartMode>& info) {
      return std::string(crash::RestartModeName(info.param));
    });

// ---------------------------------------------------------------------
// Bounded space under endless churn.
// ---------------------------------------------------------------------

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

// A fixed live set under K rounds of delete-oldest / insert-fresh with a
// maintenance pass between them: once GC hands dead slots back, the data
// file stops growing.
TEST(ChurnSoakTest, DbFileStaysFlatUnderDeleteInsertChurn) {
  const std::string path = TestPath("churn");
  RemoveDbFiles(path);
  DatabaseOptions opts;
  opts.path = path;
  opts.buffer_pool_pages = 512;
  opts.sync_commit = false;
  auto db_or = Database::Create(opts);
  ASSERT_OK(db_or.status());
  std::unique_ptr<Database> db = db_or.MoveValue();
  BtreeExtension ext;
  ASSERT_OK(db->CreateIndex(1, &ext));
  Gist* gist = db->GetIndex(1).value();

  constexpr int kLive = 3000;
  constexpr int kPerRound = 1000;
  constexpr int kRounds = 12;
  constexpr int kPerTxn = 50;
  const std::string record(100, 'r');
  Random rng(42);
  std::deque<std::pair<int64_t, Rid>> live;  // oldest first
  std::set<int64_t> keys;
  auto insert_fresh = [&](int n) {
    for (int i = 0; i < n; i += kPerTxn) {
      Transaction* t = db->Begin();
      for (int j = 0; j < kPerTxn; j++) {
        int64_t k;
        do {
          k = static_cast<int64_t>(rng.Uniform(1u << 30));
        } while (!keys.insert(k).second);
        auto rid = db->InsertRecord(t, gist, BtreeExtension::MakeKey(k),
                                    Slice(record));
        ASSERT_OK(rid.status());
        live.emplace_back(k, rid.value());
      }
      ASSERT_OK(db->Commit(t));
    }
  };
  auto delete_oldest = [&](int n) {
    for (int i = 0; i < n; i += kPerTxn) {
      Transaction* t = db->Begin();
      for (int j = 0; j < kPerTxn; j++) {
        const auto [k, rid] = live.front();
        live.pop_front();
        keys.erase(k);
        ASSERT_OK(db->DeleteRecord(t, gist, BtreeExtension::MakeKey(k), rid));
      }
      ASSERT_OK(db->Commit(t));
    }
  };

  insert_fresh(kLive);
  std::vector<uint64_t> sizes;
  for (int round = 1; round <= kRounds; round++) {
    delete_oldest(kPerRound);
    ASSERT_OK(db->RunMaintenancePass());
    insert_fresh(kPerRound);
    ASSERT_OK(db->FlushAll());
    sizes.push_back(FileBytes(path + ".db"));
  }
  const uint64_t round2 = sizes[1];
  const uint64_t last = sizes.back();
  EXPECT_LE(static_cast<double>(last), 1.05 * static_cast<double>(round2))
      << "data file grew from " << round2 << " to " << last << " bytes";
  EXPECT_GT(CounterOf(db.get(), "heap.slots_reused"), 0u);
  ASSERT_OK(gist->CheckInvariants());
  db.reset();
  RemoveDbFiles(path);
}

}  // namespace
}  // namespace gistcr
