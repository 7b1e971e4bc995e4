#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "access/btree_extension.h"
#include "gist/cursor.h"
#include "tests/test_util.h"

namespace gistcr {
namespace {

using namespace std::chrono_literals;

class CursorTest : public ::testing::Test {
 protected:
  void SetUp() override { SetUpDb(/*optimistic=*/true); }

  void SetUpDb(bool optimistic) {
    path_ = TestPath("cursor");
    RemoveDbFiles(path_);
    DatabaseOptions opts;
    opts.path = path_;
    opts.buffer_pool_pages = 256;
    auto db_or = Database::Create(opts);
    ASSERT_OK(db_or.status());
    db_ = db_or.MoveValue();
    GistOptions gopts;
    gopts.max_entries = 8;
    gopts.optimistic_reads = optimistic;
    ASSERT_OK(db_->CreateIndex(1, &ext_, gopts));
    gist_ = db_->GetIndex(1).value();
  }
  void TearDown() override {
    db_.reset();
    RemoveDbFiles(path_);
  }

  void Preload(int64_t n) {
    Transaction* txn = db_->Begin();
    for (int64_t k = 0; k < n; k++) {
      ASSERT_OK(db_->InsertRecord(txn, gist_, BtreeExtension::MakeKey(k), "v")
                    .status());
    }
    ASSERT_OK(db_->Commit(txn));
  }

  std::string path_;
  std::unique_ptr<Database> db_;
  BtreeExtension ext_;
  Gist* gist_ = nullptr;
};

// The cursor and Gist::Search share one traversal; run both in every
// isolation level the wire SEARCH serves (read committed, repeatable read,
// snapshot) with optimistic node access on and off.
using CursorMode = std::tuple<IsolationLevel, bool>;  // (isolation, optimistic)

class CursorModeTest : public CursorTest,
                       public ::testing::WithParamInterface<CursorMode> {
 protected:
  void SetUp() override { SetUpDb(std::get<1>(GetParam())); }
  IsolationLevel isolation() const { return std::get<0>(GetParam()); }

  // Drains a cursor over \p query, checking each key comes back once.
  std::set<int64_t> DrainCursor(Transaction* txn, const std::string& query) {
    GistCursor cursor(gist_, txn, query);
    EXPECT_OK(cursor.Open());
    std::set<int64_t> found;
    for (;;) {
      SearchResult r;
      bool done = false;
      EXPECT_OK(cursor.Next(&r, &done));
      if (done) break;
      EXPECT_TRUE(found.insert(BtreeExtension::Lo(r.key)).second)
          << "duplicate " << BtreeExtension::Lo(r.key);
    }
    return found;
  }
};

TEST_P(CursorModeTest, IteratesAllMatchesOnce) {
  Preload(200);
  Transaction* txn = db_->Begin(isolation());
  const std::set<int64_t> found =
      DrainCursor(txn, BtreeExtension::MakeRange(50, 149));
  EXPECT_EQ(found.size(), 100u);
  EXPECT_EQ(*found.begin(), 50);
  EXPECT_EQ(*found.rbegin(), 149);
  ASSERT_OK(db_->Commit(txn));
}

TEST_P(CursorModeTest, MatchesBatchSearchResults) {
  Preload(300);
  // Logically delete a stripe so admission (2PL delete marks, MVCC
  // visibility) has entries to reject.
  Transaction* del = db_->Begin();
  std::vector<SearchResult> doomed;
  ASSERT_OK(gist_->Search(del, BtreeExtension::MakeRange(100, 149), &doomed));
  for (const auto& r : doomed) {
    ASSERT_OK(db_->DeleteRecord(del, gist_, r.key, r.rid));
  }
  ASSERT_OK(db_->Commit(del));

  Transaction* txn = db_->Begin(isolation());
  std::vector<SearchResult> batch;
  ASSERT_OK(gist_->Search(txn, BtreeExtension::MakeRange(0, 299), &batch));
  std::set<int64_t> want;
  for (const auto& r : batch) want.insert(BtreeExtension::Lo(r.key));
  EXPECT_EQ(want.size(), batch.size());
  EXPECT_EQ(want.size(), 250u);
  EXPECT_EQ(DrainCursor(txn, BtreeExtension::MakeRange(0, 299)), want);
  ASSERT_OK(db_->Commit(txn));
}

std::string CursorModeName(const ::testing::TestParamInfo<CursorMode>& info) {
  static const char* const kIsolation[] = {"rc", "rr", "snapshot"};
  std::string name = kIsolation[static_cast<int>(std::get<0>(info.param))];
  name += std::get<1>(info.param) ? "_optimistic" : "_latched";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Modes, CursorModeTest,
    ::testing::Combine(::testing::Values(IsolationLevel::kReadCommitted,
                                         IsolationLevel::kRepeatableRead,
                                         IsolationLevel::kSnapshot),
                       ::testing::Bool()),
    CursorModeName);

TEST_F(CursorTest, EmptyRangeTerminatesImmediately) {
  Preload(20);
  Transaction* txn = db_->Begin();
  GistCursor cursor(gist_, txn, BtreeExtension::MakeRange(1000, 2000));
  ASSERT_OK(cursor.Open());
  SearchResult r;
  bool done = false;
  ASSERT_OK(cursor.Next(&r, &done));
  EXPECT_TRUE(done);
  ASSERT_OK(db_->Commit(txn));
}

TEST_F(CursorTest, SaveRestoreReplaysFromSavepoint) {
  Preload(100);
  Transaction* txn = db_->Begin();
  GistCursor cursor(gist_, txn, BtreeExtension::MakeRange(0, 99));
  ASSERT_OK(cursor.Open());

  // Consume 30 entries, then establish a savepoint.
  std::vector<int64_t> first30;
  for (int i = 0; i < 30; i++) {
    SearchResult r;
    bool done = false;
    ASSERT_OK(cursor.Next(&r, &done));
    ASSERT_FALSE(done);
    first30.push_back(BtreeExtension::Lo(r.key));
  }
  auto pos_or = cursor.Save();
  ASSERT_OK(pos_or.status());

  // Consume 20 more, then roll back to the savepoint.
  std::vector<int64_t> after_save_1;
  for (int i = 0; i < 20; i++) {
    SearchResult r;
    bool done = false;
    ASSERT_OK(cursor.Next(&r, &done));
    ASSERT_FALSE(done);
    after_save_1.push_back(BtreeExtension::Lo(r.key));
  }
  ASSERT_OK(cursor.Restore(pos_or.MoveValue()));

  // The replayed stream matches and completes the full range.
  std::vector<int64_t> after_save_2;
  for (;;) {
    SearchResult r;
    bool done = false;
    ASSERT_OK(cursor.Next(&r, &done));
    if (done) break;
    after_save_2.push_back(BtreeExtension::Lo(r.key));
  }
  ASSERT_GE(after_save_2.size(), after_save_1.size());
  for (size_t i = 0; i < after_save_1.size(); i++) {
    EXPECT_EQ(after_save_2[i], after_save_1[i]) << i;
  }
  std::set<int64_t> all(first30.begin(), first30.end());
  all.insert(after_save_2.begin(), after_save_2.end());
  EXPECT_EQ(all.size(), 100u);
  ASSERT_OK(db_->Commit(txn));
}

TEST_F(CursorTest, SavedPositionBlocksNodeDeletion) {
  Preload(100);
  // Delete everything so GC would retire nodes.
  {
    Transaction* txn = db_->Begin();
    std::vector<SearchResult> all;
    ASSERT_OK(gist_->Search(txn, BtreeExtension::MakeRange(0, 99), &all));
    for (const auto& r : all) {
      ASSERT_OK(db_->DeleteRecord(txn, gist_, r.key, r.rid));
    }
    ASSERT_OK(db_->Commit(txn));
  }
  Transaction* txn = db_->Begin(IsolationLevel::kReadCommitted);
  GistCursor cursor(gist_, txn, BtreeExtension::MakeRange(0, 99));
  ASSERT_OK(cursor.Open());
  // Advance a little so the stack holds mid-tree pointers, then save.
  SearchResult r;
  bool done = false;
  ASSERT_OK(cursor.Next(&r, &done));  // exhausts or advances; either way
  auto pos_or = cursor.Save();
  ASSERT_OK(pos_or.status());

  // GC in another transaction: nodes referenced by the saved position are
  // protected by its retained signaling locks.
  Transaction* gc = db_->Begin(IsolationLevel::kReadCommitted);
  uint64_t removed = 0, deleted_nodes = 0;
  ASSERT_OK(gist_->GarbageCollect(gc, &removed, &deleted_nodes));
  ASSERT_OK(db_->Commit(gc));
  ASSERT_OK(gist_->CheckInvariants());

  // Restoring still works: every stacked page is alive.
  ASSERT_OK(cursor.Restore(pos_or.MoveValue()));
  for (;;) {
    bool d = false;
    ASSERT_OK(cursor.Next(&r, &d));
    if (d) break;
  }
  ASSERT_OK(db_->Commit(txn));
}

TEST_F(CursorTest, CursorAttachesPredicatesGradually) {
  Preload(50);
  Transaction* txn = db_->Begin(IsolationLevel::kRepeatableRead);
  GistCursor cursor(gist_, txn, BtreeExtension::MakeRange(0, 49));
  ASSERT_OK(cursor.Open());
  // Before any Next(), no predicates are attached (gradual expansion).
  EXPECT_EQ(db_->preds()->TotalAttachments(), 0u);
  SearchResult r;
  bool done = false;
  ASSERT_OK(cursor.Next(&r, &done));
  ASSERT_FALSE(done);
  EXPECT_GT(db_->preds()->TotalAttachments(), 0u);
  const int64_t visited_key = BtreeExtension::Lo(r.key);

  // An insert into the ALREADY-VISITED region (same key, new record — the
  // index is non-unique) hits the leaf the cursor's predicate is attached
  // to, so it blocks until the cursor's transaction ends. An insert into a
  // leaf the cursor has not reached yet would proceed — the gradual
  // expansion the paper describes in section 4.3: "the insertion will only
  // be blocked if it requires BP updates in ancestor nodes where the
  // search predicate is already attached".
  std::atomic<bool> insert_done{false};
  std::thread inserter([&] {
    Transaction* t2 = db_->Begin(IsolationLevel::kReadCommitted);
    ASSERT_OK(db_->InsertRecord(t2, gist_,
                                BtreeExtension::MakeKey(visited_key), "v")
                  .status());
    insert_done = true;
    ASSERT_OK(db_->Commit(t2));
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(insert_done.load());
  ASSERT_OK(db_->Commit(txn));
  inserter.join();
}

}  // namespace
}  // namespace gistcr
