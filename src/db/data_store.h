#ifndef GISTCR_DB_DATA_STORE_H_
#define GISTCR_DB_DATA_STORE_H_

#include <atomic>
#include <deque>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "db/heap_page.h"
#include "db/page_allocator.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "txn/transaction_manager.h"
#include "util/status.h"

namespace gistcr {

/// Heap file of data records. The GiST is a secondary index: leaf entries
/// carry Rids pointing here, and the hybrid locking protocol two-phase
/// locks these Rids (paper section 4.3). Deletes set a tombstone (undo
/// clears it; undo of an insert sets it) — both logged as Heap-Insert /
/// Heap-Delete records with page-oriented redo/undo.
///
/// Inserts first reuse a dead slot, then append at the chain tail. A slot
/// becomes reusable only once nothing can reach its Rid (DESIGN.md section
/// 14.4): garbage collection physically removed its leaf entry (the paper's
/// section 7 deferred removal, itself gated on the deleter's termination
/// and the MVCC horizon) or rollback undid its insert (aborts, savepoints,
/// restart loser undo). Those two points call FreeSlot, which queues the
/// slot stamped with the next transaction id. Insert takes a queued slot
/// only when (a) every open transaction is at least as young as the stamp,
/// (b) a try X lock on the Rid succeeds, and (c) under the page's X latch
/// the slot is still tombstoned and its bytes hold the new record; it then
/// logs an ordinary Heap-Insert naming the old slot, which redo and
/// forward execution both apply by overwriting in place. The queue is
/// volatile and bounded (kMaxQueuedSlots; overflow stays dead), grouped by
/// page so one page is refilled before the next is taken. There is no
/// compaction, and tombstones left before a crash stay dead except those
/// that loser undo frees.
class DataStore {
 public:
  /// Bound on queued reusable slots (16 bytes of bookkeeping each).
  static constexpr size_t kMaxQueuedSlots = size_t{1} << 16;

  DataStore(BufferPool* pool, TransactionManager* txns, PageAllocator* alloc)
      : pool_(pool), txns_(txns), alloc_(alloc) {
    AttachMetrics(nullptr);
  }
  GISTCR_DISALLOW_COPY_AND_ASSIGN(DataStore);

  /// Re-points heap.* metrics at \p reg (null: process fallback).
  void AttachMetrics(obs::MetricsRegistry* reg);

  /// mkfs: allocates and formats the first heap page. Returns its id for
  /// the meta page (unlogged; runs before the first log record).
  StatusOr<PageId> CreateFresh(PageId first_page);

  /// Opens an existing store: walks the chain from \p head to find the
  /// tail. Instant restart passes \p tail_hint (the tail computed by log
  /// analysis) to skip the walk entirely — fetching every chain page here
  /// would force their inline redo and defeat the instant open — and
  /// \p doomed, the page a still-pending loser undo is about to unlink
  /// from the chain: the walk must stop short of it so no new record
  /// lands on a page that is about to be freed.
  Status Open(PageId head, PageId tail_hint = kInvalidPageId,
              const std::vector<PageId>& doomed = {});

  /// Stores a record on behalf of \p txn: in a reusable dead slot, X-locked
  /// here before it is written (paper section 6 step 1), or else appended
  /// at the tail. An appended Rid is not locked here: the Database facade
  /// X-locks it *before* initiating the index insertion.
  StatusOr<Rid> Insert(Transaction* txn, Slice record);

  /// Tombstones the record.
  Status Delete(Transaction* txn, Rid rid);

  /// Reads a record; NotFound for tombstoned or never-written slots.
  StatusOr<std::string> Read(Rid rid);

  /// \p rid is unreferenced: its leaf entry was physically removed by GC,
  /// or rollback undid its insert. Queues the slot for reuse, stamped with
  /// the next transaction id; dropped (left dead) when the queue is full.
  void FreeSlot(Rid rid);

  /// Slots queued for reuse right now (tests, the heap.slots_queued gauge).
  size_t QueuedSlots() const {
    return queued_.load(std::memory_order_relaxed);
  }

  /// Physical appliers shared by forward execution, redo and CLR redo.
  /// When \p check_page_lsn, the update is skipped if page_lsn >= lsn.
  /// ApplyInsert appends at slot == count or overwrites a dead slot below
  /// it (HeapPageView::AppendAt).
  Status ApplyInsert(PageId page, uint16_t slot, Slice record, Lsn lsn,
                     bool check_page_lsn);
  Status ApplyDeleteMark(PageId page, uint16_t slot, bool deleted, Lsn lsn,
                         bool check_page_lsn);

  PageId head() const { return head_; }
  /// Current chain tail (checkpoints persist it as the instant-restart
  /// tail hint).
  PageId tail() {
    MutexLock l(mu_);
    return tail_;
  }

 private:
  /// Extends the chain with a freshly allocated page (runs as a nested top
  /// action: Get-Page + Rightlink-Update + NTA-End).
  Status GrowChain(Transaction* txn) GISTCR_REQUIRES(mu_);

  /// One queued dead slot and the NextTxnId() read when it was freed.
  struct FreedSlot {
    uint16_t slot;
    TxnId stamp;
  };

  /// Writes \p record into a queued slot that passes gates (a)-(c) (see
  /// the class comment). Sets \p rid, or leaves it invalid when no queued
  /// slot is usable right now and the caller should append.
  Status TryReuse(Transaction* txn, Slice record, Rid* rid)
      GISTCR_EXCLUDES(mu_, reuse_mu_);
  /// Takes the next slot whose stamp is <= \p horizon: from the current
  /// reuse page while it has one, else from the page with the oldest
  /// front stamp. False when no queued slot is old enough.
  bool PopReusable(TxnId horizon, Rid* rid, TxnId* stamp)
      GISTCR_REQUIRES(reuse_mu_);
  void Enqueue(Rid rid, TxnId stamp) GISTCR_REQUIRES(reuse_mu_);

  BufferPool* pool_;
  TransactionManager* txns_;
  PageAllocator* alloc_;

  Mutex mu_{GISTCR_LOCK_RANK(kDataStore, "data.mu")};  ///< Serializes tail maintenance.
  /// Set once by CreateFresh/Open before concurrent use; read-only after.
  PageId head_ = kInvalidPageId;
  PageId tail_ GISTCR_GUARDED_BY(mu_) = kInvalidPageId;

  /// Guards the reuse queue. Held for memory operations only (and the
  /// NextTxnId read that stamps a freed slot) — never across a page fetch,
  /// latch or lock-manager call.
  Mutex reuse_mu_{GISTCR_LOCK_RANK(kHeapReuse, "data.reuse.mu")};
  /// Queued slots per page, in free order (stamps non-decreasing except
  /// for slots put back after a failed try lock).
  std::unordered_map<PageId, std::deque<FreedSlot>> free_
      GISTCR_GUARDED_BY(reuse_mu_);
  /// (front slot's stamp, page) for every page in free_: the page whose
  /// oldest queued slot is oldest comes first.
  std::set<std::pair<TxnId, PageId>> by_stamp_ GISTCR_GUARDED_BY(reuse_mu_);
  /// Page being refilled; kept until it has no old-enough slot left.
  PageId reuse_page_ GISTCR_GUARDED_BY(reuse_mu_) = kInvalidPageId;
  /// Slots in free_. Written under reuse_mu_; read without it by
  /// Insert's "nothing queued" fast path.
  std::atomic<size_t> queued_{0};

  obs::Counter* m_freed_ = nullptr;
  obs::Counter* m_reused_ = nullptr;
  obs::Counter* m_dropped_ = nullptr;
  obs::Gauge* m_queued_ = nullptr;
};

}  // namespace gistcr

#endif  // GISTCR_DB_DATA_STORE_H_
