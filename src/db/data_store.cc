#include "db/data_store.h"

#include <algorithm>

#include "wal/log_payloads.h"

// Every PageGuard in this file latches a heap-chain page (kHeapLatch,
// coupling-allowed for the tail hand-over during chain growth).
// gistcr-lint: page-latch-class(heap)

namespace gistcr {

namespace {

/// Queued slots one Insert tries before it appends instead (a try lock or
/// the page re-check can reject a candidate).
constexpr int kReuseAttempts = 4;

}  // namespace

void DataStore::AttachMetrics(obs::MetricsRegistry* reg) {
  reg = obs::MetricsRegistry::OrFallback(reg);
  m_freed_ = reg->GetCounter("heap.slots_freed");
  m_reused_ = reg->GetCounter("heap.slots_reused");
  m_dropped_ = reg->GetCounter("heap.slots_dropped");
  m_queued_ = reg->GetGauge("heap.slots_queued");
}

StatusOr<PageId> DataStore::CreateFresh(PageId first_page) {
  auto frame_or = pool_->NewPage(first_page);
  GISTCR_RETURN_IF_ERROR(frame_or.status());
  PageGuard guard(pool_, frame_or.value());
  guard.WLatch();
  HeapPageView(guard.view().data()).Init(first_page);
  guard.frame()->MarkDirty(kInvalidLsn + 1);
  head_ = tail_ = first_page;
  return first_page;
}

Status DataStore::Open(PageId head, PageId tail_hint,
                       const std::vector<PageId>& doomed) {
  head_ = head;
  if (tail_hint != kInvalidPageId) {
    // Instant restart: analysis already followed the chain's
    // Rightlink-Update records, so trust its tail and touch no pages. A
    // stale-but-on-chain hint would self-heal (Insert grows past a full
    // page), but the analysis accounts for every link in the recovered
    // window, so the hint is exact.
    tail_ = tail_hint;
    return Status::OK();
  }
  PageId cur = head;
  PageId last = head;
  while (cur != kInvalidPageId) {
    auto frame_or = pool_->Fetch(cur);
    GISTCR_RETURN_IF_ERROR(frame_or.status());
    PageGuard guard(pool_, frame_or.value());
    guard.RLatch();
    HeapPageView hv(guard.view().data());
    last = cur;
    cur = hv.IsFormatted() ? hv.next() : kInvalidPageId;
    if (cur != kInvalidPageId &&
        std::find(doomed.begin(), doomed.end(), cur) != doomed.end()) {
      // The link to this page belongs to a loser whose undo has not run
      // yet: it will be unlinked and freed. Stop short so no new record
      // lands there.
      cur = kInvalidPageId;
    }
  }
  tail_ = last;
  return Status::OK();
}

Status DataStore::GrowChain(Transaction* txn) {
  // Nested top action: allocate + link are committed atomically and survive
  // a later abort of the surrounding transaction.
  const Lsn nta_begin = txns_->NtaBegin(txn);
  auto pid_or = alloc_->Allocate(txn);
  GISTCR_RETURN_IF_ERROR(pid_or.status());
  const PageId new_pid = pid_or.value();

  auto old_tail_or = pool_->Fetch(tail_);
  GISTCR_RETURN_IF_ERROR(old_tail_or.status());
  PageGuard old_guard(pool_, old_tail_or.value());
  old_guard.WLatch();

  LogRecord rec;
  rec.type = LogRecordType::kRightlinkUpdate;
  RightlinkUpdatePayload pl;
  pl.page = tail_;
  pl.old_rightlink = kInvalidPageId;
  pl.new_rightlink = new_pid;
  pl.EncodeTo(&rec.payload);
  GISTCR_RETURN_IF_ERROR(txns_->AppendTxnLog(txn, &rec));
  HeapPageView(old_guard.view().data()).set_next(new_pid);
  old_guard.view().set_page_lsn(rec.lsn);
  old_guard.frame()->MarkDirty(rec.lsn);
  old_guard.Drop();

  // Format the new tail in memory; redo reformats lazily if needed.
  auto frame_or = pool_->NewPage(new_pid);
  GISTCR_RETURN_IF_ERROR(frame_or.status());
  PageGuard guard(pool_, frame_or.value());
  guard.WLatch();
  HeapPageView(guard.view().data()).Init(new_pid);
  guard.frame()->MarkDirty(rec.lsn);
  guard.Drop();

  GISTCR_RETURN_IF_ERROR(txns_->NtaEnd(txn, nta_begin));
  tail_ = new_pid;
  return Status::OK();
}

void DataStore::FreeSlot(Rid rid) {
  m_freed_->Add(1);
  MutexLock l(reuse_mu_);
  if (queued_.load(std::memory_order_relaxed) >= kMaxQueuedSlots) {
    m_dropped_->Add(1);
    return;
  }
  // Stamped under reuse_mu_, so stamps are non-decreasing in queue order.
  // Every transaction that could have found this Rid before its entry went
  // away began before this read, i.e. has a smaller id.
  Enqueue(rid, txns_->NextTxnId());
}

void DataStore::Enqueue(Rid rid, TxnId stamp) {
  std::deque<FreedSlot>& slots = free_[rid.page_id];
  if (slots.empty()) by_stamp_.emplace(stamp, rid.page_id);
  slots.push_back(FreedSlot{rid.slot, stamp});
  m_queued_->Set(static_cast<double>(queued_.fetch_add(1) + 1));
}

bool DataStore::PopReusable(TxnId horizon, Rid* rid, TxnId* stamp) {
  auto it = free_.find(reuse_page_);
  if (it == free_.end() || it->second.front().stamp > horizon) {
    // The reuse page is used up (or its remaining slots are too young):
    // move to the page whose oldest slot is oldest.
    if (by_stamp_.empty() || by_stamp_.begin()->first > horizon) return false;
    reuse_page_ = by_stamp_.begin()->second;
    it = free_.find(reuse_page_);
  }
  std::deque<FreedSlot>& slots = it->second;
  by_stamp_.erase({slots.front().stamp, reuse_page_});
  rid->page_id = reuse_page_;
  rid->slot = slots.front().slot;
  *stamp = slots.front().stamp;
  slots.pop_front();
  if (slots.empty()) {
    free_.erase(it);
  } else {
    by_stamp_.emplace(slots.front().stamp, reuse_page_);
  }
  m_queued_->Set(static_cast<double>(queued_.fetch_sub(1) - 1));
  return true;
}

Status DataStore::TryReuse(Transaction* txn, Slice record, Rid* rid) {
  *rid = Rid();
  if (queued_.load(std::memory_order_relaxed) == 0) return Status::OK();
  // Gate (a): a slot stamped s is unreachable once every open transaction
  // began after the stamp was read (id >= s). The horizon only grows, so
  // one read serves every candidate below.
  const TxnId horizon = txns_->OldestOpenTxnId();
  for (int attempt = 0; attempt < kReuseAttempts; attempt++) {
    Rid cand;
    TxnId stamp;
    {
      MutexLock l(reuse_mu_);
      if (!PopReusable(horizon, &cand, &stamp)) return Status::OK();
    }
    // Gate (b): X-lock the Rid before writing the slot (paper section 6
    // step 1), without waiting — a holder means someone still names this
    // Rid; the slot goes back in the queue for a later insert.
    const LockName name{LockSpace::kRecord, cand.Pack()};
    Status st = txns_->locks()->Lock(txn->id(), name, LockMode::kExclusive,
                                     /*wait=*/false);
    if (st.IsBusy()) {
      MutexLock l(reuse_mu_);
      Enqueue(cand, stamp);
      continue;
    }
    GISTCR_RETURN_IF_ERROR(st);
    auto frame_or = pool_->Fetch(cand.page_id);
    if (!frame_or.ok()) {
      // The append path still works; the slot stays dead.
      txns_->locks()->Unlock(txn->id(), name);
      continue;
    }
    PageGuard guard(pool_, frame_or.value());
    guard.WLatch();
    HeapPageView hv(guard.view().data());
    // Gate (c): still a tombstone on a heap page, with room for the
    // record. A slot that fails stays dead and leaves the queue.
    if (!hv.IsFormatted() || !hv.CanReuse(cand.slot, record.size())) {
      guard.Drop();
      txns_->locks()->Unlock(txn->id(), name);
      continue;
    }
    LogRecord rec;
    rec.type = LogRecordType::kHeapInsert;
    HeapOpPayload pl;
    pl.page = cand.page_id;
    pl.slot = cand.slot;
    pl.record = record.ToString();
    pl.EncodeTo(&rec.payload);
    GISTCR_RETURN_IF_ERROR(txns_->AppendTxnLog(txn, &rec));
    hv.AppendAt(cand.slot, record);
    guard.view().set_page_lsn(rec.lsn);
    guard.frame()->MarkDirty(rec.lsn);
    m_reused_->Add(1);
    *rid = cand;
    return Status::OK();
  }
  return Status::OK();
}

StatusOr<Rid> DataStore::Insert(Transaction* txn, Slice record) {
  if (record.size() > kPageSize / 4) {
    return Status::InvalidArgument("record too large");
  }
  Rid reused;
  GISTCR_RETURN_IF_ERROR(TryReuse(txn, record, &reused));
  if (reused.page_id != kInvalidPageId) return reused;
  MutexLock l(mu_);
  for (;;) {
    auto frame_or = pool_->Fetch(tail_);
    GISTCR_RETURN_IF_ERROR(frame_or.status());
    PageGuard guard(pool_, frame_or.value());
    guard.WLatch();
    HeapPageView hv(guard.view().data());
    if (!hv.IsFormatted()) {
      // Chain was grown but the fresh tail never reached disk formatted
      // (crash between link and first use); format it now.
      hv.Init(tail_);
    }
    if (!hv.HasSpaceFor(record.size())) {
      guard.Drop();
      GISTCR_RETURN_IF_ERROR(GrowChain(txn));
      continue;
    }
    const uint16_t slot = hv.count();
    LogRecord rec;
    rec.type = LogRecordType::kHeapInsert;
    HeapOpPayload pl;
    pl.page = tail_;
    pl.slot = slot;
    pl.record = record.ToString();
    pl.EncodeTo(&rec.payload);
    GISTCR_RETURN_IF_ERROR(txns_->AppendTxnLog(txn, &rec));
    hv.AppendAt(slot, record);
    guard.view().set_page_lsn(rec.lsn);
    guard.frame()->MarkDirty(rec.lsn);
    Rid rid;
    rid.page_id = tail_;
    rid.slot = slot;
    return rid;
  }
}

Status DataStore::Delete(Transaction* txn, Rid rid) {
  auto frame_or = pool_->Fetch(rid.page_id);
  GISTCR_RETURN_IF_ERROR(frame_or.status());
  PageGuard guard(pool_, frame_or.value());
  guard.WLatch();
  HeapPageView hv(guard.view().data());
  if (!hv.IsFormatted() || !hv.SlotExists(rid.slot)) {
    return Status::NotFound("heap record");
  }
  if (hv.IsDeleted(rid.slot)) {
    return Status::NotFound("heap record already deleted");
  }
  LogRecord rec;
  rec.type = LogRecordType::kHeapDelete;
  HeapOpPayload pl;
  pl.page = rid.page_id;
  pl.slot = rid.slot;
  pl.EncodeTo(&rec.payload);
  GISTCR_RETURN_IF_ERROR(txns_->AppendTxnLog(txn, &rec));
  hv.SetDeleted(rid.slot, true);
  guard.view().set_page_lsn(rec.lsn);
  guard.frame()->MarkDirty(rec.lsn);
  return Status::OK();
}

StatusOr<std::string> DataStore::Read(Rid rid) {
  auto frame_or = pool_->Fetch(rid.page_id);
  GISTCR_RETURN_IF_ERROR(frame_or.status());
  PageGuard guard(pool_, frame_or.value());
  guard.RLatch();
  HeapPageView hv(guard.view().data());
  if (!hv.IsFormatted() || !hv.SlotExists(rid.slot) ||
      hv.IsDeleted(rid.slot)) {
    return Status::NotFound("heap record");
  }
  return hv.Record(rid.slot).ToString();
}

Status DataStore::ApplyInsert(PageId page, uint16_t slot, Slice record,
                              Lsn lsn, bool check_page_lsn) {
  auto frame_or = pool_->Fetch(page);
  GISTCR_RETURN_IF_ERROR(frame_or.status());
  PageGuard guard(pool_, frame_or.value());
  guard.WLatch();
  HeapPageView hv(guard.view().data());
  if (!hv.IsFormatted()) hv.Init(page);
  if (check_page_lsn && guard.view().page_lsn() >= lsn) return Status::OK();
  hv.AppendAt(slot, record);
  guard.view().set_page_lsn(lsn);
  guard.frame()->MarkDirty(lsn);
  return Status::OK();
}

Status DataStore::ApplyDeleteMark(PageId page, uint16_t slot, bool deleted,
                                  Lsn lsn, bool check_page_lsn) {
  auto frame_or = pool_->Fetch(page);
  GISTCR_RETURN_IF_ERROR(frame_or.status());
  PageGuard guard(pool_, frame_or.value());
  guard.WLatch();
  HeapPageView hv(guard.view().data());
  if (!hv.IsFormatted() || !hv.SlotExists(slot)) {
    return Status::Corruption("heap redo: missing slot");
  }
  if (check_page_lsn && guard.view().page_lsn() >= lsn) return Status::OK();
  hv.SetDeleted(slot, deleted);
  guard.view().set_page_lsn(lsn);
  guard.frame()->MarkDirty(lsn);
  return Status::OK();
}

}  // namespace gistcr
