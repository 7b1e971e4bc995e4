#include "recovery/recovery_manager.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "db/heap_page.h"
#include "db/meta_page.h"
#include "gist/node.h"
#include "obs/trace.h"
#include "storage/fault_injector.h"

namespace gistcr {

namespace {

Status FetchX(BufferPool* pool, PageId pid, PageGuard* out) {
  auto frame_or = pool->Fetch(pid);
  GISTCR_RETURN_IF_ERROR(frame_or.status());
  *out = PageGuard(pool, frame_or.value());
  out->WLatch();
  return Status::OK();
}

void Stamp(PageGuard* g, Lsn lsn) {
  g->view().set_page_lsn(lsn);
  g->frame()->MarkDirty(lsn);
}

/// The single page a CLR's redo mutates. UndoRecord appends leaf-entry
/// CLRs under the target leaf's X latch with override_page naming it, and
/// every other undo action is page-local by construction, so kClr always
/// decomposes to exactly one page in instant-restart plans.
PageId ClrTargetPage(const ClrPayload& clr) {
  switch (clr.compensated_type) {
    case LogRecordType::kAddLeafEntry:
    case LogRecordType::kMarkLeafEntry: {
      if (clr.override_page != kInvalidPageId) return clr.override_page;
      EntryOpPayload pl;
      return pl.DecodeFrom(clr.original) ? pl.page : kInvalidPageId;
    }
    case LogRecordType::kSplit: {
      SplitPayload pl;
      return pl.DecodeFrom(clr.original) ? pl.orig_page : kInvalidPageId;
    }
    case LogRecordType::kInternalEntryAdd:
    case LogRecordType::kInternalEntryUpdate:
    case LogRecordType::kInternalEntryDelete: {
      EntryOpPayload pl;
      return pl.DecodeFrom(clr.original) ? pl.page : kInvalidPageId;
    }
    case LogRecordType::kGetPage:
    case LogRecordType::kFreePage: {
      PageAllocPayload pl;
      if (!pl.DecodeFrom(clr.original)) return kInvalidPageId;
      return PageAllocator::BitmapPageFor(pl.target_page);
    }
    case LogRecordType::kRightlinkUpdate: {
      RightlinkUpdatePayload pl;
      return pl.DecodeFrom(clr.original) ? pl.page : kInvalidPageId;
    }
    case LogRecordType::kRootChange: {
      RootChangePayload pl;
      return pl.DecodeFrom(clr.original) ? pl.meta_page : kInvalidPageId;
    }
    case LogRecordType::kHeapInsert:
    case LogRecordType::kHeapDelete: {
      HeapOpPayload pl;
      return pl.DecodeFrom(clr.original) ? pl.page : kInvalidPageId;
    }
    default:
      return kInvalidPageId;
  }
}

/// Appends the ids of every page whose image \p rec's redo mutates —
/// the per-page decomposition instant restart plans with. Must stay in
/// lockstep with RedoRecordScoped's `only` checks.
///
/// Reads only the fixed leading fields of each payload (every layout in
/// log_payloads.h puts its page ids first, before any variable-length
/// data). Analysis calls this once per scanned record, and a full
/// DecodeFrom — entry lists, predicate strings — would dominate the
/// instant open. CLRs are the one exception (the target page depends on
/// the compensated payload) and are rare enough to decode fully.
void PagesOfRecord(const LogRecord& rec, std::vector<PageId>* out) {
  const char* p = rec.payload.data();
  const size_t n = rec.payload.size();
  switch (rec.type) {
    case LogRecordType::kSplit:  // {orig_page, new_page, ...}
      if (n >= 8) {
        out->push_back(DecodeFixed32(p));
        out->push_back(DecodeFixed32(p + 4));
      }
      return;
    case LogRecordType::kRootChange:  // {meta_page, index_id, old, new, ...}
      if (n >= 16) {
        out->push_back(DecodeFixed32(p + 12));  // new_root
        out->push_back(DecodeFixed32(p));       // meta_page
      }
      return;
    case LogRecordType::kParentEntryUpdate:  // {child_page, parent_page, ...}
      if (n >= 8) {
        out->push_back(DecodeFixed32(p));
        const PageId parent = DecodeFixed32(p + 4);
        if (parent != kInvalidPageId) out->push_back(parent);
      }
      return;
    case LogRecordType::kInternalEntryAdd:
    case LogRecordType::kInternalEntryUpdate:
    case LogRecordType::kInternalEntryDelete:
    case LogRecordType::kAddLeafEntry:
    case LogRecordType::kMarkLeafEntry:
    case LogRecordType::kGarbageCollection:  // all: {page, ...}
    case LogRecordType::kRightlinkUpdate:
    case LogRecordType::kHeapInsert:
    case LogRecordType::kHeapDelete:
      if (n >= 4) out->push_back(DecodeFixed32(p));
      return;
    case LogRecordType::kGetPage:
    case LogRecordType::kFreePage:  // {target_page, bitmap_page}
      if (n >= 4) {
        out->push_back(PageAllocator::BitmapPageFor(DecodeFixed32(p)));
      }
      return;
    case LogRecordType::kClr: {
      ClrPayload pl;
      if (!pl.DecodeFrom(rec.payload)) return;
      const PageId pid = ClrTargetPage(pl);
      if (pid != kInvalidPageId) out->push_back(pid);
      return;
    }
    default:
      return;  // txn control, NTA-End, checkpoint: no page
  }
}

}  // namespace

void RecoveryManager::AttachMetrics(obs::MetricsRegistry* reg) {
  reg = obs::MetricsRegistry::OrFallback(reg);
  m_analyzed_ = reg->GetCounter("recovery.records_analyzed");
  m_redone_ = reg->GetCounter("recovery.records_redone");
  m_losers_ = reg->GetCounter("recovery.loser_txns");
  m_undone_ = reg->GetCounter("recovery.records_undone");
  m_checkpoints_ = reg->GetCounter("recovery.checkpoints");
  m_analysis_ns_ = reg->GetHistogram("recovery.analysis_ns");
  m_redo_ns_ = reg->GetHistogram("recovery.redo_ns");
  m_undo_ns_ = reg->GetHistogram("recovery.undo_ns");
  m_checkpoint_ns_ = reg->GetHistogram("recovery.checkpoint_ns");
  gate_.AttachMetrics(reg);
}

// ---------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------

StatusOr<RecoveryManager::CheckpointLsns> RecoveryManager::Checkpoint() {
  GISTCR_TRACE_SCOPE("recovery.checkpoint");
  const uint64_t t0 = obs::NowNanos();
  CheckpointPayload pl;
  // Begin-checkpoint LSN, read before anything is collected: a record
  // appended from here on lies above it, so restart analysis starting at
  // it cannot miss the first record of a transaction (or the update of a
  // page) that the tables below were collected too early to show. An
  // append already in flight lowers it to the tail that append saw.
  pl.begin_lsn = log_->end_lsn();
  Lsn append_floor = kInvalidLsn;
  for (auto& [id, last] : txns_->ActiveTxns(&append_floor)) {
    pl.active_txns.push_back({id, last});
  }
  if (append_floor != kInvalidLsn) {
    pl.begin_lsn = std::min(pl.begin_lsn, append_floor);
  }
  // DPT = buffer-pool dirt plus any page whose instant-restart plan has
  // not been replayed yet: such a page's disk image predates its plan
  // even when no frame is dirty (it may never have been fetched), so a
  // crash mid-drain must re-plan it from this checkpoint.
  std::map<PageId, Lsn> dirty;
  for (auto& [pid, rec] : pool_->DirtyPageTable()) {
    dirty.emplace(pid, rec);
  }
  for (auto& [pid, rec] : gate_.PendingPages()) {
    auto it = dirty.find(pid);
    if (it == dirty.end()) {
      dirty.emplace(pid, rec);
    } else if (it->second == kInvalidLsn || rec < it->second) {
      it->second = rec;
    }
  }
  CheckpointLsns out;
  out.redo_lsn = pl.begin_lsn;
  for (auto& [pid, rec] : dirty) {
    pl.dirty_pages.push_back({pid, rec});
    if (rec != kInvalidLsn) out.redo_lsn = std::min(out.redo_lsn, rec);
  }
  pl.next_txn_id = txns_->NextTxnId();
  pl.nsn_counter = nsn_->CounterValue();
  pl.heap_tail = data_->tail();
  if (checkpoint_collect_hook_) checkpoint_collect_hook_();
  LogRecord rec;
  rec.type = LogRecordType::kCheckpoint;
  pl.EncodeTo(&rec.payload);
  GISTCR_RETURN_IF_ERROR(log_->Append(&rec));
  GISTCR_RETURN_IF_ERROR(log_->Flush(rec.lsn));
  m_checkpoint_ns_->Record(obs::NowNanos() - t0);
  m_checkpoints_->Add(1);
  out.lsn = rec.lsn;
  return out;
}

// ---------------------------------------------------------------------
// Restart
// ---------------------------------------------------------------------

Status RecoveryManager::LoadCheckpoint(Lsn checkpoint_lsn,
                                       CheckpointStart* out) {
  if (checkpoint_lsn == kInvalidLsn) return Status::OK();
  LogRecord ckpt;
  GISTCR_RETURN_IF_ERROR(log_->ReadRecord(checkpoint_lsn, &ckpt));
  if (ckpt.type != LogRecordType::kCheckpoint) {
    return Corrupt("master pointer does not reference a checkpoint");
  }
  CheckpointPayload pl;
  if (!pl.DecodeFrom(ckpt.payload)) return Corrupt("bad checkpoint");
  for (const auto& t : pl.active_txns) {
    out->att[t.txn_id] = t.last_lsn;
    out->max_txn = std::max(out->max_txn, t.txn_id);
  }
  // Checkpoints written before the begin LSN existed: the record itself.
  out->analysis_start =
      pl.begin_lsn != kInvalidLsn ? pl.begin_lsn : checkpoint_lsn;
  out->redo_start = out->analysis_start;
  for (const auto& d : pl.dirty_pages) {
    if (d.rec_lsn != kInvalidLsn) {
      out->redo_start = std::min(out->redo_start, d.rec_lsn);
    }
  }
  nsn_->EnsureAtLeast(pl.nsn_counter);
  out->max_txn = std::max(out->max_txn, pl.next_txn_id - 1);
  out->heap_tail = pl.heap_tail;
  return Status::OK();
}

Status RecoveryManager::DropCommittedBelow(Lsn scanned_from,
                                           std::map<TxnId, Lsn>* att) {
  for (auto it = att->begin(); it != att->end();) {
    if (it->second < scanned_from) {
      LogRecord rec;
      GISTCR_RETURN_IF_ERROR(log_->ReadRecord(it->second, &rec));
      if (rec.type == LogRecordType::kCommit ||
          rec.type == LogRecordType::kEnd) {
        it = att->erase(it);
        continue;
      }
    }
    ++it;
  }
  return Status::OK();
}

Status RecoveryManager::Restart(Lsn checkpoint_lsn) {
  GISTCR_TRACE_SCOPE("recovery.restart");
  // --- Analysis ---------------------------------------------------------
  uint64_t phase_t0 = obs::NowNanos();
  CheckpointStart start;
  GISTCR_RETURN_IF_ERROR(LoadCheckpoint(checkpoint_lsn, &start));
  std::map<TxnId, Lsn>& att = start.att;
  const Lsn redo_start = start.redo_start;
  TxnId max_txn = start.max_txn;

  Status scan_st = log_->Scan(
      start.analysis_start, [&](const LogRecord& rec) {
        stats_.records_analyzed++;
        m_analyzed_->Add(1);
        if (rec.txn_id != kInvalidTxnId) {
          max_txn = std::max(max_txn, rec.txn_id);
          switch (rec.type) {
            case LogRecordType::kCommit:
            case LogRecordType::kEnd:
              att.erase(rec.txn_id);
              break;
            default:
              att[rec.txn_id] = rec.lsn;
              break;
          }
        }
        if (rec.type == LogRecordType::kSplit) {
          SplitPayload pl;
          if (pl.DecodeFrom(rec.payload) && pl.new_nsn != 0) {
            nsn_->EnsureAtLeast(pl.new_nsn);
          }
        }
        return true;
      });
  GISTCR_RETURN_IF_ERROR(scan_st);
  GISTCR_RETURN_IF_ERROR(DropCommittedBelow(start.analysis_start, &att));
  txns_->SetNextTxnId(max_txn + 1);
  m_analysis_ns_->Record(obs::NowNanos() - phase_t0);
  // ATT/DPT reconstructed, no page touched yet: a crash here makes the
  // next restart re-run analysis from the same checkpoint (idempotence).
  GISTCR_CRASHPOINT("recovery.after_analysis");

  // --- Redo --------------------------------------------------------------
  phase_t0 = obs::NowNanos();
  GISTCR_RETURN_IF_ERROR(log_->Scan(redo_start, [&](const LogRecord& rec) {
    Status st = RedoRecord(rec);
    if (!st.ok()) {
      scan_st = st;
      return false;
    }
    stats_.records_redone++;
    m_redone_->Add(1);
    return true;
  }));
  GISTCR_RETURN_IF_ERROR(scan_st);
  m_redo_ns_->Record(obs::NowNanos() - phase_t0);
  // History repeated but losers not yet rolled back; the page-LSN test
  // must make a second redo pass a no-op.
  GISTCR_CRASHPOINT("recovery.after_redo");

  // --- Undo of losers -----------------------------------------------------
  phase_t0 = obs::NowNanos();
  for (const auto& [id, last] : att) {
    stats_.loser_txns++;
    m_losers_->Add(1);
    Transaction* txn = txns_->ResurrectForUndo(id, last);
    GISTCR_RETURN_IF_ERROR(txns_->Abort(txn));
  }
  m_undo_ns_->Record(obs::NowNanos() - phase_t0);
  return Status::OK();
}

// ---------------------------------------------------------------------
// Instant restart (DESIGN.md section 16)
// ---------------------------------------------------------------------

Status RecoveryManager::StartInstant(Lsn checkpoint_lsn) {
  GISTCR_TRACE_SCOPE("recovery.start_instant");
  const uint64_t t0 = obs::NowNanos();

  // --- Analysis (log-only; no page is touched in this whole function) ---
  CheckpointStart start;
  GISTCR_RETURN_IF_ERROR(LoadCheckpoint(checkpoint_lsn, &start));
  std::map<TxnId, Lsn>& att = start.att;
  const Lsn redo_start = start.redo_start;
  TxnId max_txn = start.max_txn;
  const PageId heap_tail = start.heap_tail;

  // One bounded scan over [redo_start, end-of-log] builds everything at
  // once: the ATT (scanning [redo_start, begin LSN) too is harmless —
  // every transaction there either reaches its Commit/End in the scan or
  // is in the checkpoint's ATT anyway), the NSN floor, the per-page redo
  // plans, and the heap-chain links for the tail hint.
  const Lsn end_lsn = log_->last_lsn();
  // Hash-mapped plans with a last-page memo: the scan visits every record
  // in the redo span, and heap appends arrive in long same-page runs, so
  // most records hit the memo instead of the hash. (unordered_map keeps
  // references stable across inserts, so the memo survives growth.)
  std::unordered_map<PageId, std::vector<Lsn>> plans;
  plans.reserve(4096);
  std::vector<Lsn>* memo_plan = nullptr;
  PageId memo_pid = kInvalidPageId;
  std::map<PageId, PageId> heap_links;  // grow links: page -> next
  std::vector<PageId> pages_scratch;
  // Forward-collected undo footprints: every record the per-loser
  // backward walk would read inside [redo_start, end] passes through this
  // scan anyway, so gather rids / freed pages / grow links per active
  // transaction as we go (winners drop out at Commit/End) instead of
  // re-reading each loser's chain with one random log read per record.
  // CLR/NtaEnd truncation mirrors the undo_next jumps that walk takes:
  // items above undo_next are already compensated or absorbed by a
  // committed NTA, exactly the records undo will never revisit.
  struct FootItem {
    Lsn lsn;
    LogRecordType type;
    uint64_t arg;  // packed rid (leaf/heap ops) or page id (free/grow)
  };
  struct TxnFoot {
    Lsn first = kInvalidLsn;  // earliest chain record inside the span
    Lsn below = kInvalidLsn;  // chain continuation beneath the span
    std::vector<FootItem> items;
  };
  std::unordered_map<TxnId, TxnFoot> feet;
  Status scan_st = log_->ScanRange(redo_start, end_lsn, [&](
                                       const LogRecord& rec) {
    stats_.records_analyzed++;
    m_analyzed_->Add(1);
    if (rec.txn_id != kInvalidTxnId) {
      max_txn = std::max(max_txn, rec.txn_id);
      switch (rec.type) {
        case LogRecordType::kCommit:
        case LogRecordType::kEnd:
          att.erase(rec.txn_id);
          feet.erase(rec.txn_id);
          break;
        default: {
          att[rec.txn_id] = rec.lsn;
          TxnFoot& foot = feet[rec.txn_id];
          if (foot.first == kInvalidLsn) {
            foot.first = rec.lsn;
            foot.below = rec.prev_lsn;
          }
          const char* q = rec.payload.data();
          const size_t qn = rec.payload.size();
          switch (rec.type) {
            case LogRecordType::kClr:
            case LogRecordType::kNtaEnd:
              while (!foot.items.empty() &&
                     (rec.undo_next == kInvalidLsn ||
                      foot.items.back().lsn > rec.undo_next)) {
                foot.items.pop_back();
              }
              if (rec.undo_next == kInvalidLsn) {
                foot.below = kInvalidLsn;
              } else if (rec.undo_next < redo_start) {
                foot.below = rec.undo_next;
              }
              break;
            case LogRecordType::kAddLeafEntry:
            case LogRecordType::kMarkLeafEntry:
              // EntryOpPayload: page(4) nsn(8) keylen(4) key value(8) ...
              if (qn >= 16) {
                const uint32_t klen = DecodeFixed32(q + 12);
                if (qn >= 16 + static_cast<size_t>(klen) + 8) {
                  foot.items.push_back(
                      {rec.lsn, rec.type, DecodeFixed64(q + 16 + klen)});
                }
              }
              break;
            case LogRecordType::kHeapInsert:
            case LogRecordType::kHeapDelete:
              // HeapOpPayload: page(4) slot(2) ...
              if (qn >= 6) {
                Rid rid;
                rid.page_id = DecodeFixed32(q);
                rid.slot = DecodeFixed16(q + 4);
                foot.items.push_back({rec.lsn, rec.type, rid.Pack()});
              }
              break;
            case LogRecordType::kFreePage:
              if (qn >= 4) {
                foot.items.push_back(
                    {rec.lsn, rec.type, DecodeFixed32(q)});
              }
              break;
            case LogRecordType::kRightlinkUpdate:
              // Un-NtaEnd'd heap grow: undo will unlink new_rightlink.
              if (qn >= 12 && DecodeFixed32(q + 4) == kInvalidPageId) {
                foot.items.push_back(
                    {rec.lsn, rec.type, DecodeFixed32(q + 8)});
              }
              break;
            default:
              break;
          }
          break;
        }
      }
    }
    if (rec.type == LogRecordType::kSplit) {
      SplitPayload pl;
      if (pl.DecodeFrom(rec.payload) && pl.new_nsn != 0) {
        nsn_->EnsureAtLeast(pl.new_nsn);
      }
    } else if (rec.type == LogRecordType::kRightlinkUpdate) {
      // Heap-chain growth always logs old_rightlink == invalid (the tail
      // never had a successor); GiST sibling rewires never do.
      RightlinkUpdatePayload pl;
      if (pl.DecodeFrom(rec.payload) &&
          pl.old_rightlink == kInvalidPageId) {
        heap_links[pl.page] = pl.new_rightlink;
      }
    } else if (rec.type == LogRecordType::kClr) {
      // A previous crashed recovery may already have retracted a grow.
      ClrPayload clr;
      RightlinkUpdatePayload pl;
      if (clr.DecodeFrom(rec.payload) &&
          clr.compensated_type == LogRecordType::kRightlinkUpdate &&
          pl.DecodeFrom(clr.original)) {
        auto it = heap_links.find(pl.page);
        if (it != heap_links.end() && it->second == pl.new_rightlink) {
          heap_links.erase(it);
        }
      }
    }
    pages_scratch.clear();
    PagesOfRecord(rec, &pages_scratch);
    for (PageId pid : pages_scratch) {
      if (pid != memo_pid) {
        memo_plan = &plans[pid];
        memo_pid = pid;
      }
      memo_plan->push_back(rec.lsn);
    }
    return true;
  });
  GISTCR_RETURN_IF_ERROR(scan_st);
  GISTCR_RETURN_IF_ERROR(DropCommittedBelow(redo_start, &att));
  txns_->SetNextTxnId(max_txn + 1);
  GISTCR_CRASHPOINT("recovery.after_analysis");

  // --- Losers: locks, quarantine, doomed chain links ---------------------
  // Re-acquire each loser's lock footprint before the database opens —
  // its uncommitted effects stay blocking for new transactions exactly as
  // live 2PL had them — and find what its undo will retract: pages it
  // freed (quarantined until the bits are re-set) and heap-chain links it
  // will unlink (the data store must not adopt those pages as its tail).
  // The span-resident part of every chain was collected by the forward
  // scan; only a chain segment that began before redo_start still needs
  // the backward walk (the same undo_next jumps Abort will take).
  losers_.clear();
  doomed_heap_.clear();
  std::vector<PageId> quarantine;
  for (const auto& [id, last] : att) {
    stats_.loser_txns++;
    m_losers_->Add(1);
    Lsn first = last;
    std::vector<uint64_t> rids;
    Lsn cur = last;
    auto fit = feet.find(id);
    if (fit != feet.end()) {
      const TxnFoot& foot = fit->second;
      first = foot.first;
      for (const FootItem& item : foot.items) {
        switch (item.type) {
          case LogRecordType::kAddLeafEntry:
          case LogRecordType::kMarkLeafEntry:
          case LogRecordType::kHeapInsert:
          case LogRecordType::kHeapDelete:
            rids.push_back(item.arg);
            break;
          case LogRecordType::kFreePage:
            quarantine.push_back(static_cast<PageId>(item.arg));
            break;
          case LogRecordType::kRightlinkUpdate:
            doomed_heap_.push_back(static_cast<PageId>(item.arg));
            break;
          default:
            break;
        }
      }
      cur = foot.below;
    }
    while (cur != kInvalidLsn) {
      LogRecord rec;
      GISTCR_RETURN_IF_ERROR(log_->ReadRecord(cur, &rec));
      first = rec.lsn;
      switch (rec.type) {
        case LogRecordType::kClr:
        case LogRecordType::kNtaEnd:
          cur = rec.undo_next;
          continue;
        case LogRecordType::kBegin:
          cur = kInvalidLsn;
          continue;
        case LogRecordType::kAddLeafEntry:
        case LogRecordType::kMarkLeafEntry: {
          EntryOpPayload pl;
          if (pl.DecodeFrom(rec.payload)) rids.push_back(pl.entry.value);
          break;
        }
        case LogRecordType::kHeapInsert:
        case LogRecordType::kHeapDelete: {
          HeapOpPayload pl;
          if (pl.DecodeFrom(rec.payload)) {
            Rid rid;
            rid.page_id = pl.page;
            rid.slot = pl.slot;
            rids.push_back(rid.Pack());
          }
          break;
        }
        case LogRecordType::kFreePage: {
          PageAllocPayload pl;
          if (pl.DecodeFrom(rec.payload)) {
            quarantine.push_back(pl.target_page);
          }
          break;
        }
        case LogRecordType::kRightlinkUpdate: {
          RightlinkUpdatePayload pl;
          if (pl.DecodeFrom(rec.payload) &&
              pl.old_rightlink == kInvalidPageId) {
            // Un-NtaEnd'd heap grow: undo will unlink this page.
            doomed_heap_.push_back(pl.new_rightlink);
          }
          break;
        }
        default:
          break;
      }
      cur = rec.prev_lsn;
    }
    GISTCR_RETURN_IF_ERROR(txns_->locks()->Lock(
        id, LockName{LockSpace::kTxn, id}, LockMode::kExclusive));
    for (uint64_t rid : rids) {
      GISTCR_RETURN_IF_ERROR(txns_->locks()->Lock(
          id, LockName{LockSpace::kRecord, rid}, LockMode::kExclusive));
    }
    Transaction* txn = txns_->ResurrectForUndo(id, last);
    txn->set_first_lsn(first);
    losers_.push_back(txn);
  }
  alloc_->SetQuarantine(std::move(quarantine));
  txns_->SetRecoveryUndoActive(true);

  // --- Heap tail hint: follow the grow links from the checkpoint's tail,
  // stopping short of any link the pending undo will retract.
  heap_tail_hint_ = heap_tail;
  if (heap_tail_hint_ != kInvalidPageId) {
    size_t hops = 0;
    for (;;) {
      auto it = heap_links.find(heap_tail_hint_);
      if (it == heap_links.end()) break;
      if (std::find(doomed_heap_.begin(), doomed_heap_.end(), it->second) !=
          doomed_heap_.end()) {
        break;
      }
      heap_tail_hint_ = it->second;
      if (++hops > heap_links.size()) {
        return Corrupt("heap link cycle in analysis");
      }
    }
  }

  // --- Arm the gate: the database opens for business now. ----------------
  gate_.Arm(std::move(plans),
            [this](PageId pid, const std::vector<Lsn>& plan) {
              return ReplayPagePlan(pid, plan);
            });
  pool_->SetRecoveryHook(
      [this](PageId pid) {
        return gate_.EnsureRecovered(pid, /*inline_caller=*/true);
      },
      [this](PageId pid) { gate_.CancelPage(pid); });
  pool_->ArmRecoveryHook();
  m_analysis_ns_->Record(obs::NowNanos() - t0);
  return Status::OK();
}

Status RecoveryManager::RunInstantBackground(const std::atomic<bool>& stop) {
  GISTCR_TRACE_SCOPE("recovery.instant_background");
  // --- Undo of losers: ordinary aborting transactions through the normal
  // lock/latch protocol, concurrent with new work.
  uint64_t phase_t0 = obs::NowNanos();
  Status st;
  std::vector<Transaction*> losers;
  losers.swap(losers_);
  for (Transaction* txn : losers) {
    if (stop.load(std::memory_order_acquire)) {
      return Status::Aborted("recovery interrupted");
    }
    st = FaultInjector::Global().CheckCrashPoint("instant.undo");
    if (st.ok()) st = txns_->Abort(txn);
    if (!st.ok()) return st;  // stay armed: losers keep their locks
  }
  // Loser effects are fully retracted: freed pages may circulate again
  // and snapshot reads no longer risk seeing un-retracted versions.
  alloc_->ClearQuarantine();
  txns_->SetRecoveryUndoActive(false);
  m_undo_ns_->Record(obs::NowNanos() - phase_t0);

  // --- Drain: replay still-pending pages oldest-recLSN first, so the
  // log-reclaim floor rises steadily even if nothing touches them.
  phase_t0 = obs::NowNanos();
  for (PageId pid : gate_.PendingInOrder()) {
    if (stop.load(std::memory_order_acquire)) {
      return Status::Aborted("recovery interrupted");
    }
    GISTCR_RETURN_IF_ERROR(
        gate_.EnsureRecovered(pid, /*inline_caller=*/false));
  }
  m_redo_ns_->Record(obs::NowNanos() - phase_t0);

  pool_->DisarmRecoveryHook();
  gate_.Disarm();
  return Status::OK();
}

Status RecoveryManager::ReplayPagePlan(PageId pid,
                                       const std::vector<Lsn>& plan) {
  GISTCR_TRACE_SCOPE("recovery.replay_page");
  // Hoisted page-LSN test: everything at or below the on-disk page LSN
  // already reached this page before the crash, and RedoRecordScoped
  // would skip it after reading the record. Skipping here instead saves
  // one log read per pre-flushed record — for hot pages (root, bitmap)
  // the plan spans the whole redo interval but the page was written back
  // moments before the crash, so nearly all of it prunes away. A fresh
  // or never-flushed page reads page_lsn 0 and keeps its full plan.
  Lsn page_lsn = 0;
  {
    PageGuard g;
    GISTCR_RETURN_IF_ERROR(FetchX(pool_, pid, &g));
    page_lsn = g.view().page_lsn();
  }
  auto it = std::upper_bound(plan.begin(), plan.end(), page_lsn);
  for (; it != plan.end(); ++it) {
    LogRecord rec;
    GISTCR_RETURN_IF_ERROR(log_->ReadRecord(*it, &rec));
    GISTCR_RETURN_IF_ERROR(RedoRecordScoped(rec, pid));
    stats_.records_redone++;
    m_redone_->Add(1);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Redo (page-oriented, page-LSN test)
// ---------------------------------------------------------------------

Status RecoveryManager::RedoRecord(const LogRecord& rec) {
  return RedoRecordScoped(rec, kInvalidPageId);
}

Status RecoveryManager::RedoRecordScoped(const LogRecord& rec, PageId only) {
  const Lsn lsn = rec.lsn;
  switch (rec.type) {
    case LogRecordType::kSplit: {
      SplitPayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("split payload");
      const Nsn new_nsn = pl.new_nsn != 0 ? pl.new_nsn : lsn;
      if (only == kInvalidPageId || only == pl.orig_page) {
        PageGuard g;
        GISTCR_RETURN_IF_ERROR(FetchX(pool_, pl.orig_page, &g));
        if (g.view().page_lsn() < lsn) {
          NodeView node(g.view().data());
          for (const IndexEntry& m : pl.moved) {
            const int idx = node.FindByKeyValue(m.key, m.value);
            if (idx < 0) return Corrupt("split redo: moved entry missing");
            node.RemoveEntry(static_cast<uint16_t>(idx));
          }
          GISTCR_RETURN_IF_ERROR(node.SetBp(pl.orig_bp_after));
          node.set_nsn(new_nsn);
          node.set_rightlink(pl.new_page);
          Stamp(&g, lsn);
        }
      }
      if (only == kInvalidPageId || only == pl.new_page) {
        PageGuard g;
        GISTCR_RETURN_IF_ERROR(FetchX(pool_, pl.new_page, &g));
        if (g.view().page_lsn() < lsn) {
          NodeView node(g.view().data());
          node.Init(pl.new_page, pl.level);
          for (const IndexEntry& m : pl.moved) {
            GISTCR_RETURN_IF_ERROR(node.InsertEntry(m));
          }
          GISTCR_RETURN_IF_ERROR(node.SetBp(pl.new_bp));
          node.set_nsn(pl.old_nsn);
          node.set_rightlink(pl.old_rightlink);
          Stamp(&g, lsn);
        }
      }
      return Status::OK();
    }
    case LogRecordType::kRootChange: {
      RootChangePayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("rootchange payload");
      if (only == kInvalidPageId || only == pl.new_root) {
        PageGuard g;
        GISTCR_RETURN_IF_ERROR(FetchX(pool_, pl.new_root, &g));
        if (g.view().page_lsn() < lsn) {
          NodeView node(g.view().data());
          node.Init(pl.new_root, pl.new_root_level);
          for (const IndexEntry& e : pl.root_entries) {
            GISTCR_RETURN_IF_ERROR(node.InsertEntry(e));
          }
          GISTCR_RETURN_IF_ERROR(node.SetBp(pl.root_bp));
          Stamp(&g, lsn);
        }
      }
      if (only == kInvalidPageId || only == pl.meta_page) {
        PageGuard g;
        GISTCR_RETURN_IF_ERROR(FetchX(pool_, pl.meta_page, &g));
        if (g.view().page_lsn() < lsn) {
          MetaView meta(g.view().data());
          meta.SetRoot(pl.index_id, pl.new_root);
          Stamp(&g, lsn);
        }
      }
      return Status::OK();
    }
    case LogRecordType::kParentEntryUpdate: {
      ParentEntryUpdatePayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("peu payload");
      if (only == kInvalidPageId || only == pl.child_page) {
        PageGuard g;
        GISTCR_RETURN_IF_ERROR(FetchX(pool_, pl.child_page, &g));
        if (g.view().page_lsn() < lsn) {
          NodeView node(g.view().data());
          GISTCR_RETURN_IF_ERROR(node.SetBp(pl.new_bp));
          Stamp(&g, lsn);
        }
      }
      if (pl.parent_page != kInvalidPageId &&
          (only == kInvalidPageId || only == pl.parent_page)) {
        PageGuard g;
        GISTCR_RETURN_IF_ERROR(FetchX(pool_, pl.parent_page, &g));
        if (g.view().page_lsn() < lsn) {
          NodeView node(g.view().data());
          const int idx = node.FindByValue(pl.child_value);
          if (idx < 0) return Corrupt("peu redo: entry missing");
          GISTCR_RETURN_IF_ERROR(
              node.SetEntryKey(static_cast<uint16_t>(idx), pl.new_bp));
          Stamp(&g, lsn);
        }
      }
      return Status::OK();
    }
    case LogRecordType::kInternalEntryAdd:
    case LogRecordType::kInternalEntryUpdate:
    case LogRecordType::kInternalEntryDelete: {
      EntryOpPayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("entryop payload");
      if (only != kInvalidPageId && only != pl.page) return Status::OK();
      PageGuard g;
      GISTCR_RETURN_IF_ERROR(FetchX(pool_, pl.page, &g));
      if (g.view().page_lsn() >= lsn) return Status::OK();
      NodeView node(g.view().data());
      if (rec.type == LogRecordType::kInternalEntryAdd) {
        GISTCR_RETURN_IF_ERROR(node.InsertEntry(pl.entry));
      } else if (rec.type == LogRecordType::kInternalEntryUpdate) {
        const int idx = node.FindByValue(pl.entry.value);
        if (idx < 0) return Corrupt("ieu redo: entry missing");
        GISTCR_RETURN_IF_ERROR(
            node.SetEntryKey(static_cast<uint16_t>(idx), pl.entry.key));
      } else {
        const int idx = node.FindByValue(pl.entry.value);
        if (idx < 0) return Corrupt("ied redo: entry missing");
        node.RemoveEntry(static_cast<uint16_t>(idx));
      }
      Stamp(&g, lsn);
      return Status::OK();
    }
    case LogRecordType::kAddLeafEntry: {
      EntryOpPayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("addleaf payload");
      if (only != kInvalidPageId && only != pl.page) return Status::OK();
      PageGuard g;
      GISTCR_RETURN_IF_ERROR(FetchX(pool_, pl.page, &g));
      if (g.view().page_lsn() >= lsn) return Status::OK();
      NodeView node(g.view().data());
      GISTCR_RETURN_IF_ERROR(node.InsertEntry(pl.entry));
      Stamp(&g, lsn);
      return Status::OK();
    }
    case LogRecordType::kMarkLeafEntry: {
      EntryOpPayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("markleaf payload");
      if (only != kInvalidPageId && only != pl.page) return Status::OK();
      PageGuard g;
      GISTCR_RETURN_IF_ERROR(FetchX(pool_, pl.page, &g));
      if (g.view().page_lsn() >= lsn) return Status::OK();
      NodeView node(g.view().data());
      const int idx = node.FindByKeyValue(pl.entry.key, pl.entry.value);
      if (idx < 0) return Corrupt("markleaf redo: entry missing");
      node.set_entry_del_txn(static_cast<uint16_t>(idx), rec.txn_id);
      Stamp(&g, lsn);
      return Status::OK();
    }
    case LogRecordType::kGarbageCollection: {
      GarbageCollectionPayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("gc payload");
      if (only != kInvalidPageId && only != pl.page) return Status::OK();
      PageGuard g;
      GISTCR_RETURN_IF_ERROR(FetchX(pool_, pl.page, &g));
      if (g.view().page_lsn() >= lsn) return Status::OK();
      NodeView node(g.view().data());
      for (const IndexEntry& e : pl.removed) {
        const int idx = node.FindByKeyValue(e.key, e.value);
        if (idx < 0) return Corrupt("gc redo: entry missing");
        node.RemoveEntry(static_cast<uint16_t>(idx));
      }
      Stamp(&g, lsn);
      return Status::OK();
    }
    case LogRecordType::kGetPage:
    case LogRecordType::kFreePage: {
      PageAllocPayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("alloc payload");
      if (only != kInvalidPageId &&
          only != PageAllocator::BitmapPageFor(pl.target_page)) {
        return Status::OK();
      }
      return alloc_->ApplyBit(pl.target_page,
                              rec.type == LogRecordType::kGetPage, lsn,
                              /*check_page_lsn=*/true);
    }
    case LogRecordType::kRightlinkUpdate: {
      RightlinkUpdatePayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("rightlink payload");
      if (only != kInvalidPageId && only != pl.page) return Status::OK();
      PageGuard g;
      GISTCR_RETURN_IF_ERROR(FetchX(pool_, pl.page, &g));
      if (g.view().page_lsn() >= lsn) return Status::OK();
      if (g.view().page_type() == PageType::kHeap) {
        HeapPageView(g.view().data()).set_next(pl.new_rightlink);
      } else if (g.view().page_type() == PageType::kGistNode) {
        NodeView(g.view().data()).set_rightlink(pl.new_rightlink);
      } else {
        return Corrupt("rightlink redo: unexpected page type");
      }
      Stamp(&g, lsn);
      return Status::OK();
    }
    case LogRecordType::kHeapInsert: {
      HeapOpPayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("heap payload");
      if (only != kInvalidPageId && only != pl.page) return Status::OK();
      return data_->ApplyInsert(pl.page, pl.slot, pl.record, lsn, true);
    }
    case LogRecordType::kHeapDelete: {
      HeapOpPayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("heap payload");
      if (only != kInvalidPageId && only != pl.page) return Status::OK();
      return data_->ApplyDeleteMark(pl.page, pl.slot, true, lsn, true);
    }
    case LogRecordType::kClr: {
      ClrPayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("clr payload");
      if (only != kInvalidPageId && only != ClrTargetPage(pl)) {
        return Status::OK();
      }
      return RedoClrAction(pl.compensated_type, pl.original,
                           pl.override_page, lsn);
    }
    default:
      return Status::OK();  // txn control, NTA-End, checkpoint: no page
  }
}

// ---------------------------------------------------------------------
// Undo (Table 1 right column); shared by live rollback and restart
// ---------------------------------------------------------------------

Status RecoveryManager::ApplyRemoveLeafEntry(PageId page,
                                             const EntryOpPayload& pl,
                                             Lsn lsn, bool check_lsn) {
  PageId pid = page;
  for (int guard = 0; guard < 1 << 20; guard++) {
    PageGuard g;
    GISTCR_RETURN_IF_ERROR(FetchX(pool_, pid, &g));
    if (check_lsn && g.view().page_lsn() >= lsn) return Status::OK();
    NodeView node(g.view().data());
    const int idx = node.FindByKeyValue(pl.entry.key, pl.entry.value);
    if (idx >= 0) {
      node.RemoveEntry(static_cast<uint16_t>(idx));
      Stamp(&g, lsn);
      return Status::OK();
    }
    // The entry migrated right between locate and apply (live rollback
    // under concurrency); keep chasing.
    if (node.nsn() <= pl.nsn || node.rightlink() == kInvalidPageId) {
      return Corrupt("undo add-leaf: entry not found");
    }
    pid = node.rightlink();
  }
  return Corrupt("undo add-leaf: rightlink cycle");
}

Status RecoveryManager::ApplyUnmarkLeafEntry(PageId page,
                                             const EntryOpPayload& pl,
                                             Lsn lsn, bool check_lsn) {
  PageId pid = page;
  for (int guard = 0; guard < 1 << 20; guard++) {
    PageGuard g;
    GISTCR_RETURN_IF_ERROR(FetchX(pool_, pid, &g));
    if (check_lsn && g.view().page_lsn() >= lsn) return Status::OK();
    NodeView node(g.view().data());
    const int idx = node.FindByKeyValue(pl.entry.key, pl.entry.value);
    if (idx >= 0) {
      node.set_entry_del_txn(static_cast<uint16_t>(idx), kInvalidTxnId);
      Stamp(&g, lsn);
      return Status::OK();
    }
    if (node.nsn() <= pl.nsn || node.rightlink() == kInvalidPageId) {
      return Corrupt("undo mark-leaf: entry not found");
    }
    pid = node.rightlink();
  }
  return Corrupt("undo mark-leaf: rightlink cycle");
}

Status RecoveryManager::ApplyUndoSplit(const SplitPayload& pl, Lsn lsn,
                                       bool check_lsn) {
  PageGuard g;
  GISTCR_RETURN_IF_ERROR(FetchX(pool_, pl.orig_page, &g));
  if (check_lsn && g.view().page_lsn() >= lsn) return Status::OK();
  NodeView node(g.view().data());
  for (const IndexEntry& m : pl.moved) {
    GISTCR_RETURN_IF_ERROR(node.InsertEntry(m));
  }
  GISTCR_RETURN_IF_ERROR(node.SetBp(pl.orig_bp_before));
  node.set_nsn(pl.old_nsn);
  node.set_rightlink(pl.old_rightlink);
  Stamp(&g, lsn);
  // New page: "no action necessary" (Table 1) — the preceding Get-Page's
  // undo returns it to the allocator.
  return Status::OK();
}

Status RecoveryManager::ApplyUndoInternal(LogRecordType t,
                                          const EntryOpPayload& pl, Lsn lsn,
                                          bool check_lsn) {
  PageGuard g;
  GISTCR_RETURN_IF_ERROR(FetchX(pool_, pl.page, &g));
  if (check_lsn && g.view().page_lsn() >= lsn) return Status::OK();
  NodeView node(g.view().data());
  if (t == LogRecordType::kInternalEntryAdd) {
    const int idx = node.FindByValue(pl.entry.value);
    if (idx < 0) return Corrupt("undo iea: entry missing");
    node.RemoveEntry(static_cast<uint16_t>(idx));
  } else if (t == LogRecordType::kInternalEntryUpdate) {
    const int idx = node.FindByValue(pl.entry.value);
    if (idx < 0) return Corrupt("undo ieu: entry missing");
    GISTCR_RETURN_IF_ERROR(
        node.SetEntryKey(static_cast<uint16_t>(idx), pl.old_bp));
  } else {  // kInternalEntryDelete
    GISTCR_RETURN_IF_ERROR(node.InsertEntry(pl.entry));
  }
  Stamp(&g, lsn);
  return Status::OK();
}

Status RecoveryManager::ApplyUndoRightlink(const RightlinkUpdatePayload& pl,
                                           Lsn lsn, bool check_lsn) {
  PageGuard g;
  GISTCR_RETURN_IF_ERROR(FetchX(pool_, pl.page, &g));
  if (check_lsn && g.view().page_lsn() >= lsn) return Status::OK();
  // Retract only the link this record installed. Under instant restart a
  // regrow can overwrite a doomed link before the loser's undo reaches it
  // (DataStore::Open stops the chain short of a doomed page, so a
  // concurrent Insert re-grows over it); blindly restoring old_rightlink
  // would then unlink the *live* regrown page. The comparison is
  // deterministic under per-page LSN-ordered replay, so CLR redo takes the
  // same branch. Stamp regardless: the page-LSN must advance past every
  // record whose effect (possibly a no-op) is accounted for.
  if (g.view().page_type() == PageType::kHeap) {
    HeapPageView hv(g.view().data());
    if (hv.next() == pl.new_rightlink) hv.set_next(pl.old_rightlink);
  } else if (g.view().page_type() == PageType::kGistNode) {
    NodeView node(g.view().data());
    if (node.rightlink() == pl.new_rightlink) {
      node.set_rightlink(pl.old_rightlink);
    }
  } else {
    return Corrupt("undo rightlink: unexpected page type");
  }
  Stamp(&g, lsn);
  return Status::OK();
}

Status RecoveryManager::ApplyUndoRootChange(const RootChangePayload& pl,
                                            Lsn lsn, bool check_lsn) {
  PageGuard g;
  GISTCR_RETURN_IF_ERROR(FetchX(pool_, pl.meta_page, &g));
  if (check_lsn && g.view().page_lsn() >= lsn) return Status::OK();
  MetaView meta(g.view().data());
  meta.SetRoot(pl.index_id, pl.old_root);
  Stamp(&g, lsn);
  return Status::OK();
}

Status RecoveryManager::RedoClrAction(LogRecordType t, Slice original,
                                      PageId override_page, Lsn lsn) {
  switch (t) {
    case LogRecordType::kAddLeafEntry: {
      EntryOpPayload pl;
      if (!pl.DecodeFrom(original)) return Corrupt("clr addleaf payload");
      const PageId page =
          override_page != kInvalidPageId ? override_page : pl.page;
      return ApplyRemoveLeafEntry(page, pl, lsn, /*check_lsn=*/true);
    }
    case LogRecordType::kMarkLeafEntry: {
      EntryOpPayload pl;
      if (!pl.DecodeFrom(original)) return Corrupt("clr markleaf payload");
      const PageId page =
          override_page != kInvalidPageId ? override_page : pl.page;
      return ApplyUnmarkLeafEntry(page, pl, lsn, /*check_lsn=*/true);
    }
    case LogRecordType::kSplit: {
      SplitPayload pl;
      if (!pl.DecodeFrom(original)) return Corrupt("clr split payload");
      return ApplyUndoSplit(pl, lsn, true);
    }
    case LogRecordType::kInternalEntryAdd:
    case LogRecordType::kInternalEntryUpdate:
    case LogRecordType::kInternalEntryDelete: {
      EntryOpPayload pl;
      if (!pl.DecodeFrom(original)) return Corrupt("clr entryop payload");
      return ApplyUndoInternal(t, pl, lsn, true);
    }
    case LogRecordType::kGetPage:
    case LogRecordType::kFreePage: {
      PageAllocPayload pl;
      if (!pl.DecodeFrom(original)) return Corrupt("clr alloc payload");
      return alloc_->ApplyBit(pl.target_page,
                              t == LogRecordType::kFreePage, lsn, true);
    }
    case LogRecordType::kRightlinkUpdate: {
      RightlinkUpdatePayload pl;
      if (!pl.DecodeFrom(original)) return Corrupt("clr rightlink payload");
      return ApplyUndoRightlink(pl, lsn, true);
    }
    case LogRecordType::kRootChange: {
      RootChangePayload pl;
      if (!pl.DecodeFrom(original)) return Corrupt("clr rootchange payload");
      return ApplyUndoRootChange(pl, lsn, true);
    }
    case LogRecordType::kHeapInsert: {
      HeapOpPayload pl;
      if (!pl.DecodeFrom(original)) return Corrupt("clr heap payload");
      return data_->ApplyDeleteMark(pl.page, pl.slot, true, lsn, true);
    }
    case LogRecordType::kHeapDelete: {
      HeapOpPayload pl;
      if (!pl.DecodeFrom(original)) return Corrupt("clr heap payload");
      return data_->ApplyDeleteMark(pl.page, pl.slot, false, lsn, true);
    }
    default:
      return Corrupt("clr: uncompensatable type");
  }
}

Status RecoveryManager::UndoRecord(Transaction* txn, const LogRecord& rec) {
  // Fires once per record rolled back — crash-during-undo coverage (the
  // CLR chain must let a second restart skip already-compensated work).
  GISTCR_CRASHPOINT("recovery.mid_undo");
  // Redo-only records (Table 1): nothing to undo, no CLR.
  if (rec.type == LogRecordType::kParentEntryUpdate ||
      rec.type == LogRecordType::kGarbageCollection) {
    return Status::OK();
  }
  stats_.records_undone++;
  m_undone_->Add(1);

  ClrPayload clr;
  clr.compensated_type = rec.type;
  clr.override_page = kInvalidPageId;
  clr.original = rec.payload;

  // Logical undo of leaf content: chase the NSN-guided rightlink chain
  // under X latches until the entry's current leaf is found, then append
  // the CLR *while still holding that latch* before mutating. Logging
  // under the latch pins override_page to exactly where the entry is at
  // the CLR's LSN — instant restart relies on that to attribute the CLR's
  // redo to a single page plan (the entry cannot migrate between locate
  // and log, unlike the old locate-log-apply sequence).
  //
  // Page first, version record second: while the aborted entry is still
  // on the leaf its pending version record must exist, or a concurrent
  // snapshot scan finds no chain, treats the entry as ancient and emits
  // the dirty insert. Once the entry is off the page (latch dropped,
  // frame version bumped) the record is unreachable and safe to retract.
  if (rec.type == LogRecordType::kAddLeafEntry ||
      rec.type == LogRecordType::kMarkLeafEntry) {
    EntryOpPayload pl;
    if (!pl.DecodeFrom(rec.payload)) return Corrupt("undo payload");
    PageId pid = pl.page;
    for (int guard = 0; guard < 1 << 20; guard++) {
      PageGuard g;
      GISTCR_RETURN_IF_ERROR(FetchX(pool_, pid, &g));
      if (g.view().page_type() != PageType::kGistNode) {
        return Corrupt("logical undo: lost leaf chain");
      }
      NodeView node(g.view().data());
      const int idx = node.FindByKeyValue(pl.entry.key, pl.entry.value);
      if (idx < 0) {
        if (node.nsn() <= pl.nsn || node.rightlink() == kInvalidPageId) {
          return Corrupt("logical undo: entry not found");
        }
        pid = node.rightlink();
        continue;
      }
      clr.override_page = pid;
      LogRecord crec;
      crec.type = LogRecordType::kClr;
      crec.undo_next = rec.prev_lsn;
      clr.EncodeTo(&crec.payload);
      GISTCR_RETURN_IF_ERROR(txns_->AppendTxnLog(txn, &crec));
      if (rec.type == LogRecordType::kAddLeafEntry) {
        node.RemoveEntry(static_cast<uint16_t>(idx));
      } else {
        node.set_entry_del_txn(static_cast<uint16_t>(idx), kInvalidTxnId);
      }
      Stamp(&g, crec.lsn);
      g.Drop();
      if (mvcc_ != nullptr) {
        if (rec.type == LogRecordType::kAddLeafEntry) {
          mvcc_->UndoInsert(pl.entry.value, rec.txn_id);
        } else {
          mvcc_->UndoDelete(pl.entry.value, rec.txn_id);
        }
      }
      return Status::OK();
    }
    return Corrupt("logical undo: rightlink cycle");
  }

  LogRecord crec;
  crec.type = LogRecordType::kClr;
  crec.undo_next = rec.prev_lsn;
  clr.EncodeTo(&crec.payload);
  GISTCR_RETURN_IF_ERROR(txns_->AppendTxnLog(txn, &crec));

  // Apply the undo action physically (no page-LSN test on the forward
  // path; the pages are current).
  switch (rec.type) {
    case LogRecordType::kSplit: {
      SplitPayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("undo split payload");
      return ApplyUndoSplit(pl, crec.lsn, false);
    }
    case LogRecordType::kInternalEntryAdd:
    case LogRecordType::kInternalEntryUpdate:
    case LogRecordType::kInternalEntryDelete: {
      EntryOpPayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("undo entry payload");
      return ApplyUndoInternal(rec.type, pl, crec.lsn, false);
    }
    case LogRecordType::kGetPage:
    case LogRecordType::kFreePage: {
      PageAllocPayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("undo alloc payload");
      return alloc_->ApplyBit(pl.target_page,
                              rec.type == LogRecordType::kFreePage, crec.lsn,
                              false);
    }
    case LogRecordType::kRightlinkUpdate: {
      RightlinkUpdatePayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("undo rl payload");
      return ApplyUndoRightlink(pl, crec.lsn, false);
    }
    case LogRecordType::kRootChange: {
      RootChangePayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("undo root payload");
      return ApplyUndoRootChange(pl, crec.lsn, false);
    }
    case LogRecordType::kHeapInsert: {
      HeapOpPayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("undo heap payload");
      GISTCR_RETURN_IF_ERROR(
          data_->ApplyDeleteMark(pl.page, pl.slot, true, crec.lsn, false));
      // The insert's leaf entry (logged after it) was undone first, so
      // the Rid is unreferenced: abort, savepoint rollback and restart
      // loser undo all hand the slot back for reuse here.
      Rid rid;
      rid.page_id = pl.page;
      rid.slot = pl.slot;
      data_->FreeSlot(rid);
      return Status::OK();
    }
    case LogRecordType::kHeapDelete: {
      HeapOpPayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("undo heap payload");
      return data_->ApplyDeleteMark(pl.page, pl.slot, false, crec.lsn, false);
    }
    default:
      return Status::OK();
  }
}

}  // namespace gistcr
