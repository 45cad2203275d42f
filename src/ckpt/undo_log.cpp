#include "ckpt/undo_log.hpp"

#include <cstring>

#include "support/common.hpp"
#include "trace/trace.hpp"

namespace osiris::ckpt {

namespace {
constexpr std::size_t kInitialArena = 4096;  // entries + data share this
}  // namespace

UndoLog::UndoLog() : canary_head_(kCanary), canary_tail_(kCanary) {
  arena_ = std::make_unique<std::byte[]>(kInitialArena);
  cap_ = kInitialArena;
  filter_ = std::make_unique<FilterSlot[]>(kFilterSlots);  // value-initialized
}

void UndoLog::filter_insert(void* addr, std::size_t len) {
  // Count-based growth keeps the load factor at or below 1/2, which bounds
  // probe chains and guarantees filter_hit() always reaches a free slot. The
  // trigger is the live count — a property of the logical store sequence —
  // never of the address values, so growth itself is deterministic too.
  if ((filter_live_ + 1) * 2 > filter_cap_) grow_filter();
  std::size_t i = filter_index(addr);
  while (filter_[i].epoch == filter_epoch_) i = (i + 1) & (filter_cap_ - 1);
  filter_[i] = FilterSlot{addr, static_cast<std::uint32_t>(len), filter_epoch_};
  ++filter_live_;
}

void UndoLog::grow_filter() {
  const std::size_t old_cap = filter_cap_;
  const auto old = std::move(filter_);
  filter_cap_ *= 2;
  filter_ = std::make_unique<FilterSlot[]>(filter_cap_);
  for (std::size_t i = 0; i < old_cap; ++i) {
    const FilterSlot& s = old[i];
    if (s.epoch != filter_epoch_) continue;  // stale epoch: dead weight
    std::size_t j = filter_index(s.addr);
    while (filter_[j].epoch == filter_epoch_) j = (j + 1) & (filter_cap_ - 1);
    filter_[j] = s;
  }
}

void UndoLog::grow(std::size_t need_entry_bytes, std::size_t need_data_bytes) {
  std::size_t cap = cap_;
  while (cap - (n_entries_ * sizeof(Entry) + data_bytes_) <
         need_entry_bytes + need_data_bytes) {
    cap *= 2;
  }
  auto next = std::make_unique<std::byte[]>(cap);
  // Entry headers stay at the front; saved bytes keep their distance from
  // the arena end, so Entry::end_off needs no fixup.
  std::memcpy(next.get(), arena_.get(), n_entries_ * sizeof(Entry));
  std::memcpy(next.get() + cap - data_bytes_, arena_.get() + cap_ - data_bytes_, data_bytes_);
  arena_ = std::move(next);
  cap_ = cap;
}

void UndoLog::record_slow(void* addr, std::size_t len) {
  OSIRIS_ASSERT(len > 0);
  const std::size_t entry_bytes = (n_entries_ + 1) * sizeof(Entry);
  if (cap_ - data_bytes_ < len || cap_ - data_bytes_ - len < entry_bytes) {
    grow(sizeof(Entry), len);
  }
  data_bytes_ += len;
  std::memcpy(arena_.get() + cap_ - data_bytes_, addr, len);
  entries()[n_entries_++] = Entry{addr, static_cast<std::uint32_t>(len),
                                  static_cast<std::uint32_t>(data_bytes_)};

  filter_insert(addr, len);

  ++stats_.records;
  stats_.bytes_logged += len;
  live_bytes_ += sizeof(Entry) + len;
  if (live_bytes_ > stats_.max_log_bytes) stats_.max_log_bytes = live_bytes_;
  OSIRIS_TRACE_EVENT(kUndoAppend, trace_id_, len, n_entries_);
}

void UndoLog::rollback() {
  OSIRIS_ASSERT(integrity_ok());
  const Entry* es = entries();
  for (std::size_t i = n_entries_; i-- > 0;) {
    std::memcpy(es[i].addr, arena_.get() + cap_ - es[i].end_off, es[i].len);
  }
  OSIRIS_TRACE_EVENT(kUndoRollback, trace_id_, n_entries_);
  n_entries_ = 0;
  data_bytes_ = 0;
  live_bytes_ = 0;
  bump_epoch();
  ++stats_.rollbacks;
}

void UndoLog::checkpoint() {
  // Discarding an empty log is the steady-state no-op checkpoint; only a
  // truncation that actually drops captured entries is worth a trace event.
  if (n_entries_ > 0) {
    OSIRIS_TRACE_EVENT(kUndoTruncate, trace_id_, n_entries_);
  }
  n_entries_ = 0;
  data_bytes_ = 0;
  live_bytes_ = 0;
  bump_epoch();
  ++stats_.checkpoints;
}

bool UndoLog::integrity_ok() const noexcept {
  return canary_head_ == kCanary && canary_tail_ == kCanary;
}

}  // namespace osiris::ckpt
