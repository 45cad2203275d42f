// PagedTable: the MB+ variant of ckpt::Table (DESIGN.md §17).
//
// ckpt::Table lives inline in a server's trivially-copyable State struct, so
// its capacity is a compile-time constant and its bytes travel with the data
// section. That is exactly right at the paper's KB scale and exactly wrong at
// the ROADMAP's: a GB-scale table inside State would (a) blow up every spare
// clone and boot image, (b) change the data-section size that eight golden
// traces embed, and (c) still pay whole-element undo logging per mutate().
//
// PagedTable keeps the same allocator discipline — instrumented free list,
// used flags and in-use counter, stable slot indices — but puts EVERYTHING
// (bookkeeping included) in one contiguous heap buffer, rounded up to the
// checkpoint page size. The buffer is the component's "aux section": the
// recovery engine appends it to the clone/boot images, and when the page
// tier is enabled the component registers it with its PageStore, so stores
// cost one dirty-page snapshot instead of an element-sized arena record and
// restarts move only dirty pages. With the tier disabled, the same stores
// fall through to the arena undo log — byte-identical rollback either way,
// which is what the rollback-equivalence suite pins.
//
// Because the bookkeeping is raw bytes in the buffer, rollback and clone
// transfer restore a consistent allocator by pure byte ops, never a rebuilt
// one — the same property Table documents.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>

#include "ckpt/context.hpp"
#include "support/common.hpp"

namespace osiris::ckpt {

template <typename T>
class PagedTable {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(alignof(T) <= alignof(std::max_align_t));

 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  explicit PagedTable(std::size_t capacity, std::size_t page_bytes = 4096)
      : cap_(capacity) {
    OSIRIS_ASSERT(capacity > 0);
    const std::size_t used_off = sizeof(Header) + cap_ * sizeof(std::uint64_t);
    elems_off_ = (used_off + cap_ + alignof(std::max_align_t) - 1) &
                 ~(alignof(std::max_align_t) - 1);
    const std::size_t raw = elems_off_ + cap_ * sizeof(T);
    bytes_ = (raw + page_bytes - 1) & ~(page_bytes - 1);  // page-tier rounding
    buf_ = std::make_unique<std::byte[]>(bytes_);
    // Boot-time initialization writes raw: there is no checkpoint to protect
    // yet (same as Table's constexpr constructor).
    Header* h = header();
    h->free_head = 0;
    h->in_use_n = 0;
    for (std::size_t i = 0; i < cap_; ++i) next_free()[i] = i + 1 < cap_ ? i + 1 : kNil;
  }

  PagedTable(const PagedTable&) = delete;
  PagedTable& operator=(const PagedTable&) = delete;

  /// The aux region: hand to PageStore::register_region and the recovery
  /// engine's clone/boot images. Rounded up to the page size.
  [[nodiscard]] std::byte* region_data() noexcept { return buf_.get(); }
  [[nodiscard]] std::size_t region_bytes() const noexcept { return bytes_; }

  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  [[nodiscard]] std::size_t in_use_count() const noexcept {
    return static_cast<std::size_t>(header()->in_use_n);
  }

  [[nodiscard]] bool in_use(std::size_t i) const noexcept {
    OSIRIS_ASSERT(i < cap_);
    return used()[i] != 0;
  }

  /// Allocate a free slot (value-initialized); npos if the table is full.
  std::size_t alloc() {
    Header* h = header();
    if (h->free_head == kNil) return npos;
    const auto i = static_cast<std::size_t>(h->free_head);
    Context::log_write(&h->free_head, sizeof(h->free_head));
    h->free_head = next_free()[i];
    Context::log_write(&used()[i], sizeof(std::uint8_t));
    used()[i] = 1;
    Context::log_write(&h->in_use_n, sizeof(h->in_use_n));
    ++h->in_use_n;
    Context::log_write(&elems()[i], sizeof(T));
    elems()[i] = T{};
    return i;
  }

  void free(std::size_t i) {
    OSIRIS_ASSERT(i < cap_ && used()[i] != 0);
    Header* h = header();
    Context::log_write(&used()[i], sizeof(std::uint8_t));
    used()[i] = 0;
    Context::log_write(&next_free()[i], sizeof(std::uint64_t));
    next_free()[i] = h->free_head;
    Context::log_write(&h->free_head, sizeof(h->free_head));
    h->free_head = static_cast<std::uint64_t>(i);
    Context::log_write(&h->in_use_n, sizeof(h->in_use_n));
    --h->in_use_n;
  }

  [[nodiscard]] const T& at(std::size_t i) const noexcept {
    OSIRIS_ASSERT(i < cap_ && used()[i] != 0);
    return elems()[i];
  }

  [[nodiscard]] T& mutate(std::size_t i) {
    OSIRIS_ASSERT(i < cap_ && used()[i] != 0);
    Context::log_write(&elems()[i], sizeof(T));
    return elems()[i];
  }

  /// First in-use slot satisfying `pred`, or npos.
  template <typename Pred>
  [[nodiscard]] std::size_t find(Pred pred) const {
    for (std::size_t i = 0; i < cap_; ++i) {
      if (used()[i] != 0 && pred(elems()[i])) return i;
    }
    return npos;
  }

  /// Invoke `fn(index, const T&)` for every in-use slot.
  template <typename Fn>
  void for_each(Fn fn) const {
    for (std::size_t i = 0; i < cap_; ++i) {
      if (used()[i] != 0) fn(i, elems()[i]);
    }
  }

 private:
  static constexpr std::uint64_t kNil = ~std::uint64_t{0};

  struct Header {
    std::uint64_t free_head;
    std::uint64_t in_use_n;
  };

  [[nodiscard]] Header* header() noexcept { return reinterpret_cast<Header*>(buf_.get()); }
  [[nodiscard]] const Header* header() const noexcept {
    return reinterpret_cast<const Header*>(buf_.get());
  }
  [[nodiscard]] std::uint64_t* next_free() noexcept {
    return reinterpret_cast<std::uint64_t*>(buf_.get() + sizeof(Header));
  }
  [[nodiscard]] const std::uint64_t* next_free() const noexcept {
    return reinterpret_cast<const std::uint64_t*>(buf_.get() + sizeof(Header));
  }
  [[nodiscard]] std::uint8_t* used() noexcept {
    return reinterpret_cast<std::uint8_t*>(buf_.get() + sizeof(Header) +
                                           cap_ * sizeof(std::uint64_t));
  }
  [[nodiscard]] const std::uint8_t* used() const noexcept {
    return reinterpret_cast<const std::uint8_t*>(buf_.get() + sizeof(Header) +
                                                 cap_ * sizeof(std::uint64_t));
  }
  [[nodiscard]] T* elems() noexcept { return reinterpret_cast<T*>(buf_.get() + elems_off_); }
  [[nodiscard]] const T* elems() const noexcept {
    return reinterpret_cast<const T*>(buf_.get() + elems_off_);
  }

  std::size_t cap_;
  std::size_t elems_off_ = 0;
  std::size_t bytes_ = 0;
  std::unique_ptr<std::byte[]> buf_;
};

}  // namespace osiris::ckpt
