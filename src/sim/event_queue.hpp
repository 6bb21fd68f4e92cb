// Deterministic discrete-event queue. Ties in time break by insertion
// sequence so identical runs replay identically.
//
// The queue is the single hottest structure in a large-n run (every
// replica-to-replica hop is two scheduled events), so it is built to make the
// per-event path allocation-free and cache-lean:
//
//   - callbacks live in EventCallback, a move-only function wrapper with
//     48 bytes of inline storage — every network/timer lambda fits, so no
//     per-event heap allocation (the seed design paid two shared_ptr
//     control blocks plus a heap-allocated std::function cell per event);
//   - events live in a slab (std::vector of slots) recycled through a free
//     list; EventHandle carries the event's unique sequence number, so
//     cancelling a stale handle after the slot was recycled is a detected
//     no-op rather than a use-after-free;
//   - ordering comes from a 4-ary implicit min-heap of packed 16-byte
//     entries laid out so each sibling group is one 64-byte cache line
//     (the root sits alone at physical index 0; children of logical i are
//     logical 4i+1..4i+4 = physical 4i+4..4i+7), halving the lines touched
//     per sift level versus a naive d-ary layout;
//   - cancellation reclaims the slot (and destroys the callback)
//     immediately; the matching heap entry is dropped lazily when it
//     surfaces, and a deterministic compaction sweep rebuilds the heap once
//     dead entries outnumber live ones, so long-idle cancelled timers
//     (client resubmission, view-change escalation, retrieval) cannot
//     accumulate — the seed design kept every cancelled entry until it
//     reached the top, inflating the heap without bound under
//     timeout-per-request workloads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace leopard::sim {

/// Minimal over-aligning allocator: places the vector's storage on an
/// `Align`-byte boundary so the heap's 4-entry sibling groups coincide with
/// cache lines.
template <typename T, std::size_t Align>
struct AlignedAlloc {
  using value_type = T;

  AlignedAlloc() = default;
  template <typename U>
  AlignedAlloc(const AlignedAlloc<U, Align>&) noexcept {}  // NOLINT: converting

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{Align}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{Align});
  }

  template <typename U>
  struct rebind {
    using other = AlignedAlloc<U, Align>;
  };
  friend bool operator==(const AlignedAlloc&, const AlignedAlloc&) noexcept { return true; }
};

/// Move-only `void()` callable with small-buffer storage. Callables up to
/// kInlineCapacity bytes (and nothrow-movable) are stored in place; larger
/// ones fall back to the heap. The capacity is sized for the network hop
/// lambdas: this + two node ids + a PayloadPtr + a size.
class EventCallback {
 public:
  static constexpr std::size_t kInlineCapacity = 48;

  EventCallback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, EventCallback> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&>>>
  EventCallback(F&& f) {  // NOLINT: implicit by design, mirrors std::function
    emplace(std::forward<F>(f));
  }

  EventCallback(EventCallback&& other) noexcept { move_from(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { reset(); }

  /// Replaces the held callable, constructing the new one in place (no
  /// intermediate move through a temporary wrapper).
  template <typename F>
  void emplace(F&& f) {
    reset();
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(storage_.inline_buf)) Fn(std::forward<F>(f));
    } else {
      storage_.heap = new Fn(std::forward<F>(f));
    }
    ops_ = &ops_for<Fn>;
  }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

  /// Destroys the held callable (no-op when empty).
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  union Storage {
    alignas(alignof(std::max_align_t)) unsigned char inline_buf[kInlineCapacity];
    void* heap;
  };
  struct Ops {
    void (*invoke)(Storage&);
    void (*relocate)(Storage& dst, Storage& src) noexcept;
    void (*destroy)(Storage&) noexcept;
  };

  template <typename Fn>
  static constexpr bool fits_inline = sizeof(Fn) <= kInlineCapacity &&
                                      alignof(Fn) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<Fn>;

  template <typename Fn>
  static const Ops ops_for;

  void move_from(EventCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  Storage storage_;
  const Ops* ops_ = nullptr;
};

template <typename Fn>
const EventCallback::Ops EventCallback::ops_for = {
    /*invoke=*/[](Storage& s) {
      if constexpr (fits_inline<Fn>) {
        (*std::launder(reinterpret_cast<Fn*>(s.inline_buf)))();
      } else {
        (*static_cast<Fn*>(s.heap))();
      }
    },
    /*relocate=*/[](Storage& dst, Storage& src) noexcept {
      if constexpr (fits_inline<Fn>) {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src.inline_buf));
        ::new (static_cast<void*>(dst.inline_buf)) Fn(std::move(*from));
        from->~Fn();
      } else {
        dst.heap = src.heap;
      }
    },
    /*destroy=*/[](Storage& s) noexcept {
      if constexpr (fits_inline<Fn>) {
        std::launder(reinterpret_cast<Fn*>(s.inline_buf))->~Fn();
      } else {
        delete static_cast<Fn*>(s.heap);
      }
    },
};

class EventQueue;

/// Handle for cancelling a scheduled event; cheap to copy. Cancelling after
/// the event fired (or was already cancelled) is a detected no-op, even if
/// the underlying slot has been recycled for a newer event — the unique
/// per-event sequence tag disambiguates. Handles must not outlive their
/// queue.
class EventHandle {
 public:
  EventHandle() = default;

  void cancel();
  [[nodiscard]] bool valid() const { return queue_ != nullptr; }

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint64_t seq, std::uint32_t slot)
      : queue_(queue), seq_(seq), slot_(slot) {}

  EventQueue* queue_ = nullptr;
  std::uint64_t seq_ = 0;
  std::uint32_t slot_ = 0;
};

class EventQueue {
 public:
  EventQueue() = default;
  // Handles and heap entries point into this queue; it must stay put.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` at absolute time `at`. Accepts any void() callable; no
  /// allocation when it fits EventCallback's inline storage and a slab slot
  /// is free. The callable is constructed directly into the slab.
  template <typename F>
  EventHandle schedule(SimTime at, F&& fn) {
    const std::uint32_t idx = acquire_slot();
    slots_[idx].fn.emplace(std::forward<F>(fn));
    return commit_slot(at, idx);
  }

  /// Time of the earliest live event, or nullopt if none remain.
  [[nodiscard]] std::optional<SimTime> next_time() const;

  /// A popped event ready to execute: fire time plus the callback.
  using Popped = std::pair<SimTime, EventCallback>;

  /// Pops the earliest live event if its time is <= `limit` WITHOUT running
  /// it, so the caller can advance its clock before executing the callback.
  std::optional<Popped> pop_next(SimTime limit);

  /// Pops and immediately runs the earliest live event due by `limit`.
  std::optional<SimTime> run_next(SimTime limit);

  /// True when no live events remain.
  [[nodiscard]] bool empty() const { return live_count_ == 0; }

  /// Number of live (scheduled, uncancelled, unfired) events.
  [[nodiscard]] std::size_t size() const { return live_count_; }

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kNilSlot = 0xFFFFFFFFu;
  // Heap-entry key layout: seq in the high 40 bits, slot index in the low 24.
  // seq is unique per event, so comparing keys compares insertion order; the
  // bounds (~1.1e12 events, ~16.7M concurrent) are enforced in the .cpp.
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1u << kSlotBits) - 1;

  struct Slot {
    EventCallback fn;
    std::uint64_t seq = 0;  // seq of the current incarnation (0 = never used)
    std::uint32_t next_free = kNilSlot;
    bool live = false;
  };

  /// 16-byte packed heap entry; sibling groups of four share a cache line.
  struct HeapEntry {
    SimTime at = 0;
    std::uint64_t key = 0;  // seq << kSlotBits | slot
  };

  [[nodiscard]] static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.key < b.key;  // high bits are seq: insertion order
  }

  /// Logical heap index -> physical vector index: the root sits alone at 0,
  /// every later logical index shifts by 3 so each 4-child group starts at a
  /// multiple of 4 (64-byte aligned for 16-byte entries).
  [[nodiscard]] static std::size_t phys(std::size_t logical) {
    return logical == 0 ? 0 : logical + 3;
  }

  [[nodiscard]] HeapEntry& at_logical(std::size_t logical) const {
    return heap_[phys(logical)];
  }

  EventHandle commit_slot(SimTime at, std::uint32_t idx);
  void cancel_slot(std::uint32_t slot, std::uint64_t seq);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);

  [[nodiscard]] bool entry_live(const HeapEntry& e) const {
    const Slot& s = slots_[e.key & kSlotMask];
    return s.live && s.seq == (e.key >> kSlotBits);
  }

  // Heap primitives over logical indices. Mutable (with dead_count_) so the
  // logically-const readers next_time()/empty() can drop stale entries that
  // surface at the root — pruning never changes the observable event set.
  void sift_up(std::size_t logical) const;
  void sift_down(std::size_t logical) const;
  void pop_root() const;
  void prune_dead_top() const;
  void maybe_compact();

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  // Physical storage: index 0 is the root, 1..3 are never-read padding, and
  // logical entry l >= 1 lives at l + 3. Sized to the high-water mark;
  // heap_count_ tracks the logical size.
  mutable std::vector<HeapEntry, AlignedAlloc<HeapEntry, 64>> heap_;
  mutable std::size_t heap_count_ = 0;
  mutable std::size_t dead_count_ = 0;  // cancelled entries still in the heap
  std::size_t live_count_ = 0;
  std::uint64_t next_seq_ = 1;  // 0 is reserved for "never used"
};

inline void EventHandle::cancel() {
  if (queue_ != nullptr) queue_->cancel_slot(slot_, seq_);
}

}  // namespace leopard::sim
