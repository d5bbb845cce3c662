// Flat open-addressed wait buffer for combine records, the storage behind
// net::CombineBuffer. A switch's or router's buffer is bounded by its
// configured capacity, so the whole structure — an open-addressed
// index of representatives (linear probing, backshift deletion) plus a
// pooled slab of records chained per representative — can be sized once
// and never allocate again. Components without a hard bound (the memory
// module's §7 queue combining) start small and grow geometrically, so the
// steady state is allocation-free there too.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/combining.hpp"
#include "core/rmw.hpp"
#include "core/types.hpp"
#include "net/path.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"

namespace krs::net {

template <core::Rmw M>
class WaitTable {
 public:
  /// One decombination record: enough to synthesize the absorbed request's
  /// reply and route it home. `reversed`/`absorbed_map` serve the §5.1
  /// order-reversal variant (net/combine_buffer.hpp).
  struct Record {
    core::CombineRecord<M> rec{};
    PathHeader path{};
    bool reversed = false;
    M absorbed_map{};
  };

  explicit WaitTable(std::size_t expected_records = 16) {
    const std::size_t cap = expected_records < 8 ? 8 : expected_records;
    pool_.resize(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      pool_[i].next = static_cast<std::int32_t>(i + 1);
    }
    pool_.back().next = kNil;
    free_head_ = 0;
    slots_.resize(util::ceil_pow2(2 * cap));
  }

  /// Records currently chained under `id` (0 when absent) — the pairwise
  /// policy's fan-in check.
  [[nodiscard]] std::size_t fan_in(core::ReqId id) const {
    const Slot* s = find(id);
    return s == nullptr ? 0 : s->count;
  }

  /// Append a combine record under representative `id` (insertion order is
  /// preserved — decombined replies must leave in combine order).
  void append(core::ReqId id, Record&& r) {
    if (free_head_ == kNil) grow_pool();
    const std::int32_t node = free_head_;
    free_head_ = pool_[node].next;
    pool_[node].record = std::move(r);
    pool_[node].next = kNil;

    Slot& s = find_or_insert(id);
    if (s.count == 0) {
      s.head = s.tail = node;
    } else {
      pool_[s.tail].next = node;
      s.tail = node;
    }
    ++s.count;
    ++records_;
  }

  /// If `id` has records, invoke `f(Record&)` on each in insertion order,
  /// erase the entry, and return the number consumed (0 when absent).
  template <typename F>
  std::size_t consume(core::ReqId id, F&& f) {
    Slot* s = find(id);
    if (s == nullptr) return 0;
    const std::size_t n = s->count;
    std::int32_t node = s->head;
    erase_slot(s);
    while (node != kNil) {
      const std::int32_t next = pool_[node].next;
      f(pool_[node].record);
      pool_[node].record = Record{};
      pool_[node].next = free_head_;
      free_head_ = node;
      node = next;
    }
    KRS_ASSERT(records_ >= n);
    records_ -= n;
    return n;
  }

  [[nodiscard]] std::size_t records() const noexcept { return records_; }
  [[nodiscard]] bool empty() const noexcept { return records_ == 0; }

 private:
  static constexpr std::int32_t kNil = -1;

  struct PoolNode {
    Record record{};
    std::int32_t next = kNil;
  };

  struct Slot {
    core::ReqId key{};
    std::int32_t head = kNil;
    std::int32_t tail = kNil;
    std::uint32_t count = 0;  ///< 0 means the slot is empty
  };

  [[nodiscard]] std::size_t mask() const noexcept { return slots_.size() - 1; }

  [[nodiscard]] std::size_t ideal(core::ReqId id) const noexcept {
    return core::ReqIdHash{}(id)&mask();
  }

  [[nodiscard]] const Slot* find(core::ReqId id) const {
    for (std::size_t i = ideal(id);; i = (i + 1) & mask()) {
      const Slot& s = slots_[i];
      if (s.count == 0) return nullptr;
      if (s.key == id) return &s;
    }
  }
  [[nodiscard]] Slot* find(core::ReqId id) {
    return const_cast<Slot*>(std::as_const(*this).find(id));
  }

  Slot& find_or_insert(core::ReqId id) {
    if (2 * (entries_ + 1) > slots_.size()) rehash(slots_.size() * 2);
    for (std::size_t i = ideal(id);; i = (i + 1) & mask()) {
      Slot& s = slots_[i];
      if (s.count == 0) {
        s.key = id;
        s.head = s.tail = kNil;
        ++entries_;
        return s;
      }
      if (s.key == id) return s;
    }
  }

  /// Linear-probing deletion with backward shift: close the hole by moving
  /// later cluster members whose ideal position precedes it.
  void erase_slot(Slot* s) {
    std::size_t i = static_cast<std::size_t>(s - slots_.data());
    --entries_;
    std::size_t j = i;
    for (;;) {
      slots_[i].count = 0;
      std::size_t k;
      do {
        j = (j + 1) & mask();
        if (slots_[j].count == 0) return;
        k = ideal(slots_[j].key);
        // Keep scanning while j's ideal slot lies strictly inside (i, j]
        // (cyclically) — moving it back to i would break its probe chain.
      } while (i <= j ? (i < k && k <= j) : (i < k || k <= j));
      slots_[i] = slots_[j];
      i = j;
    }
  }

  void grow_pool() {
    const std::size_t old = pool_.size();
    pool_.resize(old * 2);
    for (std::size_t i = old; i < pool_.size(); ++i) {
      pool_[i].next = static_cast<std::int32_t>(i + 1);
    }
    pool_.back().next = kNil;
    free_head_ = static_cast<std::int32_t>(old);
  }

  void rehash(std::size_t new_size) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_size, Slot{});
    for (const Slot& s : old) {
      if (s.count == 0) continue;
      for (std::size_t i = ideal(s.key);; i = (i + 1) & mask()) {
        if (slots_[i].count == 0) {
          slots_[i] = s;
          break;
        }
      }
    }
  }

  std::vector<PoolNode> pool_;
  std::vector<Slot> slots_;
  std::int32_t free_head_ = kNil;
  std::size_t records_ = 0;
  std::size_t entries_ = 0;
};

}  // namespace krs::net
