// Correctness checks krs-bench runs on every operation and after the join.
//
// A per-operation check that fails counts one failed operation (the
// numerator of error_rate); an aggregate check that fails fails the whole
// run. Each check is a plain function or a small per-thread struct so the
// self-test can feed it a seeded violation and watch it reject.
#pragma once

#include <array>
#include <cstdint>

namespace krs_bench {

using Word = std::uint64_t;

/// One thread's view of a single fetch-and-add word: its tickets (the priors
/// fetch_add returns) must strictly increase, and its reads must never go
/// backwards nor fall below its last ticket + 1 (its own increment is
/// already in the word). Also accumulates Σticket and Σticket² for
/// tickets_conserved().
struct TicketCheck {
  bool have_ticket = false;
  Word last_ticket = 0;
  Word last_read = 0;
  Word sum = 0;
  Word sum_sq = 0;

  bool on_ticket(Word t) noexcept {
    const bool ok = !have_ticket || t > last_ticket;
    have_ticket = true;
    last_ticket = t;
    sum += t;
    sum_sq += t * t;
    return ok;
  }

  bool on_read(Word v) noexcept {
    const bool ok = v >= last_read && (!have_ticket || v > last_ticket);
    if (v > last_read) last_read = v;
    return ok;
  }
};

/// After the join: n fetch_add(1)s on a word that started at 0 must have
/// handed out exactly the tickets 0..n-1, once each. Σt and Σt² (mod 2^64)
/// against their closed forms catch a lost or duplicated ticket even when
/// the plain sum happens to balance.
inline bool tickets_conserved(std::uint64_t n, Word sum, Word sum_sq) noexcept {
  using U = unsigned __int128;
  const U m = n;
  const U want_sum = n == 0 ? 0 : m * (m - 1) / 2;
  const U want_sq = n == 0 ? 0 : (m - 1) * m * (2 * m - 1) / 6;
  return sum == static_cast<Word>(want_sum) &&
         sum_sq == static_cast<Word>(want_sq);
}

/// One thread's aggregate reads of each of `Cells` counters: never
/// backwards. A sharded fold is not a snapshot, but every shard only grows
/// and one thread's folds are sequential, so its reads of a cell must not
/// decrease.
template <std::size_t Cells>
struct MonotoneReads {
  std::array<Word, Cells> last{};

  bool on_read(std::size_t cell, Word v) noexcept {
    const bool ok = v >= last[cell];
    if (v > last[cell]) last[cell] = v;
    return ok;
  }
};

/// A reader inside the rw-lock sees the writer-guarded pair equal: writers
/// bump its halves one hold apart, so a torn pair means a reader overlapped
/// a writer.
constexpr bool pair_consistent(Word a, Word b) noexcept { return a == b; }

/// At most `permits` threads are ever inside the semaphore section.
constexpr bool sem_admitted(std::uint64_t holders,
                            std::uint64_t permits) noexcept {
  return holders <= permits;
}

/// Every item enqueued came out exactly once: counts and sums match.
constexpr bool queue_conserved(std::uint64_t enq_n, Word enq_sum,
                               std::uint64_t deq_n, Word deq_sum) noexcept {
  return enq_n == deq_n && enq_sum == deq_sum;
}

}  // namespace krs_bench
