// The destructive-interference granule every contended runtime structure
// pads to. Adjacent per-slot state (queue cells, combining-tree nodes,
// barrier nodes, the two ticket-lock words) must not share a cache line,
// or the coherence traffic the paper's combining is meant to eliminate
// reappears as false sharing between logically independent slots.
//
// The layout rule on a hot path is ONE WRITER PER HOT LINE:
//  * a line the fast path writes (a hot word's CAS, a per-slot counter)
//    holds only words that the same writer owns, so no second thread's
//    write can take it away between two of that writer's operations;
//  * a line every operation reads (vector headers, widths) is never
//    written on a hot path, so it stays shared in every cache;
//  * telemetry and scratch go on lines of their own, next to nothing that
//    another thread spins on or CASes. The one exception is a counter the
//    same thread bumps right after its own RMW on the hot word (the MCS
//    and CLH `contended_` counters beside `tail_`): that thread still holds
//    the line, so the bump costs no extra miss, and on a line of its own
//    it would cost one;
//  * telemetry on a word with a single writer is a plain load and store,
//    not a locked RMW; a locked RMW is used only where writers can alias
//    (SlotCounter in thread_ordinal.hpp: the slot's owner stores, threads
//    aliasing onto the slot fetch_add a second word on the same line);
//  * a count every waiting op would add to a shared line is kept instead
//    by the thread that serves the op under a lock: the flat combiner's
//    serving pass counts `ops` and `combined` with plain stores, so its
//    publishers write no telemetry line at all.
// In the cache-coherent cost model each line that breaks the rule is one
// extra remote memory reference per operation, and each needless locked
// RMW on a direct path is a second serializing instruction after its CAS.
#pragma once

#include <cstddef>

namespace krs::runtime {

// Morally std::hardware_destructive_interference_size, but pinned to a
// literal: GCC's -Winterference-size (correctly) warns that the std
// constant varies with -mtune and so must not leak into layouts that
// cross translation units compiled with different flags. 64 bytes is the
// destructive granule on every mainstream x86-64 and AArch64 part; a
// platform where that is wrong changes exactly this one definition.
inline constexpr std::size_t kCacheLine = 64;

}  // namespace krs::runtime
