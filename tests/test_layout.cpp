// The software combiners' cache-line layout, pinned deterministically
// (runtime/cacheline.hpp's one-writer-per-hot-line rule). Most operations
// are one CAS on the hot word, so any other word on that word's line, or
// on a line the direct path writes, costs each of them one more remote
// memory reference:
//
//  * the tree's root word shares its line with no other member, each
//    slot's direct-apply counter (both words) owns a line, the read-only
//    headers stay off the root-apply counter's line, and a node's status
//    line carries exactly the words its first writes before storing
//    `status`;
//  * the flat combiner's value word shares its line with no other member,
//    and lock_, value_, the slots_ header, served_ and the telemetry sit
//    on five distinct lines; a slot's publication (sequence word, mapping,
//    reply) is one line and its direct counter another;
//  * each reader slot of the readers–writers lock owns its lines, and the
//    writer flag every reader loads shares a line with no slot.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "core/any_rmw.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/combining_backend.hpp"
#include "runtime/combining_tree.hpp"
#include "runtime/coordination.hpp"
#include "runtime/flat_combining.hpp"
#include "runtime/sim_backend.hpp"

#include "test_peers.hpp"

namespace {

using namespace krs::runtime;

/// The members of `ms` other than `name` whose lines overlap `name`'s.
std::vector<std::string> line_mates(const std::vector<Member>& ms,
                                    const std::string& name) {
  const Member* me = nullptr;
  for (const Member& m : ms) {
    if (name == m.name) me = &m;
  }
  EXPECT_NE(me, nullptr) << name;
  std::vector<std::string> mates;
  if (me == nullptr) return mates;
  for (const Member& m : ms) {
    if (&m != me && m.lines.overlaps(me->lines)) mates.emplace_back(m.name);
  }
  return mates;
}

// The tree every CombiningBackend cell holds.
using Tree = MappingCombiningTree<krs::core::AnyRmw>;
using TreePeer = CombiningTreeTestPeer;

// A mapping at its encoded size: DLS's wire form bounds the variant.
static_assert(sizeof(krs::core::DlsWordOp) <= 24);
static_assert(sizeof(krs::core::AnyRmw) <= 32);

static_assert(TreePeer::node_size<Tree>() == 2 * kCacheLine,
              "a node is its status line plus one line for both maps");

TEST(CombiningTreeLayout, DirectPathLinesHaveOneWriter) {
  for (const unsigned width : {2u, 16u}) {
    SCOPED_TRACE(width);
    const Tree tree(width);
    const std::vector<Member> ms = TreePeer::members(tree);

    // The root word: every direct CAS lands on its line, alone.
    EXPECT_TRUE(line_mates(ms, "root_").empty());
    // The root-apply counter: written by every climber's root apply, so
    // the headers every operation reads stay off its line.
    EXPECT_TRUE(line_mates(ms, "root_applies_").empty());

    // One line per slot's direct counter: no other slot, no node and no
    // member of the tree shares it, and both its words (the owner's and
    // the aliases') sit on it.
    for (unsigned s = 0; s < tree.slots(); ++s) {
      const LineSpan c = TreePeer::direct_counter(tree, s);
      EXPECT_EQ(c.first, c.last) << "slot " << s;
      for (const LineSpan& w : TreePeer::direct_counter_words(tree, s)) {
        EXPECT_EQ(w.first, c.first) << "slot " << s;
        EXPECT_EQ(w.last, c.first) << "slot " << s;
      }
      for (unsigned o = 0; o < tree.slots(); ++o) {
        if (o != s) {
          EXPECT_FALSE(c.overlaps(TreePeer::direct_counter(tree, o)))
              << "slots " << s << " and " << o;
        }
      }
      for (unsigned n = 1; n < tree.slots(); ++n) {
        EXPECT_FALSE(c.overlaps(TreePeer::node_first_words(tree, n)[0]))
            << "slot " << s << " on node " << n << "'s status line";
      }
      for (const Member& m : ms) {
        EXPECT_FALSE(c.overlaps(m.lines)) << "slot " << s << " on " << m.name;
      }
    }

    // A node's status line holds the reply, the decline flag and the fold
    // counters: all written by the node's first just before its own
    // status store, so a handshake moves one line.
    for (unsigned n = 1; n < tree.slots(); ++n) {
      const std::vector<LineSpan> w = TreePeer::node_first_words(tree, n);
      for (std::size_t i = 1; i < w.size(); ++i) {
        EXPECT_EQ(w[i].first, w[0].first) << "node " << n << " word " << i;
        EXPECT_EQ(w[i].last, w[0].first) << "node " << n << " word " << i;
      }
    }
  }
}

using Fc = FlatCombiner<>;
using FlatPeer = FlatCombinerTestPeer;

static_assert(FlatPeer::slot_size<Fc>() == 2 * kCacheLine,
              "a slot is its publication line plus its counter line");

// A publication moves one line: the owner writes `op` and `seq`, the
// combiner writes `result` and `seq` back, all on one line. The direct
// counter's two words sit together on a second line that holds no
// publication word, so the combiner's scan of `seq` never pulls the
// owner's count away.
TEST(FlatCombinerLayout, PublicationIsOneLineAndCounterAnother) {
  const Fc fc(4);
  for (unsigned s = 0; s < 4; ++s) {
    SCOPED_TRACE(s);
    const std::vector<LineSpan> pub = FlatPeer::publication_words(fc, s);
    ASSERT_EQ(pub.size(), 3u);  // seq, op, result
    for (const LineSpan& w : pub) {
      EXPECT_EQ(w.first, pub[0].first);
      EXPECT_EQ(w.last, pub[0].first);
    }
    const std::vector<LineSpan> counter = FlatPeer::direct_counter_words(fc, s);
    ASSERT_EQ(counter.size(), 2u);  // own, shared
    for (const LineSpan& w : counter) {
      EXPECT_EQ(w.first, counter[0].first);
      EXPECT_EQ(w.last, counter[0].first);
      EXPECT_FALSE(w.overlaps(pub[0]));
    }
  }
}

TEST(FlatCombinerLayout, ValueWordLineHoldsOnlyTheValue) {
  for (const unsigned slots : {2u, 16u}) {
    SCOPED_TRACE(slots);
    const Fc fc(slots);
    const std::vector<Member> ms = FlatPeer::members(fc);
    ASSERT_EQ(ms.size(), 5u);

    // Five members, five distinct lines: the value word every direct CAS
    // writes, the lock waiters retry, the header every operation reads,
    // the combiner's per-pass scratch, and the telemetry.
    for (const Member& m : ms) {
      EXPECT_TRUE(line_mates(ms, m.name).empty()) << m.name;
    }
  }
}

// Readers on distinct slots must share no line, or the striped count
// bounces a line between them as the single count did; the writer flag
// (loaded by every reader, written only by writers) sits on a line no
// reader's fetch_add touches.
template <typename Lock>
void reader_slots_have_one_writer_per_line(const Lock& lock,
                                           bool cell_is_one_line) {
  using Peer = RwLockTestPeer;
  const std::vector<Member> ms = Peer::members(lock);
  for (unsigned s = 0; s < Lock::kReaderSlots; ++s) {
    const LineSpan c = Peer::slot(lock, s);
    if (cell_is_one_line) {
      EXPECT_EQ(c.first, c.last) << "slot " << s;
    }
    for (unsigned o = 0; o < Lock::kReaderSlots; ++o) {
      if (o != s) {
        EXPECT_FALSE(c.overlaps(Peer::slot(lock, o)))
            << "slots " << s << " and " << o;
      }
    }
    for (const Member& m : ms) {
      EXPECT_FALSE(c.overlaps(m.lines)) << "slot " << s << " on " << m.name;
    }
  }
}

TEST(RwLockLayout, ReaderSlotsHaveOneWriterPerLine) {
  static_assert(FaaRwLock::kReaderSlots >= 2);
  {
    SCOPED_TRACE("atomic");
    const FaaRwLock lock;
    reader_slots_have_one_writer_per_line(lock, true);
  }
  {
    // A combining cell spans several lines; the slots still share none.
    SCOPED_TRACE("combining");
    const BasicRwLock<CombiningBackend> lock(CombiningBackend{4});
    reader_slots_have_one_writer_per_line(lock, false);
  }
  {
    // A sim cell is smaller than a line: only the slot's own alignment
    // keeps two slots apart.
    SCOPED_TRACE("sim");
    const BasicRwLock<SimBackend> lock(
        SimBackend{SimBackendConfig{.log2_procs = 2}});
    reader_slots_have_one_writer_per_line(lock, true);
  }
}

}  // namespace
