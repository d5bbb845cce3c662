// Executable form of the paper's correctness criteria (§3.2, §4.3).
//
// Given a finished simulation, the checker
//   1. expands every (possibly combined) message the memory processed into
//      the sequence of original requests it *represents* (the inductive
//      structure of Lemma 4.1: a message that absorbed B then C represents
//      [own request, expansion of B, expansion of C]),
//   2. replays each location's expanded request sequence serially and
//      checks that every processor observed exactly the serial reply and
//      that the final memory value matches (M2.1: the behavior is as if a
//      serial stream of atomic operations executed),
//   3. checks that every issued operation was processed exactly once
//      (M2.2: every request is eventually accepted), and
//   4. checks that same-processor requests to the same location were
//      processed in issue order (M2.3).
//
// A machine run that passes is a witness that the combining network
// produced a behavior of a correct non-combining memory — Theorem 4.2.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/rmw.hpp"
#include "core/types.hpp"
#include "mem/module.hpp"
#include "net/switch.hpp"
#include "proc/processor.hpp"

namespace krs::verify {

using core::Addr;
using core::ReqId;

struct CheckResult {
  bool ok = true;
  std::string error;
  std::uint64_t locations_checked = 0;
  std::uint64_t operations_checked = 0;
  std::uint64_t combined_messages_expanded = 0;

  static CheckResult failure(std::string msg) {
    return {false, std::move(msg), 0, 0, 0};
  }
};

/// Check a completed machine run against the initial cell value. `Machine`
/// must expose rmw_type, combine_log(), completed(), module_count(),
/// module(i).access_log() for each module i < module_count(), and
/// value_at(addr) (satisfied by every sim::MachineShell machine).
template <typename MachineT>
CheckResult check_machine(
    const MachineT& m,
    const typename MachineT::rmw_type::value_type& initial) {
  using M = typename MachineT::rmw_type;
  CheckResult res;

  // Children of each representative, in chronological combine order. A
  // reversed child (§5.1 starred table) logically precedes its parent.
  struct Child {
    ReqId id;
    bool reversed;
  };
  std::unordered_map<ReqId, std::vector<Child>, core::ReqIdHash> children;
  for (const auto& ev : m.combine_log()) {
    children[ev.representative].push_back({ev.absorbed, ev.reversed});
  }

  std::unordered_map<ReqId, const proc::CompletedOp<M>*, core::ReqIdHash> ops;
  for (const auto& op : m.completed()) ops.emplace(op.id, &op);

  // Expand each module's serial access log per address.
  std::map<Addr, std::vector<ReqId>> per_addr;
  std::unordered_set<ReqId, core::ReqIdHash> seen;
  // Expansion (Lemma 4.1): a message's represented sequence starts as its
  // own request; each combine event appends the absorbed message's
  // expansion — or PREPENDS it for a reversed combine.
  bool duplicate = false;
  const std::function<std::vector<ReqId>(ReqId)> expand =
      [&](ReqId id) -> std::vector<ReqId> {
    if (!seen.insert(id).second) {
      duplicate = true;
      return {};
    }
    std::vector<ReqId> seq{id};
    if (auto it = children.find(id); it != children.end()) {
      for (const Child& c : it->second) {
        std::vector<ReqId> sub = expand(c.id);
        seq.insert(c.reversed ? seq.begin() : seq.end(), sub.begin(),
                   sub.end());
      }
    }
    return seq;
  };
  for (std::uint32_t mod = 0; mod < m.module_count(); ++mod) {
    for (const auto& rec : m.module(mod).access_log()) {
      const bool combined = children.count(rec.id) != 0;
      std::vector<ReqId> seq = expand(rec.id);
      if (duplicate) {
        return CheckResult::failure("a request was represented twice "
                                    "(M2.1 violated)");
      }
      auto& dst = per_addr[rec.addr];
      dst.insert(dst.end(), seq.begin(), seq.end());
      if (combined) ++res.combined_messages_expanded;
    }
  }

  // Every completed operation must have been processed exactly once.
  for (const auto& op : m.completed()) {
    if (seen.count(op.id) == 0) {
      return CheckResult::failure("completed op " + core::to_string(op.id) +
                                  " never reached memory (M2.2 violated)");
    }
  }
  if (seen.size() != m.completed().size()) {
    std::ostringstream os;
    os << "memory processed " << seen.size() << " requests but "
       << m.completed().size() << " completed";
    return CheckResult::failure(os.str());
  }

  // Serial replay per location (Lemma 4.1 (2)–(3)) and M2.3.
  for (const auto& [addr, order] : per_addr) {
    typename M::value_type value = initial;
    std::unordered_map<std::uint32_t, std::uint32_t> last_seq;
    for (const ReqId id : order) {
      const auto it = ops.find(id);
      if (it == ops.end()) {
        return CheckResult::failure("memory processed unknown request " +
                                    core::to_string(id));
      }
      const auto& op = *it->second;
      if (op.addr != addr) {
        return CheckResult::failure("request " + core::to_string(id) +
                                    " processed at wrong location");
      }
      if (!(op.reply == value)) {
        return CheckResult::failure(
            "reply mismatch at addr " + std::to_string(addr) + " for " +
            core::to_string(id) + " (M2.1/Lemma 4.1(2) violated)");
      }
      value = op.f.apply(value);
      if (auto ls = last_seq.find(id.proc); ls != last_seq.end()) {
        if (id.seq <= ls->second) {
          return CheckResult::failure(
              "same-processor same-location reordering for P" +
              std::to_string(id.proc) + " (M2.3 violated)");
        }
      }
      last_seq[id.proc] = id.seq;
      ++res.operations_checked;
    }
    if (!(m.value_at(addr) == value)) {
      return CheckResult::failure("final memory value mismatch at addr " +
                                  std::to_string(addr) +
                                  " (Lemma 4.1(3) violated)");
    }
    ++res.locations_checked;
  }
  return res;
}

}  // namespace krs::verify
