// §5.6 — data-level synchronization and path expressions, end to end.
//
// A shared object (here: a file-like record) is protected by the path
// expression  open (read | append)* close : the expression compiles
// (core/path_expr.hpp) to an automaton living in the object's memory tag,
// and every access is a guarded RMW that fails (nack) when the protocol
// would be violated. Four sections:
//
//   1. the algebra — a session walk with acks/nacks, and a COMPOSED whole
//      session whose success predicate survives composition (the issuer
//      of a combined request reads whole-session success off one reply);
//   2. real threads through CombiningBackend — the automaton served by
//      the same software combining tree that serves fetch-and-add;
//   3. the §5.6 size bound as partial combining — a deterministic wave in
//      which two stores exceed a narrowed wire budget, the switch
//      DECLINES the fold, and the declined request is served individually
//      at the root (§7) — both effects still land;
//   4. the simulated combining machine — protocol traffic costed in paper
//      cycles, serializability checked (Theorem 4.2).
//
// Build & run:   ./examples/path_expression
#include <cstdio>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "core/dls.hpp"
#include "core/path_expr.hpp"
#include "runtime/combining_backend.hpp"
#include "runtime/dls_service.hpp"
#include "sim/machine.hpp"
#include "verify/memory_checker.hpp"
#include "workload/path_scenarios.hpp"
#include "workload/workloads.hpp"

using namespace krs;
using core::DlsCell;

// States: 0 = closed, 1 = open.
using Op = core::DlsOp<2>;

namespace {

Op op_open() { return Op::guarded_load(0b01, {1, 0}); }
Op op_read() { return Op::guarded_load(0b10, {0, 1}); }
Op op_append(core::Word v) { return Op::guarded_store(v, 0b10, {0, 1}); }
Op op_close() { return Op::guarded_load(0b10, {0, 0}); }

bool section_algebra() {
  std::printf("== path expression open (read|append)* close, algebra ==\n");
  DlsCell file{100, 0};  // closed, content 100
  struct Step {
    const char* name;
    Op op;
  };
  const Step session[] = {
      {"read (while closed!)", op_read()},
      {"open", op_open()},
      {"read", op_read()},
      {"append(7)", op_append(7)},
      {"open (already open!)", op_open()},
      {"close", op_close()},
  };
  for (const auto& s : session) {
    const bool ok = s.op.succeeded(file);
    std::printf("  %-22s -> %s", s.name, ok ? "ok " : "NACK");
    file = s.op.apply(file);
    std::printf("   cell=%s\n", to_string(file).c_str());
  }

  // A whole legal session combines into ONE request, and the guard
  // composes with it: succeeded() on the combined op answers for the
  // whole chain.
  Op session_op = Op::identity();
  for (const Op& o : {op_open(), op_read(), op_close()}) {
    session_op = compose(session_op, o);
  }
  std::printf("open;read;close composed: %s (guard mask 0x%x: succeeds "
              "iff the file starts closed)\n",
              session_op.to_string().c_str(), session_op.guard());
  return session_op.succeeded(DlsCell{0, 0}) &&
         !session_op.succeeded(DlsCell{0, 1});
}

bool section_threads() {
  std::printf("\n== real threads through the combining tree ==\n");
  constexpr unsigned kThreads = 4;
  constexpr unsigned kSessions = 64;

  workload::FileSessionPath fs;
  runtime::CombiningBackend backend(kThreads);
  runtime::DlsHost<runtime::CombiningBackend> host(backend);

  std::vector<std::uint64_t> appends(kThreads, 0);
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (unsigned k = 0; k < kSessions; ++k) {
        // Contend for the open, then hold the session; only the holder's
        // read/append/close are admitted, so they cannot nack.
        if (!host.issue_until(fs.open(), 1u << 20)) return;
        host.issue(fs.read());
        if (host.issue(fs.append(t * 1000 + k)).ok) ++appends[t];
        host.issue(fs.close());
      }
    });
  }
  for (auto& th : ts) th.join();

  std::uint64_t appended = 0;
  for (const auto a : appends) appended += a;
  const DlsCell end = host.snapshot();
  const auto stats = host.cell().combiner.stats();
  std::printf("%u threads x %u sessions: %llu acks, %llu nacks (lost open "
              "races), %llu appends; cell ends %s\n",
              kThreads, kSessions, static_cast<unsigned long long>(host.acks()),
              static_cast<unsigned long long>(host.nacks()),
              static_cast<unsigned long long>(appended),
              to_string(end).c_str());
  std::printf("tree: combine_rate=%.2f served_at_root=%.2f (automaton "
              "transitions fold like fetch-and-adds)\n",
              stats.combine_rate(), stats.served_at_root_fraction());
  // Every session that opened also closed: the file ends closed, and the
  // acks are exactly 4 per completed session plus nothing else.
  return end.state == 0 &&
         host.acks() == 4ull * kThreads * kSessions &&
         appended == static_cast<std::uint64_t>(kThreads) * kSessions;
}

bool section_declined_at_root() {
  std::printf("\n== the §5.6 size bound: declined fold, served at root ==\n");
  workload::ProducerConsumerPath pc;
  runtime::CombiningBackend backend(4);
  runtime::CombiningBackend::Cell cell(backend, core::dls_pack({0, 0}));

  // Two puts of distinct values, at a wire budget narrowed to ONE value
  // slot: the §5.6 bound for |S|=3 would admit three distinct store
  // values, but this switch's message format cannot carry two (nor can
  // DlsWordOp's one-value wire form) — try_compose declines, and §7
  // partial combining serves the declined request individually at the
  // root. Slots 0 and 1 share a leaf, so the fold is actually attempted.
  const auto budget = pc.put(111).encoded_size_bytes();  // one value slot
  using Wave = std::decay_t<decltype(cell.combiner)>::WaveOp;
  const std::vector<Wave> wave = {
      {0, core::AnyRmw(pc.put(111).with_size_budget(budget))},
      {1, core::AnyRmw(pc.put(222).with_size_budget(budget))},
  };
  const auto priors = cell.combiner.run_wave(wave);
  const auto stats = cell.combiner.stats();
  const DlsCell end = core::dls_unpack(cell.combiner.read());

  std::printf("wave {put(111), put(222)} at budget %zu B: declined_folds=%llu "
              "root_applies=%llu; cell ends %s\n",
              budget, static_cast<unsigned long long>(stats.declined_folds),
              static_cast<unsigned long long>(stats.root_applies),
              to_string(end).c_str());
  const bool both_acked =
      priors.size() == 2 &&
      pc.put(111).succeeded(priors[0]) && pc.put(222).succeeded(priors[1]);
  std::printf("both puts acked=%d: the decline cost a root trip, never an "
              "operation\n", both_acked ? 1 : 0);
  // The fold was attempted and declined; both effects landed anyway.
  return stats.declined_folds == 1 && stats.root_applies == 2 &&
         both_acked && end.state == 2 && end.value == 222;
}

bool section_machine() {
  std::printf("\n== simulated combining machine ==\n");
  // Every processor repeatedly issues open/append/close triples against
  // one shared object.
  sim::MachineConfig<Op> cfg;
  cfg.log2_procs = 3;
  cfg.initial_value = DlsCell{0, 0};
  cfg.window = 1;  // protocol steps of one processor must not overlap
  const std::uint32_t n = 1u << cfg.log2_procs;
  std::vector<std::unique_ptr<proc::TrafficSource<Op>>> sources;
  for (std::uint32_t p = 0; p < n; ++p) {
    std::deque<workload::ScriptedSource<Op>::Item> items;
    for (int round = 0; round < 8; ++round) {
      items.push_back({0, 5, op_open()});
      items.push_back({0, 5, op_append(p * 100 + round)});
      items.push_back({0, 5, op_close()});
    }
    sources.push_back(
        std::make_unique<workload::ScriptedSource<Op>>(std::move(items)));
  }
  sim::Machine<Op> m(cfg, std::move(sources));
  m.run(1'000'000);

  std::uint64_t ok = 0, nack = 0;
  for (const auto& op : m.completed()) {
    (op.f.succeeded(op.reply) ? ok : nack)++;
  }
  const auto check = verify::check_machine(m, DlsCell{0, 0});
  std::printf("%u processors x 8 sessions: %llu accesses ok, %llu nacked "
              "(lost open races), combines=%llu\n",
              n, static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(nack),
              static_cast<unsigned long long>(m.stats().combines));
  std::printf("object ends %s; Theorem 4.2 checker: %s\n",
              to_string(m.value_at(5)).c_str(),
              check.ok ? "PASS" : check.error.c_str());
  return check.ok;
}

}  // namespace

int main() {
  bool ok = true;
  ok = section_algebra() && ok;
  ok = section_threads() && ok;
  ok = section_declined_at_root() && ok;
  ok = section_machine() && ok;
  std::printf("\n%s\n", ok ? "ALL SECTIONS PASS" : "FAILURE");
  return ok ? 0 : 1;
}
