// The simulated-machine RMW backend: the paper's network, under the
// paper's algorithms.
//
// BasicSimBackend is the third RmwBackend model (after the hardware-atomic
// and software-combining backends): every Cell is an ALLOCATED ADDRESS in
// a cycle-accurate Omega machine (sim/machine.hpp), and every fetch-and-θ
// becomes a combinable RMW packet injected at the calling thread's
// simulated processor, stepped through the cycle-sharded engine, combined
// in the switches per §4, and decombined back per §3. The §6 coordination
// repertoire — written once against the RmwBackend concept — therefore
// runs unchanged on the machine the paper actually analyzes, and its costs
// come out in PAPER UNITS (network cycles per operation, combine rate,
// per-stage stalls) instead of wall-clock on whatever host CI happens to
// own.
//
// Operation mapping: fetch_rmw(m) injects m verbatim as one packet
// (cross-family pairs decline in the switches — §7); store and load are
// core::LssOp store and load packets, each a round trip. compare_exchange
// is not a tractable mapping — the update branches on the old value — so
// it is serialized at the owning memory module under the driver lock,
// like the combiners' update(), and charged one uncontended network round
// trip of simulated cycles.
//
// Concurrency model. The machine itself is a single-clock object, so the
// backend multiplexes real threads onto simulated processors through
// per-processor MAILBOXES (thread → processor by thread_ordinal() mod n):
// a caller claims its mailbox, posts (addr, mapping), and then either
// becomes the DRIVER (takes the driver mutex and steps the machine until
// its own reply lands) or spins with backoff while another thread's
// driving serves it. Mailbox hand-off is a small atomic state machine
// (Empty → Claimed → Posted → InFlight → Done → Empty); the driver side
// runs inside the engine's consume sub-phase, where each processor's
// source is touched by exactly one shard.
//
// Determinism. Threaded injection is scheduled by the OS, but run_wave()
// posts one operation per simulated processor in the SAME cycle and steps
// the machine to drain under a single caller — and the parallel engine is
// bit-identical to the sequential one, so every cycle count the backend
// reports from a wave workload is a pure function of the wave sequence,
// identical at every engine worker count and host CPU count. That is what
// lets bench_coordination's sim dimension claim paper-unit numbers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/instrument.hpp"
#include "core/any_rmw.hpp"
#include "core/load_store_swap.hpp"
#include "core/types.hpp"
#include "mem/module.hpp"
#include "net/switch.hpp"
#include "proc/processor.hpp"
#include "runtime/wait_policy.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/rmw_backend.hpp"
#include "sim/machine.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace krs::runtime {

struct SimBackendConfig {
  /// n = 2^k simulated processors, memory modules, and network stages.
  unsigned log2_procs = 3;
  /// Engine worker threads used by run_wave() drains (1 = sequential).
  /// Any value yields bit-identical machine states and cycle counts; >1
  /// only changes host wall-clock.
  unsigned engine_workers = 1;
  net::SwitchConfig switch_cfg{};
  mem::ModuleConfig mem_cfg{};
};

/// Per-cell cycle accounting: operations routed through the network to
/// this cell's address and their summed issue→reply latency.
struct SimCellStats {
  std::uint64_t ops = 0;
  std::uint64_t latency_cycles = 0;

  [[nodiscard]] double mean_latency() const {
    return ops > 0 ? static_cast<double>(latency_cycles) /
                         static_cast<double>(ops)
                   : 0.0;
  }
};

/// Backend-wide cycle accounting, aggregated from the machine transcript
/// and the per-processor sources.
struct SimBackendStats {
  core::Tick cycles = 0;                 ///< machine clock
  std::uint64_t network_ops = 0;         ///< RMWs routed through the network
  std::uint64_t root_serialized_ops = 0; ///< compare_exchange, at the module
  std::uint64_t combines = 0;            ///< combines, switch and module FIFO
  std::uint64_t latency_cycles = 0;      ///< summed issue→reply latency
  std::uint64_t switch_stall_cycles = 0; ///< arrivals that could not move
  std::vector<std::uint64_t> stage_stalls;  ///< stalls per network stage

  [[nodiscard]] std::uint64_t ops() const {
    return network_ops + root_serialized_ops;
  }
  [[nodiscard]] double cycles_per_op() const {
    return ops() > 0
               ? static_cast<double>(cycles) / static_cast<double>(ops())
               : 0.0;
  }
  [[nodiscard]] double combine_rate() const {
    return network_ops > 0
               ? static_cast<double>(combines) /
                     static_cast<double>(network_ops)
               : 0.0;
  }
  [[nodiscard]] double mean_latency() const {
    return network_ops > 0 ? static_cast<double>(latency_cycles) /
                                 static_cast<double>(network_ops)
                           : 0.0;
  }
};

template <typename Instrument = analysis::DefaultInstrument,
          WaitPolicy Policy = SpinYieldWait>
class BasicSimBackend
    : public MappingOps<BasicSimBackend<Instrument, Policy>> {
  struct State;

 public:
  explicit BasicSimBackend(SimBackendConfig cfg = {})
      : s_(std::make_shared<State>(cfg)) {}

  /// Copies share one machine: primitives take backends by value, and all
  /// their cells must live in the same simulated memory.
  BasicSimBackend(const BasicSimBackend&) = default;
  BasicSimBackend& operator=(const BasicSimBackend&) = default;

  struct Cell {
    Cell(const BasicSimBackend& b, Word initial)
        : addr(b.allocate(initial)), anchor_(b.s_) {}
    Cell(const Cell&) = delete;
    Cell& operator=(const Cell&) = delete;

    core::Addr addr;

   private:
    std::shared_ptr<State> anchor_;  ///< the machine must outlive its cells
  };

  Word fetch_rmw(Cell& c, const core::AnyRmw& m) const {
    Instrument::release(&c);
    Instrument::contended_rmw(&c, KRS_SITE);
    const Word prior = s_->inject(c.addr, m);
    Instrument::acquire(&c);
    return prior;
  }

  /// Not a tractable mapping (the update branches on the old value), so it
  /// cannot travel as a packet. Serialized at the owning memory module
  /// under the driver lock: the module's serial state between services is
  /// exactly the state every already-serviced request produced and no
  /// not-yet-serviced request has touched, so reading it and poking the
  /// conditional store is a valid linearization point against all
  /// combined traffic — the same contract as the combining backends'
  /// update(). Charged one uncontended round trip of cycles.
  bool compare_exchange(Cell& c, Word& expected, Word desired) const {
    Instrument::release(&c);
    Instrument::contended_rmw(&c, KRS_SITE);
    bool ok = false;
    {
      std::lock_guard<std::mutex> lk(s_->mu);
      const Word cur = s_->machine.value_at(c.addr);
      if (cur == expected) {
        s_->machine.poke(c.addr, desired);
        ok = true;
      } else {
        expected = cur;
      }
      ++s_->root_ops;
      s_->charge_round_trip_locked();
    }
    Instrument::acquire(&c);
    return ok;
  }

  Word load(const Cell& c) const {
    // A real packet (the identity mapping), not a poke: a load costs a
    // round trip and orders with combined traffic like any other request.
    Instrument::shared_load(&c, KRS_SITE);
    const Word v = s_->inject(c.addr, core::AnyRmw(core::LssOp::load()));
    Instrument::acquire(&c);
    return v;
  }

  void store(Cell& c, Word v) const {
    Instrument::release(&c);
    Instrument::shared_store(&c, KRS_SITE);
    s_->inject(c.addr, core::AnyRmw(core::LssOp::store(v)));
  }

  // --- deterministic batch surface ----------------------------------------

  /// One simultaneous-injection probe operation for run_wave.
  struct WaveOp {
    const Cell* cell;
    core::AnyRmw op;
  };

  /// Inject wave[i] at simulated processor i in the SAME cycle, step the
  /// machine until every reply has decombined back, and return the priors
  /// in processor order. The caller must be the only thread using the
  /// backend. Cycle counts after a wave sequence are a pure function of
  /// that sequence — identical at every engine_workers value (the
  /// parallel engine is bit-identical to the sequential one) and on every
  /// host. This is the §6 measurement surface: one wave = one round of a
  /// primitive's hot-path RMW pattern across all n processors.
  std::vector<Word> run_wave(const std::vector<WaveOp>& wave) const {
    KRS_EXPECTS(wave.size() <= s_->nprocs);
    std::lock_guard<std::mutex> lk(s_->mu);
    for (std::size_t i = 0; i < wave.size(); ++i) {
      Mailbox& mb = s_->mailboxes[i];
      unsigned expect = kEmpty;
      const bool claimed = mb.state.compare_exchange_strong(
          expect, kClaimed, std::memory_order_acquire,
          std::memory_order_relaxed);
      KRS_EXPECTS(claimed && "run_wave requires an otherwise idle backend");
      mb.addr = wave[i].cell->addr;
      mb.op = wave[i].op;
      mb.state.store(kPosted, std::memory_order_release);
    }
    s_->drive_until_drained_locked();
    std::vector<Word> priors(wave.size());
    for (std::size_t i = 0; i < wave.size(); ++i) {
      Mailbox& mb = s_->mailboxes[i];
      KRS_ASSERT(mb.state.load(std::memory_order_relaxed) == kDone);
      priors[i] = mb.reply;
      mb.state.store(kEmpty, std::memory_order_release);
    }
    return priors;
  }

  /// Outcome of a run_traffic drive: simulated cycles consumed, logical
  /// operations completed, and the per-op issue→reply latency distribution
  /// in machine cycles — the paper-unit analogue of a wall-clock latency
  /// reservoir.
  struct TrafficResult {
    core::Tick cycles = 0;
    std::uint64_t ops = 0;
    util::LogHistogram latency;
  };

  /// Drive the machine under the stochastic arrival models in src/workload:
  /// generators[p] feeds simulated processor p (at most one in-flight op
  /// per processor, the mailbox window). Each cycle, every idle processor
  /// polls its generator — so open-loop sources see their issue_probability
  /// per machine cycle, bursty sources burst in machine time, and closed-
  /// loop sources observe true reply timing through on_complete. Generator
  /// addresses are folded onto allocated cells (addr mod allocated), so a
  /// source's addr_space spreads uniform traffic across every cell the
  /// caller created while hot_addr pins the hot spot to one of them.
  ///
  /// The caller must be the only thread using the backend (same contract
  /// as run_wave). Polling order is fixed (processor 0..n-1 each cycle),
  /// so the result is a pure function of the generator sequence — same
  /// determinism claim as run_wave, at every engine_workers value.
  ///
  /// `max_cycles` bounds the drive (0 = until every generator finishes);
  /// in-flight operations are drained before returning either way.
  TrafficResult run_traffic(
      const std::vector<proc::TrafficSource<core::AnyRmw>*>& generators,
      core::Tick max_cycles = 0) const {
    KRS_EXPECTS(generators.size() <= s_->nprocs);
    std::lock_guard<std::mutex> lk(s_->mu);
    KRS_EXPECTS(s_->next_addr > 0 &&
                "run_traffic needs at least one allocated cell");
    const core::Addr cells = s_->next_addr;
    const core::Tick start = s_->machine.now();

    struct Flight {
      core::Tick issued = 0;
      std::uint32_t seq = 0;
      bool active = false;
    };
    std::vector<Flight> flight(generators.size());
    TrafficResult out;

    auto reap = [&](std::size_t p) {
      Mailbox& mb = s_->mailboxes[p];
      if (!flight[p].active ||
          mb.state.load(std::memory_order_acquire) != kDone) {
        return;
      }
      const core::Tick now = s_->machine.now();
      out.latency.add(now - flight[p].issued);
      ++out.ops;
      generators[p]->on_complete(
          core::ReqId{static_cast<std::uint32_t>(p), flight[p].seq},
          mb.reply, now);
      flight[p].active = false;
      mb.state.store(kEmpty, std::memory_order_release);
    };

    for (;;) {
      const core::Tick now = s_->machine.now();
      bool all_done = true;
      for (std::size_t p = 0; p < generators.size(); ++p) {
        reap(p);
        if (flight[p].active) {
          all_done = false;
          continue;
        }
        if (generators[p]->finished()) continue;
        all_done = false;
        if (auto op = generators[p]->next(now, 0)) {
          Mailbox& mb = s_->mailboxes[p];
          unsigned expect = kEmpty;
          const bool claimed = mb.state.compare_exchange_strong(
              expect, kClaimed, std::memory_order_acquire,
              std::memory_order_relaxed);
          KRS_EXPECTS(claimed &&
                      "run_traffic requires an otherwise idle backend");
          mb.addr = op->first % cells;
          mb.op = op->second;
          mb.state.store(kPosted, std::memory_order_release);
          flight[p].issued = now;
          flight[p].seq++;
          flight[p].active = true;
        }
      }
      if (all_done) break;
      if (max_cycles != 0 && now - start >= max_cycles) {
        // Out of budget: drain what is in flight, reap, and stop.
        s_->drive_until_drained_locked();
        for (std::size_t p = 0; p < generators.size(); ++p) reap(p);
        break;
      }
      s_->machine.tick();
    }
    out.cycles = s_->machine.now() - start;
    return out;
  }

  // --- accounting ----------------------------------------------------------

  [[nodiscard]] SimBackendStats stats() const {
    std::lock_guard<std::mutex> lk(s_->mu);
    return s_->stats_locked();
  }

  [[nodiscard]] SimCellStats cell_stats(const Cell& c) const {
    std::lock_guard<std::mutex> lk(s_->mu);
    SimCellStats out;
    for (const MailboxSource* src : s_->sources) {
      auto it = src->per_cell.find(c.addr);
      if (it != src->per_cell.end()) {
        out.ops += it->second.ops;
        out.latency_cycles += it->second.latency_cycles;
      }
    }
    return out;
  }

  [[nodiscard]] std::uint32_t processors() const noexcept {
    return s_->nprocs;
  }

 private:
  // Mailbox hand-off states. Empty → Claimed → Posted are poster-side;
  // Posted → InFlight (consumption by the simulated processor) and
  // InFlight → Done (reply delivery) are driver-side; Done → Empty is the
  // poster picking up its reply.
  enum MailState : unsigned {
    kEmpty = 0,
    kClaimed,
    kPosted,
    kInFlight,
    kDone,
  };

  struct alignas(kCacheLine) Mailbox {
    std::atomic<unsigned> state{kEmpty};
    core::Addr addr = 0;
    core::AnyRmw op{};
    Word reply = 0;
  };

  /// The per-processor traffic source: feeds its mailbox's posted op to
  /// the simulated processor and completes it back into the mailbox.
  /// Stats members are touched only from the engine shard that owns this
  /// processor (inside the consume sub-phase) and read while the machine
  /// is quiesced under the driver mutex — never concurrently.
  class MailboxSource final : public proc::TrafficSource<core::AnyRmw> {
   public:
    explicit MailboxSource(Mailbox* mb) : mb_(mb) {}

    std::optional<std::pair<core::Addr, core::AnyRmw>> next(
        core::Tick now, unsigned /*outstanding*/) override {
      if (mb_->state.load(std::memory_order_acquire) != kPosted) {
        return std::nullopt;
      }
      mb_->state.store(kInFlight, std::memory_order_relaxed);
      issued_ = now;
      return std::make_pair(mb_->addr, mb_->op);
    }

    /// "Finished" for the engine's drain condition: nothing is posted for
    /// the machine right now. A live backend never finishes for good, so
    /// Machine::drained() becomes "every currently injected operation has
    /// replied" — the exact stop condition the drivers need.
    [[nodiscard]] bool finished() const override {
      const unsigned st = mb_->state.load(std::memory_order_acquire);
      return st != kPosted && st != kInFlight;
    }

    void on_complete(core::ReqId /*id*/, const Word& old_value,
                     core::Tick now) override {
      ops += 1;
      latency_cycles += now - issued_;
      auto& cs = per_cell[mb_->addr];
      cs.ops += 1;
      cs.latency_cycles += now - issued_;
      mb_->reply = old_value;
      mb_->state.store(kDone, std::memory_order_release);
    }

    std::uint64_t ops = 0;
    std::uint64_t latency_cycles = 0;
    std::unordered_map<core::Addr, SimCellStats> per_cell;

   private:
    Mailbox* mb_;
    core::Tick issued_ = 0;
  };

  struct State {
    SimBackendConfig cfg;
    std::uint32_t nprocs;
    std::vector<Mailbox> mailboxes;
    std::vector<MailboxSource*> sources;  ///< owned by the machine
    sim::Machine<core::AnyRmw> machine;
    mutable std::mutex mu;     ///< driver lock: stepping, CAS, stats reads
    core::Addr next_addr = 0;  ///< under mu
    std::uint64_t root_ops = 0;  ///< serialized compare_exchange count

    explicit State(const SimBackendConfig& c)
        : cfg(c),
          nprocs(std::uint32_t{1} << c.log2_procs),
          mailboxes(nprocs),
          machine(machine_config(c), make_sources(*this)) {}

    /// Threaded injection path: claim this thread's mailbox, post, then
    /// drive the machine (or let whoever holds the driver lock drive for
    /// everyone) until the reply lands.
    Word inject(core::Addr addr, const core::AnyRmw& m) {
      Mailbox& mb = claim_mailbox();
      mb.addr = addr;
      mb.op = m;
      mb.state.store(kPosted, std::memory_order_release);
      // Blind rounds: the mailbox word is not the policy's 32-bit wait
      // word, and the driver-lock holder advances our reply regardless.
      Policy pol;
      for (;;) {
        if (mb.state.load(std::memory_order_acquire) == kDone) break;
        if (mu.try_lock()) {
          while (mb.state.load(std::memory_order_acquire) != kDone) {
            machine.tick();
          }
          mu.unlock();
          break;
        }
        pol.pause();
      }
      const Word prior = mb.reply;
      mb.state.store(kEmpty, std::memory_order_release);
      return prior;
    }

    /// More live threads than simulated processors alias onto one mailbox
    /// (ordinal mod n, like the combining backend's slot()); the claim CAS
    /// serializes them, backoff-paced.
    Mailbox& claim_mailbox() {
      Mailbox& mb = mailboxes[thread_ordinal() % nprocs];
      Policy pol;
      for (;;) {
        unsigned expect = kEmpty;
        if (mb.state.compare_exchange_weak(expect, kClaimed,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed)) {
          return mb;
        }
        pol.pause();
      }
    }

    /// Step until drained, by the configured engine. Both engines stop on
    /// the same drained() condition and produce bit-identical states, so
    /// machine.now() afterwards is independent of engine_workers.
    void drive_until_drained_locked() {
      static constexpr core::Tick kChunk = 1024;
      while (!machine.drained()) {
        if (cfg.engine_workers > 1) {
          machine.run_parallel(machine.now() + kChunk, cfg.engine_workers);
        } else {
          machine.run(machine.now() + kChunk);
        }
      }
    }

    /// Cost model for the serialized compare_exchange: one uncontended
    /// network round trip (k stages each way + one service + the module
    /// latency), charged by actually advancing the clock — which also
    /// makes progress on any packets other threads have in flight, so a
    /// CAS-heavy phase cannot freeze the simulated time base.
    void charge_round_trip_locked() {
      const core::Tick cost = 2 * cfg.log2_procs + 1 + cfg.mem_cfg.latency;
      for (core::Tick i = 0; i < cost; ++i) machine.tick();
    }

    [[nodiscard]] SimBackendStats stats_locked() const {
      SimBackendStats out;
      const sim::MachineStats ms = machine.stats();
      out.cycles = machine.now();
      out.combines = ms.combines;
      out.switch_stall_cycles = ms.switch_stall_cycles;
      out.root_serialized_ops = root_ops;
      for (const MailboxSource* src : sources) {
        out.network_ops += src->ops;
        out.latency_cycles += src->latency_cycles;
      }
      out.stage_stalls.assign(cfg.log2_procs, 0);
      const std::uint32_t rows = nprocs / 2;
      for (unsigned st = 0; st < cfg.log2_procs; ++st) {
        for (std::uint32_t r = 0; r < rows; ++r) {
          out.stage_stalls[st] += machine.switch_stats(st, r).stalls;
        }
      }
      return out;
    }

   private:
    static sim::MachineConfig<core::AnyRmw> machine_config(
        const SimBackendConfig& c) {
      sim::MachineConfig<core::AnyRmw> mc;
      mc.log2_procs = c.log2_procs;
      mc.switch_cfg = c.switch_cfg;
      mc.mem_cfg = c.mem_cfg;
      mc.window = 1;  // one mailbox op in flight per simulated processor
      return mc;
    }

    static std::vector<std::unique_ptr<proc::TrafficSource<core::AnyRmw>>>
    make_sources(State& st) {
      std::vector<std::unique_ptr<proc::TrafficSource<core::AnyRmw>>> v;
      v.reserve(st.nprocs);
      st.sources.reserve(st.nprocs);
      for (std::uint32_t p = 0; p < st.nprocs; ++p) {
        auto src = std::make_unique<MailboxSource>(&st.mailboxes[p]);
        st.sources.push_back(src.get());
        v.push_back(std::move(src));
      }
      return v;
    }
  };

  /// Sequential addresses interleave across modules (module = addr mod n),
  /// so distinct cells land on distinct banks — hot-spot traffic is per
  /// cell, as in the paper's model.
  [[nodiscard]] core::Addr allocate(Word initial) const {
    std::lock_guard<std::mutex> lk(s_->mu);
    const core::Addr a = s_->next_addr++;
    s_->machine.poke(a, initial);
    return a;
  }

  std::shared_ptr<State> s_;
};

using SimBackend = BasicSimBackend<>;

static_assert(RmwBackend<BasicSimBackend<analysis::NoInstrument>>);
static_assert(RmwBackend<SimBackend>);

}  // namespace krs::runtime
