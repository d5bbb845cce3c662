// The simulated-machine RMW backend: the paper's network, under the
// paper's algorithms.
//
// BasicSimBackend is the third RmwBackend model (after the hardware-atomic
// and software-combining backends): every Cell is an ALLOCATED ADDRESS in
// a cycle-accurate Omega machine (sim/machine.hpp), and every fetch-and-θ
// becomes a combinable RMW packet injected at the calling thread's
// simulated processor, stepped cycle by cycle, combined in the switches
// per §4, and decombined back per §3. The §6 coordination repertoire —
// written once against the RmwBackend concept — therefore runs unchanged
// on the machine the paper actually analyzes, and its costs come out in
// PAPER UNITS (network cycles per operation, combine rate, issue→reply
// latency) instead of wall-clock on whatever host CI happens to own.
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
// runs inside machine.tick(), and every tick is taken under the driver
// mutex, so the machine is only ever stepped sequentially.
//
// Determinism. Threaded injection is scheduled by the OS; the single-
// caller driver is not. run_traffic() polls its sources in processor
// order once per cycle and ticks until they finish and every reply has
// landed, and run_wave() is run_traffic() over one-shot sources that all
// issue in its first cycle. Every cycle count the backend reports from
// either is therefore a pure function of the traffic, identical on every
// host. That is what lets bench_coordination's sim dimension claim
// paper-unit numbers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
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

/// Backend-wide cycle accounting: the machine clock and combine log, the
/// serialized compare_exchange count, and the per-cell accounting summed.
struct SimBackendStats {
  core::Tick cycles = 0;                 ///< machine clock
  std::uint64_t network_ops = 0;         ///< RMWs routed through the network
  std::uint64_t root_serialized_ops = 0; ///< compare_exchange, at the module
  std::uint64_t combines = 0;            ///< combines, switch and module FIFO
  std::uint64_t latency_cycles = 0;      ///< summed issue→reply latency

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
  /// in wave order. This is run_traffic over one-shot sources, one per
  /// op, that all issue on their first poll: same single-caller contract,
  /// same determinism. It is the §6 measurement surface: one wave = one
  /// round of a primitive's hot-path RMW pattern across all n processors.
  std::vector<Word> run_wave(const std::vector<WaveOp>& wave) const {
    if (wave.empty()) return {};
    std::vector<OneShot> shots;
    std::vector<proc::TrafficSource<core::AnyRmw>*> sources;
    shots.reserve(wave.size());  // no reallocation: sources point in
    for (const WaveOp& w : wave) {
      shots.emplace_back(w.cell->addr, w.op);
      sources.push_back(&shots.back());
    }
    (void)run_traffic(sources);
    std::vector<Word> priors;
    priors.reserve(shots.size());
    for (const OneShot& shot : shots) priors.push_back(shot.reply);
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
  /// The caller must be the only thread using the backend. Polling order
  /// is fixed (processor 0..n-1 each cycle), so the result is a pure
  /// function of the generator sequence.
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
        while (!s_->machine.drained()) s_->machine.tick();
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
    return s_->cells[c.addr];
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

  /// run_wave's source: issues its one op on the first poll and keeps
  /// the reply run_traffic hands back.
  struct OneShot final : proc::TrafficSource<core::AnyRmw> {
    OneShot(core::Addr a, const core::AnyRmw& m) : addr(a), op(m) {}

    std::optional<std::pair<core::Addr, core::AnyRmw>> next(
        core::Tick /*now*/, unsigned /*outstanding*/) override {
      issued = true;
      return std::make_pair(addr, op);
    }
    [[nodiscard]] bool finished() const override { return issued; }
    void on_complete(core::ReqId /*id*/, const Word& old_value,
                     core::Tick /*now*/) override {
      reply = old_value;
    }

    core::Addr addr;
    core::AnyRmw op;
    bool issued = false;
    Word reply = 0;
  };

  /// The per-processor traffic source: feeds its mailbox's posted op to
  /// the simulated processor and completes it back into the mailbox,
  /// charging the cell's accounting. Runs inside machine.tick(), so under
  /// the driver mutex, like every other reader and writer of `cells`.
  class MailboxSource final : public proc::TrafficSource<core::AnyRmw> {
   public:
    MailboxSource(Mailbox* mb, std::vector<SimCellStats>* cells)
        : mb_(mb), cells_(cells) {}

    std::optional<std::pair<core::Addr, core::AnyRmw>> next(
        core::Tick now, unsigned /*outstanding*/) override {
      if (mb_->state.load(std::memory_order_acquire) != kPosted) {
        return std::nullopt;
      }
      mb_->state.store(kInFlight, std::memory_order_relaxed);
      issued_ = now;
      return std::make_pair(mb_->addr, mb_->op);
    }

    /// "Finished" for the machine's drain condition: nothing is posted
    /// for the machine right now. A live backend never finishes for good,
    /// so Machine::drained() becomes "every currently injected operation
    /// has replied" — the stop condition of run_traffic's budget drain.
    [[nodiscard]] bool finished() const override {
      const unsigned st = mb_->state.load(std::memory_order_acquire);
      return st != kPosted && st != kInFlight;
    }

    void on_complete(core::ReqId /*id*/, const Word& old_value,
                     core::Tick now) override {
      SimCellStats& cs = (*cells_)[mb_->addr];
      cs.ops += 1;
      cs.latency_cycles += now - issued_;
      mb_->reply = old_value;
      mb_->state.store(kDone, std::memory_order_release);
    }

   private:
    Mailbox* mb_;
    std::vector<SimCellStats>* cells_;
    core::Tick issued_ = 0;
  };

  struct State {
    SimBackendConfig cfg;
    std::uint32_t nprocs;
    std::vector<Mailbox> mailboxes;
    std::vector<SimCellStats> cells;  ///< per allocated address, under mu
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
      out.cycles = machine.now();
      out.combines = machine.combine_log().size();
      out.root_serialized_ops = root_ops;
      for (const SimCellStats& cs : cells) {
        out.network_ops += cs.ops;
        out.latency_cycles += cs.latency_cycles;
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
      for (std::uint32_t p = 0; p < st.nprocs; ++p) {
        v.push_back(
            std::make_unique<MailboxSource>(&st.mailboxes[p], &st.cells));
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
    s_->cells.emplace_back();
    s_->machine.poke(a, initial);
    return a;
  }

  std::shared_ptr<State> s_;
};

using SimBackend = BasicSimBackend<>;

static_assert(RmwBackend<BasicSimBackend<analysis::NoInstrument>>);
static_assert(RmwBackend<SimBackend>);

}  // namespace krs::runtime
