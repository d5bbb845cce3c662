// krs-bench — one repetition of one end-to-end workload, or the self-test.
//
//   krs-bench --selftest
//   krs-bench --workload=NAME --seed=N --window-s=SECONDS [--trace=PATH]
//
// A repetition is closed-loop: 4 worker threads each replay a 2^18-op script
// (generated from the seed, the workload's script name and the thread index
// before anything is timed) and issue their next op when the previous one
// returns. Each thread runs 65,536 warm-up ops, then all start the timed
// window together. Every 16th op per thread (offset = thread index) is
// timed into a log-linear histogram. The stack under test is the one a user
// gets from the public headers with default constructor arguments.
//
// With --trace every call into a layer is timed (spans from this file, none
// inside the library) and the first spans are written to PATH as Chrome
// trace-event JSON.
//
// The repetition prints one JSON line: its end-to-end metrics, the per-layer
// metrics it read from the layers' public telemetry (and, traced, from the
// spans), and any failed correctness check. Exit status 1 means a check
// failed; bench/e2e/run.py aggregates repetitions into medians.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <latch>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/instrument.hpp"
#include "checks.hpp"
#include "histogram.hpp"
#include "runtime/combining_backend.hpp"
#include "runtime/coordination.hpp"
#include "runtime/flat_combining.hpp"
#include "runtime/parallel_queue.hpp"
#include "runtime/rmw_backend.hpp"
#include "runtime/sharded_backend.hpp"
#include "runtime/wait_policy.hpp"
#include "trace.hpp"

// An analysis build routes every primitive through the race detector; its
// numbers would say nothing about the runtime users get.
static_assert(std::is_same_v<krs::analysis::DefaultInstrument,
                             krs::analysis::NoInstrument>,
              "krs-bench must not be built with KRS_ANALYSIS_ENABLED");

namespace krs_bench {
namespace {

namespace rt = krs::runtime;

constexpr unsigned kThreads = 4;
constexpr std::size_t kScriptOps = std::size_t{1} << 18;
constexpr std::uint64_t kWarmupOps = 65536;
constexpr std::uint64_t kSampleStride = 16;
constexpr std::size_t kTraceSpansPerThread = 8192;

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  unsigned percent() noexcept {
    return static_cast<unsigned>((next() >> 32) % 100);
  }

 private:
  std::uint64_t s_;
};

std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

enum Kind : std::uint8_t { kFetchAdd, kLoad, kRead, kWrite, kSem, kQueue };

struct Op {
  std::uint32_t client = 0;
  Kind kind = kFetchAdd;
  std::uint8_t cell = 0;
};
using Script = std::vector<Op>;

double ratio(double a, double b) noexcept { return b != 0.0 ? a / b : 0.0; }

/// What one repetition reports beyond its end-to-end numbers.
struct Report {
  std::vector<std::pair<std::string, double>> layer;
  std::vector<std::string> errors;  // failed aggregate checks

  void set(std::string name, double v) { layer.emplace_back(std::move(name), v); }
  void check(bool ok, const char* what) {
    if (!ok) errors.emplace_back(what);
  }
};

/// Per-thread state every workload's Local extends. Written on every op, so
/// each thread's state gets its own cache lines.
struct alignas(rt::kCacheLine) LocalBase {
  unsigned tid = 0;
  std::uint64_t failed = 0;  // ops that failed a per-op check
};

struct NoTelemetry {};

// ---- hot_tree / hot_flat ----------------------------------------------------

void substrate_metrics(const rt::CombiningTreeStats& a,
                       const rt::CombiningTreeStats& b,
                       std::uint64_t fetch_adds, std::uint64_t window_ops,
                       Report& r) {
  r.check(b.folds + b.root_applies == fetch_adds,
          "tree folds + root_applies != fetch_adds");
  r.set("combining_tree.combine_rate",
        ratio(static_cast<double>(b.folds - a.folds),
              static_cast<double>(b.ops - a.ops)));
  r.set("combining_tree.root_applies_per_op",
        ratio(static_cast<double>(b.root_applies - a.root_applies),
              static_cast<double>(window_ops)));
}

void substrate_metrics(const rt::FlatCombinerStats& a,
                       const rt::FlatCombinerStats& b,
                       std::uint64_t fetch_adds, std::uint64_t,
                       Report& r) {
  r.check(b.ops == fetch_adds, "flat ops != fetch_adds");
  const auto ops = static_cast<double>(b.ops - a.ops);
  r.set("flat_combining.combined_frac",
        ratio(static_cast<double>(b.combined - a.combined), ops));
  r.set("flat_combining.ops_per_pass",
        ratio(ops, static_cast<double>(b.passes - a.passes)));
  r.set("flat_combining.handoffs_per_kop",
        1000.0 * ratio(static_cast<double>(b.handoffs - a.handoffs), ops));
  r.set("flat_combining.takeovers_per_kop",
        1000.0 * ratio(static_cast<double>(b.takeovers - a.takeovers), ops));
}

/// One hot word: 95% fetch_add(1), 5% load(). hot_tree and hot_flat replay
/// the same scripts, so the pair isolates the substrate.
template <typename Backend>
class HotWord {
 public:
  static constexpr const char* kScript = "hot";
  static constexpr const char* kLayer =
      std::is_same_v<Backend, rt::CombiningBackend> ? "combining_tree"
                                                    : "flat_combining";

  struct Local : LocalBase {
    TicketCheck check;
    std::uint64_t fetch_adds = 0;
  };

  static Op make_op(SplitMix64& r, std::uint32_t) {
    return {0, r.percent() < 95 ? kFetchAdd : kLoad, 0};
  }

  static const char* layer(SpanName n) {
    return n == SpanName::kOp ? "bench" : kLayer;
  }

  template <bool kTraced>
  void op(Local& l, const Op& o, ThreadTracer* tr) {
    if (o.kind == kFetchAdd) {
      const Word t = timed<kTraced>(tr, SpanName::kFetchAdd, [&] {
        return backend_.fetch_add(cell_, 1);
      });
      ++l.fetch_adds;
      if (!l.check.on_ticket(t)) ++l.failed;
    } else {
      const Word v = timed<kTraced>(tr, SpanName::kLoad,
                                    [&] { return backend_.load(cell_); });
      if (!l.check.on_read(v)) ++l.failed;
    }
  }

  auto telemetry() const { return backend_.cell_stats(cell_); }

  template <typename Stats>
  void finish(const std::vector<Local>& locals, const Stats& before,
              std::uint64_t window_ops, Report& r) const {
    std::uint64_t n = 0;
    Word sum = 0;
    Word sum_sq = 0;
    for (const Local& l : locals) {
      n += l.fetch_adds;
      sum += l.check.sum;
      sum_sq += l.check.sum_sq;
    }
    r.check(backend_.load(cell_) == n, "load != fetch_adds");
    r.check(tickets_conserved(n, sum, sum_sq), "tickets lost or duplicated");
    substrate_metrics(before, telemetry(), n, window_ops, r);
  }

 private:
  Backend backend_{};
  typename Backend::Cell cell_{backend_, 0};
};

// ---- clients_sharded --------------------------------------------------------

/// 2^20 logical clients multiplexed onto the workers (client = the op's
/// position across all scripts), each op under ScopedRouteKey(client), on
/// 64 ShardedBackend<AtomicBackend> cells: 90% of ops on cell 0, the rest
/// uniform; 5% are aggregate load()s.
class ClientsSharded {
 public:
  static constexpr const char* kScript = "clients_sharded";
  static constexpr std::size_t kCells = 64;
  using Backend = rt::ShardedBackend<rt::AtomicBackend>;

  struct Local : LocalBase {
    MonotoneReads<kCells> reads;
    std::array<std::uint64_t, kCells> fetch_adds{};
  };

  static Op make_op(SplitMix64& r, std::uint32_t client) {
    const Kind kind = r.percent() < 5 ? kLoad : kFetchAdd;
    const auto cell = static_cast<std::uint8_t>(
        r.percent() < 90 ? 0 : r.next() % kCells);
    return {client, kind, cell};
  }

  ClientsSharded() {
    for (std::size_t i = 0; i < kCells; ++i) cells_.emplace_back(backend_, 0);
  }

  static const char* layer(SpanName n) {
    return n == SpanName::kOp ? "bench" : "sharded_backend";
  }

  template <bool kTraced>
  void op(Local& l, const Op& o, ThreadTracer* tr) {
    rt::ScopedRouteKey route(o.client);
    if constexpr (kTraced) {
      timed<true>(tr, SpanName::kRoute, [&] { return backend_.shard_of(); });
    }
    Backend::Cell& c = cells_[o.cell];
    if (o.kind == kFetchAdd) {
      timed<kTraced>(tr, SpanName::kFetchAdd,
                     [&] { return backend_.fetch_add(c, 1); });
      ++l.fetch_adds[o.cell];
    } else {
      const Word v =
          timed<kTraced>(tr, SpanName::kLoad, [&] { return backend_.load(c); });
      if (!l.reads.on_read(o.cell, v)) ++l.failed;
    }
  }

  rt::ShardedCellStats telemetry() const {
    return backend_.cell_stats(cells_[0]);
  }

  void finish(const std::vector<Local>& locals,
              const rt::ShardedCellStats& before, std::uint64_t,
              Report& r) const {
    for (std::size_t cell = 0; cell < kCells; ++cell) {
      std::uint64_t n = 0;
      for (const Local& l : locals) n += l.fetch_adds[cell];
      r.check(backend_.load(cells_[cell]) == n, "cell load != fetch_adds");
      r.check(backend_.cell_stats(cells_[cell]).total() == n,
              "sum of shard_ops != fetch_adds");
    }
    const rt::ShardedCellStats after = telemetry();
    rt::ShardedCellStats window;
    for (std::size_t s = 0; s < after.shard_ops.size(); ++s) {
      window.shard_ops.push_back(after.shard_ops[s] - before.shard_ops[s]);
    }
    r.set("sharded_backend.max_share", window.max_share());
  }

 private:
  Backend backend_{rt::AtomicBackend{}};
  std::deque<Backend::Cell> cells_;
};

// ---- coord_mix --------------------------------------------------------------

/// The §6 primitives on their defaults (AtomicBackend, SpinYieldWait): 60%
/// FaaRwLock read sections, 10% write sections, 20% FaaSemaphore(2)
/// sections, 10% ParallelQueue (capacity 8) enqueue-then-dequeue pairs.
class CoordMix {
 public:
  static constexpr const char* kScript = "coord_mix";
  static constexpr std::int64_t kPermits = 2;
  static constexpr std::size_t kQueueCapacity = 8;

  struct Local : LocalBase {
    std::uint64_t writes = 0;
    std::uint64_t enq_n = 0;
    std::uint64_t deq_n = 0;
    Word enq_sum = 0;
    Word deq_sum = 0;
    Word x = 0x9e3779b97f4a7c15ULL;  // the hold's private work
  };

  static Op make_op(SplitMix64& r, std::uint32_t) {
    const unsigned p = r.percent();
    return {0, p < 60 ? kRead : p < 70 ? kWrite : p < 90 ? kSem : kQueue, 0};
  }

  static const char* layer(SpanName n) {
    switch (n) {
      case SpanName::kOp:
        return "bench";
      case SpanName::kEnqueue:
      case SpanName::kDequeue:
        return "parallel_queue";
      default:
        return "coordination";
    }
  }

  template <bool kTraced>
  void op(Local& l, const Op& o, ThreadTracer* tr) {
    switch (o.kind) {
      case kRead:
        timed<kTraced>(tr, SpanName::kReadLock, [&] { lock_.read_lock(); });
        if (!pair_consistent(pair_a_.load(std::memory_order_relaxed),
                             pair_b_.load(std::memory_order_relaxed))) {
          ++l.failed;
        }
        timed<kTraced>(tr, SpanName::kUnlock, [&] { lock_.read_unlock(); });
        break;
      case kWrite:
        timed<kTraced>(tr, SpanName::kWriteLock, [&] { lock_.write_lock(); });
        bump(pair_a_);
        timed<kTraced>(tr, SpanName::kHold, [&] { hold(l); });
        bump(pair_b_);
        timed<kTraced>(tr, SpanName::kUnlock, [&] { lock_.write_unlock(); });
        ++l.writes;
        break;
      case kSem: {
        timed<kTraced>(tr, SpanName::kSemP, [&] { sem_.p(); });
        const std::uint64_t h =
            holders_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (!sem_admitted(h, kPermits)) ++l.failed;
        timed<kTraced>(tr, SpanName::kHold, [&] { hold(l); });
        holders_.fetch_sub(1, std::memory_order_relaxed);
        timed<kTraced>(tr, SpanName::kUnlock, [&] { sem_.v(); });
        break;
      }
      default: {
        const Word item = (Word{l.tid} << 48) | ++l.enq_n;
        timed<kTraced>(tr, SpanName::kEnqueue, [&] { queue_.enqueue(item); });
        l.enq_sum += item;
        l.deq_sum += timed<kTraced>(tr, SpanName::kDequeue,
                                    [&] { return queue_.dequeue(); });
        ++l.deq_n;
        break;
      }
    }
  }

  NoTelemetry telemetry() const { return {}; }

  void finish(const std::vector<Local>& locals, NoTelemetry, std::uint64_t,
              Report& r) const {
    std::uint64_t writes = 0, enq_n = 0, deq_n = 0;
    Word enq_sum = 0, deq_sum = 0;
    for (const Local& l : locals) {
      writes += l.writes;
      enq_n += l.enq_n;
      deq_n += l.deq_n;
      enq_sum += l.enq_sum;
      deq_sum += l.deq_sum;
    }
    r.check(queue_conserved(enq_n, enq_sum, deq_n, deq_sum),
            "queue items lost or duplicated");
    r.check(pair_a_.load() == writes && pair_b_.load() == writes,
            "writer count != pair value");
    r.check(sem_.value() == kPermits, "semaphore permits not restored");
  }

 private:
  /// Non-atomic increment: overlapping writers would lose an update.
  static void bump(std::atomic<Word>& w) {
    w.store(w.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  /// The fixed section work: a 32-step xorshift on thread-private state.
  static void hold(Local& l) {
    Word x = l.x;
    for (int i = 0; i < 32; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    l.x = x;
  }

  rt::FaaRwLock lock_;
  rt::FaaSemaphore sem_{kPermits};
  rt::ParallelQueue<Word> queue_{kQueueCapacity};
  // The pair is written under the write lock, holders_ inside the
  // semaphore: separate lines, so neither section's traffic slows the other.
  alignas(rt::kCacheLine) std::atomic<Word> pair_a_{0};
  std::atomic<Word> pair_b_{0};
  alignas(rt::kCacheLine) std::atomic<std::uint64_t> holders_{0};
};

// ---- the harness --------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double window_s = 2.0;
  std::string trace_path;  // empty: untraced
};

struct alignas(rt::kCacheLine) ThreadOut {
  Histogram latency;
  std::uint64_t ops = 0;
  rt::WaitStats wait{};
};

struct Control {
  std::latch ready{kThreads};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
};

template <typename W>
std::vector<Script> make_scripts(std::uint64_t seed) {
  std::vector<Script> out(kThreads, Script(kScriptOps));
  for (unsigned t = 0; t < kThreads; ++t) {
    SplitMix64 r(seed ^ fnv1a(W::kScript) ^
                 ((t + 1) * 0xd1b54a32d192ed03ULL));
    for (std::size_t i = 0; i < kScriptOps; ++i) {
      out[t][i] = W::make_op(r, static_cast<std::uint32_t>(t * kScriptOps + i));
    }
  }
  return out;
}

template <bool kTraced, typename W>
void worker(W& w, typename W::Local& l, const Script& script, Control& ctl,
            ThreadOut& out, ThreadTracer* tr) {
  std::size_t i = 0;
  for (std::uint64_t k = 0; k < kWarmupOps; ++k) {
    w.template op<false>(l, script[i++ % kScriptOps], nullptr);
  }
  ctl.ready.count_down();
  ctl.go.wait(false, std::memory_order_acquire);
  const rt::WaitStats wait0 = rt::thread_wait_stats();
  const std::uint64_t op_base = std::uint64_t{l.tid} << 40;
  std::uint64_t n = 0;
  while (!ctl.stop.load(std::memory_order_relaxed)) {
    const Op& o = script[i++ % kScriptOps];
    if constexpr (kTraced) {
      tr->begin_op(op_base | n);
      w.template op<true>(l, o, tr);
      tr->end_op();
    } else if (n % kSampleStride == l.tid) {
      const std::uint64_t t0 = now_ns();
      w.template op<false>(l, o, nullptr);
      out.latency.add(now_ns() - t0);
    } else {
      w.template op<false>(l, o, nullptr);
    }
    ++n;
  }
  out.ops = n;
  out.wait = rt::thread_wait_stats() - wait0;
}

/// Cost of one back-to-back now_ns() pair, as every latency sample pays it.
double timer_pair_ns() {
  constexpr int kPairs = 1 << 16;
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < kPairs; ++i) {
    (void)now_ns();  // clock reads are opaque calls: never elided
    (void)now_ns();
  }
  return static_cast<double>(now_ns() - t0) / kPairs;
}

/// Anonymous resident memory (heap and stacks). File-backed pages are left
/// out: which library pages happen to be resident is page-cache noise, not
/// memory the stack under test uses.
double anon_rss_kib() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long size = 0, resident = 0, file_backed = 0;
  const int got =
      std::fscanf(f, "%llu %llu %llu", &size, &resident, &file_backed);
  std::fclose(f);
  if (got != 3) return 0.0;
  return static_cast<double>(resident - file_backed) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

unsigned host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<unsigned>(CPU_COUNT(&set));
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

template <typename W, bool kTraced>
int run(const Options& o) {
  const std::vector<Script> scripts = make_scripts<W>(o.seed);
  std::vector<ThreadOut> outs(kThreads);
  std::vector<typename W::Local> locals(kThreads);
  std::vector<std::unique_ptr<ThreadTracer>> tracers;
  for (unsigned t = 0; t < kThreads; ++t) {
    locals[t].tid = t;
    if (kTraced) {
      tracers.push_back(std::make_unique<ThreadTracer>(kTraceSpansPerThread));
    }
  }
  const double timer_ns = timer_pair_ns();

  // Set-up: stack construction, worker spawn and warm-up, up to the first
  // timed op. Resident-memory growth is counted from here.
  const double rss0 = anon_rss_kib();
  const std::uint64_t t_setup = now_ns();
  auto w = std::make_unique<W>();
  Control ctl;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      worker<kTraced>(*w, locals[t], scripts[t], ctl, outs[t],
                      kTraced ? tracers[t].get() : nullptr);
    });
  }
  ctl.ready.wait();
  const auto before = w->telemetry();
  const std::uint64_t t_start = now_ns();
  ctl.go.store(true, std::memory_order_release);
  ctl.go.notify_all();
  std::this_thread::sleep_for(std::chrono::duration<double>(o.window_s));
  ctl.stop.store(true, std::memory_order_relaxed);
  const std::uint64_t t_end = now_ns();
  const double rss1 = anon_rss_kib();
  for (std::thread& th : threads) th.join();

  Report r;
  Histogram latency;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  rt::WaitStats wait{};
  for (unsigned t = 0; t < kThreads; ++t) {
    latency.merge(outs[t].latency);
    ops += outs[t].ops;
    wait += outs[t].wait;
    failed += locals[t].failed;
  }
  const std::uint64_t attempted = ops + kThreads * kWarmupOps;
  w->finish(locals, before, ops, r);

  const auto per_op = [&](std::uint64_t v) {
    return ratio(static_cast<double>(v), static_cast<double>(ops));
  };
  r.set("wait_policy.spins_per_op", per_op(wait.spins));
  r.set("wait_policy.yields_per_op", per_op(wait.yields));
  r.set("wait_policy.parks_per_op", per_op(wait.parks));
  r.set("wait_policy.wakes_per_op", per_op(wait.wakes));
  r.set("bench.timer_ns", timer_ns);
  if constexpr (kTraced) {
    std::vector<const ThreadTracer*> views;
    for (const auto& tr : tracers) views.push_back(tr.get());
    for (std::size_t n = 1; n < static_cast<std::size_t>(SpanName::kCount);
         ++n) {
      const auto name = static_cast<SpanName>(n);
      Histogram h;
      for (const ThreadTracer* tr : views) h.merge(tr->hist(name));
      if (h.count() == 0) continue;
      std::string key = W::layer(name);
      key.append(".").append(kSpanNames[n]).append("_ns.p");
      r.set(key + "50", h.percentile(0.50));
      r.set(key + "99", h.percentile(0.99));
    }
    Histogram self;
    for (const ThreadTracer* tr : views) {
      latency.merge(tr->hist(SpanName::kOp));
      self.merge(tr->self());
    }
    r.set("bench.op_self_ns.p50", self.percentile(0.50));
    r.check(write_chrome_trace(o.trace_path, views, t_start, W::layer),
            "cannot write the trace file");
  }
  r.set("bench.samples", static_cast<double>(latency.count()));
  r.set("bench.p999_ns", latency.percentile(0.999));

  const double window_s = static_cast<double>(t_end - t_start) / 1e9;
  std::printf("{\"workload\":");
  print_json_string(o.workload);
  std::printf(
      ",\"seed\":%llu,\"traced\":%s,\"threads\":%u,\"host_cpus\":%u,"
      "\"window_s\":%.9g,\"ops\":%llu,\"attempted\":%llu,\"failed\":%llu",
      static_cast<unsigned long long>(o.seed), kTraced ? "true" : "false",
      kThreads, host_cpus(), window_s, static_cast<unsigned long long>(ops),
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  std::printf(
      ",\"e2e\":{\"ops_per_s\":%.17g,\"p50_ns\":%.17g,\"p99_ns\":%.17g,"
      "\"setup_s\":%.17g,\"mem_kib\":%.17g,\"error_rate\":%.17g}",
      ratio(static_cast<double>(ops), window_s), latency.percentile(0.50),
      latency.percentile(0.99), static_cast<double>(t_start - t_setup) / 1e9,
      rss1 - rss0,
      ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  std::printf(",\"layer\":{");
  for (std::size_t i = 0; i < r.layer.size(); ++i) {
    if (i != 0) std::putchar(',');
    print_json_string(r.layer[i].first);
    std::printf(":%.17g", r.layer[i].second);
  }
  std::printf("},\"errors\":[");
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    if (i != 0) std::putchar(',');
    print_json_string(r.errors[i]);
  }
  std::printf("]}\n");
  return failed == 0 && r.errors.empty() ? 0 : 1;
}

template <typename W>
int run_workload(const Options& o) {
  return o.trace_path.empty() ? run<W, false>(o) : run<W, true>(o);
}

// ---- self-test ------------------------------------------------------------------

int selftest() {
  int bad = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++bad;
    }
  };

  // Log-linear percentiles against exact order statistics, on samples
  // spread over many octaves; and merge() against one big histogram.
  SplitMix64 rng(1);
  std::vector<std::uint64_t> xs(200000);
  Histogram all;
  std::array<Histogram, kThreads> parts;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = 1 + (rng.next() >> (16 + rng.next() % 44));
    all.add(xs[i]);
    parts[i % kThreads].add(xs[i]);
  }
  std::sort(xs.begin(), xs.end());
  for (const double q : {0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(xs.size())));
    const double exact = static_cast<double>(xs[rank - 1]);
    expect(std::fabs(all.percentile(q) - exact) <= exact / 32.0,
           "percentile outside 1/32 of the exact order statistic");
  }
  Histogram merged;
  for (const Histogram& p : parts) merged.merge(p);
  expect(merged.buckets() == all.buckets() && merged.count() == all.count(),
         "merge() is not bucket-exact");

  // Each checker accepts a clean history and rejects a seeded violation.
  {
    TicketCheck c;
    expect(c.on_ticket(5) && !c.on_ticket(5), "duplicate ticket accepted");
    expect(tickets_conserved(4, 0 + 1 + 2 + 3, 0 + 1 + 4 + 9),
           "clean tickets rejected");
    expect(!tickets_conserved(4, 0 + 1 + 1 + 4, 0 + 1 + 1 + 16),
           "duplicate ticket (balanced sum) accepted");
  }
  expect(pair_consistent(3, 3) && !pair_consistent(3, 2), "torn pair accepted");
  expect(sem_admitted(2, 2) && !sem_admitted(3, 2),
         "over-admitted semaphore accepted");
  expect(queue_conserved(3, 6, 3, 6) && !queue_conserved(3, 6, 2, 3),
         "lost queue item accepted");
  {
    TicketCheck c;
    expect(c.on_read(5) && !c.on_read(4), "non-monotone read accepted");
    expect(c.on_ticket(7) && !c.on_read(7), "read below own ticket accepted");
    MonotoneReads<2> m;
    expect(m.on_read(1, 5) && m.on_read(0, 1) && !m.on_read(1, 4),
           "non-monotone sharded read accepted");
  }

  if (bad == 0) std::printf("selftest ok\n");
  return bad == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: krs-bench --selftest\n"
               "       krs-bench --workload=hot_tree|hot_flat|clients_sharded|"
               "coord_mix --seed=N --window-s=SECONDS [--trace=PATH]\n");
  return 2;
}

bool flag(const char* arg, const char* name, const char** value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

}  // namespace
}  // namespace krs_bench

int main(int argc, char** argv) {
  using namespace krs_bench;
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (std::strcmp(argv[i], "--selftest") == 0) return selftest();
    if (flag(argv[i], "--workload", &v)) {
      o.workload = v;
    } else if (flag(argv[i], "--seed", &v)) {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (flag(argv[i], "--window-s", &v)) {
      o.window_s = std::strtod(v, nullptr);
    } else if (flag(argv[i], "--trace", &v)) {
      o.trace_path = v;
    } else {
      return usage();
    }
  }
  if (!(o.window_s > 0.0 && o.window_s <= 600.0)) return usage();
  if (o.workload == "hot_tree") {
    return run_workload<HotWord<krs::runtime::CombiningBackend>>(o);
  }
  if (o.workload == "hot_flat") {
    return run_workload<HotWord<krs::runtime::FlatCombiningBackend>>(o);
  }
  if (o.workload == "clients_sharded") return run_workload<ClientsSharded>(o);
  if (o.workload == "coord_mix") return run_workload<CoordMix>(o);
  return usage();
}
