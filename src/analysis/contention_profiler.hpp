// A shadow-memory contention profiler: the "find the hot spot" half of the
// paper's argument. The paper proves that combinable RMW traffic to ONE
// shared word is what serializes a shared-memory multiprocessor (§1, §3)
// and that a combining structure absorbs it — but knowing WHICH word is
// hot in a real program is a dynamic-analysis problem, the same one
// Valgrind-class tools (memcheck, DRD, cachegrind) solve with shadow
// memory at binary level. This header is that tool at library level:
// every instrumented primitive feeds its shared-word traffic through the
// contended_rmw / shared_load / shared_store hook family
// (analysis/instrument.hpp), and the profiler buckets it by cache line.
//
// Per line it records:
//   * access counts by kind (RMW / load / store) and by thread,
//   * CONFLICTS — consecutive accesses by different threads, the shadow
//     analogue of a coherence-protocol ownership transfer,
//   * per-site attribution (file:line via AccessSite) with the set of
//     8-byte offsets each site touched, which yields a FALSE-SHARING flag
//     when distinct sites hit distinct offsets of one line: the accesses
//     conflict in the coherence protocol without conflicting in the data,
//   * an inter-access gap histogram (in global event-sequence distance):
//     a tightly clustered gap distribution is the §1 hot-spot regime, a
//     sparse one is background traffic.
//
// On top sits the combining-opportunity analyzer. Under the paper's wave
// model (§3: simultaneous requests to one cell combine pairwise in the
// network; §4.2: the software tree does the same), when M threads issue
// balanced traffic at a line, a combining cell serves each wave with ONE
// root application regardless of M — the root still sees the slowest
// thread's request stream, so of N total accesses about N·max_i(share_i)
// must reach the word and the rest are absorbed by decombination:
//
//   absorbable ≈ 1 − max_thread_share      (= (M−1)/M when balanced)
//
// Each absorbed access also skips a full memory round trip, which the
// simulated machine (runtime/sim_backend.hpp, charge_round_trip_locked)
// prices at 2·log2(P) + 1 + mem-latency cycles — the §3/§6 cost model —
// so the report can rank lines by estimated absorbed traffic and say
// "N call sites, M threads, conflict rate r → a combining cell would
// absorb ≈X% of this line's traffic".
//
// The profiler is passive and mutex-serialized like the race detector:
// nothing feeds it unless a ScopedProfiler is installed, and the hooks
// are free-function no-ops otherwise. Thread identity defaults to a
// process-wide auto id per OS thread; deterministic drivers (the
// krs_profile CLI's wave mode, scripted tests) can pin a VIRTUAL tid with
// ScopedProfileTid / set_profile_tid so verdicts are schedule-free.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/race_detector.hpp"
#include "util/bits.hpp"
#include "util/stats.hpp"

namespace krs::analysis {

enum class AccessKind : unsigned char { kRmw, kLoad, kStore };

// ---- profiler thread identity ----------------------------------------------
//
// Independent of the race detector's Tid space: the profiler only needs
// "same thread or not", and must work with no detector installed.

inline constexpr std::uint32_t kProfileTidAuto = 0xffffffffu;

namespace detail {

inline std::uint32_t& profile_tid_override() noexcept {
  thread_local std::uint32_t t = kProfileTidAuto;
  return t;
}

inline std::uint32_t profile_tid_auto() noexcept {
  static std::atomic<std::uint32_t> counter{0};
  thread_local const std::uint32_t id =
      counter.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace detail

/// This thread's profiler id: the virtual override if one is set, else a
/// dense process-wide auto id assigned on first use.
inline std::uint32_t profile_self_tid() noexcept {
  const std::uint32_t o = detail::profile_tid_override();
  return o != kProfileTidAuto ? o : detail::profile_tid_auto();
}

/// Set (or, with kProfileTidAuto, clear) this thread's virtual profiler
/// tid; returns the previous override. Deterministic drivers switch the
/// virtual tid per logical issuer so conflict counts are schedule-free.
inline std::uint32_t set_profile_tid(std::uint32_t t) noexcept {
  std::uint32_t& slot = detail::profile_tid_override();
  const std::uint32_t prev = slot;
  slot = t;
  return prev;
}

/// RAII form of set_profile_tid for scoped scripted streams.
class ScopedProfileTid {
 public:
  explicit ScopedProfileTid(std::uint32_t t) : prev_(set_profile_tid(t)) {}
  ~ScopedProfileTid() { set_profile_tid(prev_); }
  ScopedProfileTid(const ScopedProfileTid&) = delete;
  ScopedProfileTid& operator=(const ScopedProfileTid&) = delete;

 private:
  std::uint32_t prev_;
};

// ---- configuration and report shapes ---------------------------------------

struct ProfilerConfig {
  /// log2 of the line size accesses are bucketed by (6 → 64-byte lines,
  /// the kCacheLine granule the runtime pads to).
  unsigned line_shift = 6;
  /// A line is HOT when it has at least this many accesses...
  std::uint64_t hot_min_accesses = 16;
  /// ...from at least this many distinct threads.
  unsigned hot_min_threads = 2;
  /// Sites listed per line in the report (all sites are counted).
  std::size_t top_sites = 4;
  /// Memory-module latency term of the §3/§6 round-trip cost model
  /// (2·log2 P + 1 + latency cycles per request), matching the sim
  /// backend's mem::ModuleConfig default.
  std::uint64_t mem_latency = 2;
};

/// One call site's share of a line's traffic.
struct SiteProfile {
  std::string site;           ///< AccessSite label (file:line)
  std::uint64_t count = 0;    ///< accesses from this site
  std::uint8_t offsets = 0;   ///< bitmask of touched 8-byte words in line
};

/// One cache line's summary, as ranked by the opportunity analyzer.
struct LineProfile {
  std::uintptr_t base = 0;  ///< line base address (addr >> shift << shift)
  std::uint64_t accesses = 0;
  std::uint64_t rmws = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t conflicts = 0;  ///< consecutive accesses by different threads
  unsigned threads = 0;         ///< distinct tids seen
  unsigned sites = 0;           ///< distinct call sites seen
  bool hot = false;
  bool false_sharing = false;
  double conflict_rate = 0.0;     ///< conflicts / (accesses − 1)
  double max_thread_share = 1.0;  ///< dominant thread's share of accesses
  double absorbable = 0.0;        ///< 1 − max_thread_share (0 if 1 thread)
  double est_absorbed_ops = 0.0;  ///< absorbable · accesses
  double est_cycles_saved = 0.0;  ///< est_absorbed_ops · round-trip cycles
  double gap_mean = 0.0;          ///< mean inter-access distance (events)
  std::uint64_t gap_p50 = 0;
  std::uint64_t gap_p99 = 0;
  std::vector<SiteProfile> top_sites;

  /// The opportunity analyzer's one-line verdict for this line.
  [[nodiscard]] std::string opportunity() const {
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "%u site%s, %u thread%s, conflict rate %.2f -> a combining "
                  "cell would absorb ~%.0f%% of traffic (~%.0f of %llu ops, "
                  "~%.0f cycles in the sim cost model)",
                  sites, sites == 1 ? "" : "s", threads,
                  threads == 1 ? "" : "s", conflict_rate, absorbable * 100.0,
                  est_absorbed_ops,
                  static_cast<unsigned long long>(accesses), est_cycles_saved);
    return buf;
  }
};

struct ContentionReport {
  std::vector<LineProfile> lines;  ///< ranked: est_absorbed_ops desc
  std::uint64_t total_accesses = 0;
  std::uint64_t total_conflicts = 0;
  std::size_t hot_lines = 0;  ///< lines meeting the hot thresholds

  /// Human-readable report: the top `max_lines` ranked lines with their
  /// combining-opportunity verdicts.
  [[nodiscard]] std::string to_string(std::size_t max_lines = 10) const;

  /// Machine-readable JSON object (no trailing newline). The krs_profile
  /// CLI wraps per-backend reports in a "krs-profile-v1" document that
  /// bench/harness/normalize.py folds into the perf trajectory.
  [[nodiscard]] std::string to_json() const;
};

// ---- the profiler ----------------------------------------------------------

class ContentionProfiler {
 public:
  explicit ContentionProfiler(ProfilerConfig cfg = {}) : cfg_(cfg) {}

  ContentionProfiler(const ContentionProfiler&) = delete;
  ContentionProfiler& operator=(const ContentionProfiler&) = delete;

  void on_access(std::uint32_t tid, const void* addr, AccessKind kind,
                 AccessSite site = {}) {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    const std::uintptr_t line = a >> cfg_.line_shift;
    const unsigned word_in_line =
        static_cast<unsigned>((a - (line << cfg_.line_shift)) >> 3);
    std::scoped_lock lk(m_);
    const std::uint64_t seq = ++seq_;
    Bucket& b = shadow_[line];
    ++b.accesses;
    switch (kind) {
      case AccessKind::kRmw: ++b.rmws; break;
      case AccessKind::kLoad: ++b.loads; break;
      case AccessKind::kStore: ++b.stores; break;
    }
    if (b.last_tid != kProfileTidAuto && b.last_tid != tid) ++b.conflicts;
    if (b.last_seq != 0) b.gaps.add(seq - b.last_seq);
    b.last_tid = tid;
    b.last_seq = seq;
    ++b.per_thread[tid];
    SiteAgg& s = b.sites[site.label != nullptr ? site.label : "?"];
    ++s.count;
    s.offsets |= static_cast<std::uint8_t>(1u << (word_in_line & 7));
  }

  void on_rmw(std::uint32_t tid, const void* addr, AccessSite site = {}) {
    on_access(tid, addr, AccessKind::kRmw, site);
  }
  void on_load(std::uint32_t tid, const void* addr, AccessSite site = {}) {
    on_access(tid, addr, AccessKind::kLoad, site);
  }
  void on_store(std::uint32_t tid, const void* addr, AccessSite site = {}) {
    on_access(tid, addr, AccessKind::kStore, site);
  }

  [[nodiscard]] std::uint64_t events() const {
    std::scoped_lock lk(m_);
    return seq_;
  }

  /// Summarize one line (by any address inside it); zeroed if unseen.
  [[nodiscard]] LineProfile line_of(const void* addr) const {
    std::scoped_lock lk(m_);
    const auto line =
        reinterpret_cast<std::uintptr_t>(addr) >> cfg_.line_shift;
    const auto it = shadow_.find(line);
    return it != shadow_.end() ? summarize_locked(line, it->second)
                               : LineProfile{};
  }

  /// The full ranked report. Ranking: estimated absorbed traffic
  /// descending (the combining-opportunity score), then raw access count,
  /// then address — so the first entry is the line where a combining cell
  /// buys the most.
  [[nodiscard]] ContentionReport report() const {
    std::scoped_lock lk(m_);
    ContentionReport out;
    out.lines.reserve(shadow_.size());
    for (const auto& [line, b] : shadow_) {
      out.lines.push_back(summarize_locked(line, b));
      out.total_accesses += b.accesses;
      out.total_conflicts += b.conflicts;
      if (out.lines.back().hot) ++out.hot_lines;
    }
    std::sort(out.lines.begin(), out.lines.end(),
              [](const LineProfile& a, const LineProfile& b) {
                if (a.est_absorbed_ops != b.est_absorbed_ops) {
                  return a.est_absorbed_ops > b.est_absorbed_ops;
                }
                if (a.accesses != b.accesses) return a.accesses > b.accesses;
                return a.base < b.base;
              });
    return out;
  }

 private:
  struct SiteAgg {
    std::uint64_t count = 0;
    std::uint8_t offsets = 0;
  };

  /// Shadow bucket for one cache line. Ordered maps keep report output
  /// deterministic for a given access stream.
  struct Bucket {
    std::uint64_t accesses = 0;
    std::uint64_t rmws = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t conflicts = 0;
    std::uint32_t last_tid = kProfileTidAuto;
    std::uint64_t last_seq = 0;
    std::map<std::uint32_t, std::uint64_t> per_thread;
    std::map<std::string, SiteAgg> sites;
    util::LogHistogram gaps;
  };

  [[nodiscard]] LineProfile summarize_locked(std::uintptr_t line,
                                             const Bucket& b) const {
    LineProfile p;
    p.base = line << cfg_.line_shift;
    p.accesses = b.accesses;
    p.rmws = b.rmws;
    p.loads = b.loads;
    p.stores = b.stores;
    p.conflicts = b.conflicts;
    p.threads = static_cast<unsigned>(b.per_thread.size());
    p.sites = static_cast<unsigned>(b.sites.size());
    p.hot = b.accesses >= cfg_.hot_min_accesses &&
            p.threads >= cfg_.hot_min_threads;
    p.conflict_rate =
        b.accesses > 1 ? static_cast<double>(b.conflicts) /
                             static_cast<double>(b.accesses - 1)
                       : 0.0;
    std::uint64_t top = 0;
    for (const auto& [tid, n] : b.per_thread) top = std::max(top, n);
    p.max_thread_share =
        b.accesses > 0
            ? static_cast<double>(top) / static_cast<double>(b.accesses)
            : 1.0;
    // The wave model: the root still serves the dominant thread's stream;
    // everything else can fold into it (§3, §4.2). One thread: nothing to
    // combine with.
    p.absorbable = p.threads >= 2 ? 1.0 - p.max_thread_share : 0.0;
    p.est_absorbed_ops = p.absorbable * static_cast<double>(b.accesses);
    const std::uint64_t round_trip =
        2 * util::log2_ceil(std::max(2u, p.threads)) + 1 + cfg_.mem_latency;
    p.est_cycles_saved = p.est_absorbed_ops * static_cast<double>(round_trip);
    p.gap_mean = b.gaps.mean();
    p.gap_p50 = b.gaps.quantile_bound(0.50);
    p.gap_p99 = b.gaps.quantile_bound(0.99);
    // False sharing: two sites whose touched-offset sets are disjoint —
    // they collide in the coherence protocol, never in the data.
    std::vector<std::uint8_t> masks;
    masks.reserve(b.sites.size());
    for (const auto& [label, agg] : b.sites) masks.push_back(agg.offsets);
    for (std::size_t i = 0; i < masks.size() && !p.false_sharing; ++i) {
      for (std::size_t j = i + 1; j < masks.size(); ++j) {
        if ((masks[i] & masks[j]) == 0) {
          p.false_sharing = true;
          break;
        }
      }
    }
    // Top sites by count (ties by label: the map is already ordered).
    std::vector<std::pair<std::string, SiteAgg>> ranked(b.sites.begin(),
                                                        b.sites.end());
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& c) {
                       return a.second.count > c.second.count;
                     });
    const std::size_t n = std::min(cfg_.top_sites, ranked.size());
    p.top_sites.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      p.top_sites.push_back(
          {ranked[i].first, ranked[i].second.count, ranked[i].second.offsets});
    }
    return p;
  }

  mutable std::mutex m_;
  ProfilerConfig cfg_;
  std::uint64_t seq_ = 0;  ///< global event sequence (gap time base)
  std::map<std::uintptr_t, Bucket> shadow_;  ///< keyed by line number
};

// ---- report emitters -------------------------------------------------------

inline std::string ContentionReport::to_string(std::size_t max_lines) const {
  std::string s = "contention report: " + std::to_string(total_accesses) +
                  " accesses, " + std::to_string(total_conflicts) +
                  " conflicts, " + std::to_string(lines.size()) +
                  " lines touched, " + std::to_string(hot_lines) +
                  " hot lines\n";
  const std::size_t n = std::min(max_lines, lines.size());
  for (std::size_t i = 0; i < n; ++i) {
    const LineProfile& p = lines[i];
    char head[192];
    std::snprintf(head, sizeof head,
                  "#%zu line 0x%llx: %llu accesses (%llu rmw / %llu load / "
                  "%llu store), %llu conflicts, gap p50<=%llu%s%s\n",
                  i + 1, static_cast<unsigned long long>(p.base),
                  static_cast<unsigned long long>(p.accesses),
                  static_cast<unsigned long long>(p.rmws),
                  static_cast<unsigned long long>(p.loads),
                  static_cast<unsigned long long>(p.stores),
                  static_cast<unsigned long long>(p.conflicts),
                  static_cast<unsigned long long>(p.gap_p50),
                  p.hot ? " [hot]" : "",
                  p.false_sharing ? " [false sharing]" : "");
    s += head;
    s += "    " + p.opportunity() + "\n";
    for (const SiteProfile& site : p.top_sites) {
      s += "    site " + site.site + ": " + std::to_string(site.count) +
           " accesses\n";
    }
  }
  return s;
}

namespace detail {

inline void json_escape_into(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
}

inline std::string json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

}  // namespace detail

inline std::string ContentionReport::to_json() const {
  std::string s = "{";
  s += "\"total_accesses\":" + std::to_string(total_accesses);
  s += ",\"total_conflicts\":" + std::to_string(total_conflicts);
  s += ",\"lines_touched\":" + std::to_string(lines.size());
  s += ",\"hot_lines\":" + std::to_string(hot_lines);
  s += ",\"lines\":[";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const LineProfile& p = lines[i];
    if (i != 0) s += ",";
    char base[24];
    std::snprintf(base, sizeof base, "0x%llx",
                  static_cast<unsigned long long>(p.base));
    s += std::string("{\"line\":\"") + base + "\"";
    s += ",\"accesses\":" + std::to_string(p.accesses);
    s += ",\"rmws\":" + std::to_string(p.rmws);
    s += ",\"loads\":" + std::to_string(p.loads);
    s += ",\"stores\":" + std::to_string(p.stores);
    s += ",\"conflicts\":" + std::to_string(p.conflicts);
    s += ",\"threads\":" + std::to_string(p.threads);
    s += ",\"sites\":" + std::to_string(p.sites);
    s += std::string(",\"hot\":") + (p.hot ? "true" : "false");
    s += std::string(",\"false_sharing\":") +
         (p.false_sharing ? "true" : "false");
    s += ",\"conflict_rate\":" + detail::json_num(p.conflict_rate);
    s += ",\"max_thread_share\":" + detail::json_num(p.max_thread_share);
    s += ",\"absorbable_fraction\":" + detail::json_num(p.absorbable);
    s += ",\"est_absorbed_ops\":" + detail::json_num(p.est_absorbed_ops);
    s += ",\"est_cycles_saved\":" + detail::json_num(p.est_cycles_saved);
    s += ",\"gap_mean\":" + detail::json_num(p.gap_mean);
    s += ",\"gap_p50\":" + std::to_string(p.gap_p50);
    s += ",\"gap_p99\":" + std::to_string(p.gap_p99);
    s += ",\"top_sites\":[";
    for (std::size_t j = 0; j < p.top_sites.size(); ++j) {
      if (j != 0) s += ",";
      s += "{\"site\":\"";
      detail::json_escape_into(s, p.top_sites[j].site);
      s += "\",\"count\":" + std::to_string(p.top_sites[j].count) + "}";
    }
    s += "]}";
  }
  s += "]}";
  return s;
}

}  // namespace krs::analysis
