// krs_profile — the contention profiler driven deterministically.
//
// Runs the §1 hot-spot scenario (every thread hammering one shared
// counter) against the hardware-atomic, software-combining, and
// flat-combining backends with the ContentionProfiler installed, and
// emits the ranked combining-opportunity report for each. The drive is
// DETERMINISTIC: operations are issued from one thread with a
// round-robin VIRTUAL profiler tid (analysis::set_profile_tid) standing
// in for the issuing thread, and the combining/flat runs go through the
// structures' run_wave — one simultaneous round of all slots per wave —
// so every count in the report is a pure function of (threads, ops),
// identical on a 1-CPU CI box and a 128-way host.
//
// What the reports show, in the paper's terms:
//
//  * atomic: all ops reach the shared word; the top line IS the counter,
//    conflict rate ≈ 1, absorbable ≈ (M−1)/M — the profiler telling you
//    "put a combining cell here".
//  * combining: only ~2 of every M ops reach the root word per wave (the
//    two subtree firsts); the root line's conflict count drops by about
//    half at M = 4 and more at larger widths — the prediction the atomic
//    report made, realized.
//  * flat: the combiner serves the whole batch against ONE
//    read-modify-write of the value word per pass, so the value line
//    stops conflicting entirely; the conflicts move to the per-slot
//    PUBLICATION lines (pairwise owner↔combiner handshakes) — the hot
//    spot inverted rather than merely thinned.
//
//  * sharded: the same op stream through ShardedBackend<Atomic> at S = 4
//    shards, driven as 2S logical clients (ScopedRouteKey) so each shard
//    serves two clients — the hot line's conflict count SPLITS across S
//    shard lines instead of concentrating on one, the spread-the-load
//    dual of combining's fold-the-traffic.
//
// Usage:
//   krs_profile [--backend=atomic|combining|flat|sharded|both]
//               [--threads=N] [--ops=N] [--json=PATH] [--check]
//
// --check exits nonzero unless the atomic report ranks the counter's
// line first with >= 50% absorbable traffic, the combining run's
// root-line conflict count is at most half the atomic one, the flat
// run's value-word line is conflict-quiet while its publication lines
// carry the (hot) traffic, AND the sharded run spreads the conflicts so
// evenly that no shard line carries more than 2/S of their total — the
// acceptance gate CI runs.
//
// The JSON document ("krs-profile-v1") wraps one report per backend;
// bench/harness/normalize.py folds it into the perf trajectory as the
// profiler_hot_lines series.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/contention_profiler.hpp"
#include "analysis/instrument.hpp"
#include "core/any_rmw.hpp"
#include "core/fetch_theta.hpp"
#include "runtime/combining_backend.hpp"
#include "runtime/flat_combining.hpp"
#include "runtime/rmw_backend.hpp"
#include "runtime/sharded_backend.hpp"
#include "util/bits.hpp"

namespace {

using krs::analysis::ContentionProfiler;
using krs::analysis::ContentionReport;
using krs::analysis::GlobalInstrument;
using krs::analysis::LineProfile;
using krs::analysis::ScopedProfiler;
using krs::analysis::set_profile_tid;

struct Options {
  std::string backend = "both";
  unsigned threads = 4;
  std::uint64_t ops = 2048;
  std::string json_path;
  bool check = false;
};

bool parse_flag(const char* arg, const char* name, const char** value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *value = arg + n + 1;
    return true;
  }
  return false;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--backend=atomic|combining|flat|sharded|both] "
               "[--threads=N] [--ops=N] [--json=PATH] [--check]\n",
               argv0);
  return 2;
}

struct RunResult {
  std::string backend;
  ContentionReport report;
  LineProfile hot_word;  ///< the shared word's line (counter or tree root)
  std::vector<LineProfile> shard_words;  ///< sharded run: one line per shard
};

/// The atomic-backend hot spot: `ops` fetch-and-adds on one cell, issued
/// round-robin across `threads` virtual tids. Every op is one RMW on the
/// counter's cache line.
RunResult run_atomic(const Options& opt) {
  krs::runtime::BasicAtomicBackend<GlobalInstrument> backend;
  decltype(backend)::Cell counter(backend, 0);
  ContentionProfiler profiler;
  {
    ScopedProfiler scope(profiler);
    for (std::uint64_t i = 0; i < opt.ops; ++i) {
      set_profile_tid(static_cast<std::uint32_t>(i % opt.threads));
      backend.fetch_add(counter, 1);
    }
    set_profile_tid(krs::analysis::kProfileTidAuto);
  }
  RunResult r{"atomic", profiler.report(), profiler.line_of(&counter.word), {}};
  return r;
}

/// The combining-backend hot spot: the same op stream pushed through a
/// MappingCombiningTree as simultaneous waves of one op per slot — the
/// §4.2 best case, where all but the two subtree firsts fold below the
/// root. run_wave's on_op callback retags the virtual tid per operation,
/// so root traffic is attributed to the op that actually reached it.
RunResult run_combining(const Options& opt) {
  const unsigned width = static_cast<unsigned>(
      krs::util::ceil_pow2(std::max(2u, opt.threads)));
  krs::runtime::BasicCombiningBackend<GlobalInstrument> backend(width);
  decltype(backend)::Cell counter(backend, 0);

  using Tree = krs::runtime::MappingCombiningTree<krs::core::AnyRmw,
                                                  GlobalInstrument>;
  std::vector<Tree::WaveOp> wave;
  wave.reserve(opt.threads);
  for (unsigned s = 0; s < opt.threads; ++s) {
    wave.push_back({s, krs::core::AnyRmw(krs::core::FetchAdd(1))});
  }

  ContentionProfiler profiler;
  {
    ScopedProfiler scope(profiler);
    const std::uint64_t waves = opt.ops / opt.threads;
    for (std::uint64_t w = 0; w < waves; ++w) {
      counter.combiner.run_wave(wave, [](std::size_t i) {
        set_profile_tid(static_cast<std::uint32_t>(i));
      });
    }
    set_profile_tid(krs::analysis::kProfileTidAuto);
  }
  RunResult r{"combining", profiler.report(),
              profiler.line_of(counter.combiner.value_address()), {}};
  return r;
}

/// The flat-combining hot spot: the same op stream through a FlatCombiner
/// as deterministic waves, the combine phase attributed to the wave's
/// first op (the thread that would win the election). The combiner batches
/// the whole wave against one read-modify-write of the value word, so the
/// value line sees only same-tid traffic (conflict count ~0) while every
/// publication slot line carries an owner↔combiner handshake per wave —
/// the conflicts CONCENTRATE on the publication lines instead of the
/// shared word.
RunResult run_flat(const Options& opt) {
  using Fc = krs::runtime::FlatCombiner<GlobalInstrument>;
  Fc fc(opt.threads, 0);
  std::vector<Fc::WaveOp> wave;
  wave.reserve(opt.threads);
  for (unsigned s = 0; s < opt.threads; ++s) {
    wave.push_back({s, krs::core::AnyRmw(krs::core::FetchAdd(1))});
  }

  ContentionProfiler profiler;
  {
    ScopedProfiler scope(profiler);
    const std::uint64_t waves = opt.ops / opt.threads;
    for (std::uint64_t w = 0; w < waves; ++w) {
      fc.run_wave(wave, [](std::size_t i) {
        set_profile_tid(static_cast<std::uint32_t>(i));
      });
    }
    set_profile_tid(krs::analysis::kProfileTidAuto);
  }
  RunResult r{"flat", profiler.report(), profiler.line_of(fc.value_address()), {}};
  return r;
}

/// The sharded hot spot: the same op stream through ShardedBackend over
/// the instrumented atomic backend, S = 4 shards, issued round-robin by
/// 2S LOGICAL CLIENTS — each op runs under ScopedRouteKey(client) and a
/// matching virtual profiler tid, so two clients alias onto every shard
/// (conflicts exist) while the routing spreads them evenly. The single
/// hot line of the atomic run becomes S shard lines, each carrying ~1/S
/// of the conflict total: the profiler's combining-opportunity ranking,
/// answered by decomposition instead of in-network folding.
RunResult run_sharded(const Options& opt) {
  using Inner = krs::runtime::BasicAtomicBackend<GlobalInstrument>;
  constexpr unsigned kShards = 4;
  const unsigned clients = 2 * kShards;
  krs::runtime::ShardedBackend<Inner> backend{Inner{}, kShards};
  decltype(backend)::Cell counter(backend, 0);
  ContentionProfiler profiler;
  {
    ScopedProfiler scope(profiler);
    for (std::uint64_t i = 0; i < opt.ops; ++i) {
      const auto client = static_cast<std::uint32_t>(i % clients);
      set_profile_tid(client);
      krs::runtime::ScopedRouteKey route(client);
      backend.fetch_add(counter, 1);
    }
    set_profile_tid(krs::analysis::kProfileTidAuto);
  }
  RunResult r{"sharded", profiler.report(), {}, {}};
  for (unsigned s = 0; s < kShards; ++s) {
    r.shard_words.push_back(
        profiler.line_of(&backend.shard_cell(counter, s).word));
  }
  return r;
}

bool write_json(const std::string& path, const Options& opt,
                const std::vector<RunResult>& runs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "krs_profile: cannot write %s\n", path.c_str());
    return false;
  }
  std::string doc = "{\"schema\":\"krs-profile-v1\"";
  doc += ",\"threads\":" + std::to_string(opt.threads);
  doc += ",\"ops\":" + std::to_string(opt.ops);
  doc += ",\"runs\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i != 0) doc += ",";
    doc += "{\"backend\":\"" + runs[i].backend + "\"";
    doc += ",\"report\":" + runs[i].report.to_json() + "}";
  }
  doc += "]}\n";
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fclose(f);
  return ok;
}

/// The acceptance gate. Returns the number of failed checks.
int check(const Options& opt, const RunResult* atomic,
          const RunResult* combining, const RunResult* flat,
          const RunResult* sharded) {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    std::printf("check: %s: %s\n", what, ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  };
  if (atomic != nullptr) {
    expect(atomic->report.hot_lines >= 1, "atomic run finds a hot line");
    const bool counter_first =
        !atomic->report.lines.empty() &&
        atomic->report.lines.front().base == atomic->hot_word.base;
    expect(counter_first, "atomic run ranks the counter's line first");
    expect(atomic->hot_word.absorbable >= 0.5,
           "counter line is >=50% absorbable");
    expect(atomic->hot_word.hot, "counter line crosses the hot thresholds");
  }
  if (atomic != nullptr && combining != nullptr) {
    const std::uint64_t a = atomic->hot_word.conflicts;
    const std::uint64_t c = combining->hot_word.conflicts;
    std::printf("check: root-word conflicts: atomic=%llu combining=%llu\n",
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(c));
    expect(c * 2 <= a, "combining at most halves root-word conflicts");
    expect(combining->hot_word.accesses < atomic->hot_word.accesses,
           "combining absorbs traffic before the shared word");
  }
  if (flat != nullptr) {
    expect(flat->report.hot_lines >= 1,
           "flat run finds hot publication lines");
    const bool value_not_first =
        !flat->report.lines.empty() &&
        flat->report.lines.front().base != flat->hot_word.base;
    expect(value_not_first,
           "flat run ranks a publication line above the value word");
  }
  if (atomic != nullptr && flat != nullptr) {
    const std::uint64_t a = atomic->hot_word.conflicts;
    const std::uint64_t f = flat->hot_word.conflicts;
    std::printf("check: value-word conflicts: atomic=%llu flat=%llu\n",
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(f));
    expect(f * 4 <= a, "flat quiets the value word to <=1/4 of atomic");
  }
  if (sharded != nullptr) {
    const std::size_t s = sharded->shard_words.size();
    std::uint64_t total = 0;
    std::uint64_t worst = 0;
    std::uint64_t quiet_shards = 0;
    for (const LineProfile& line : sharded->shard_words) {
      total += line.conflicts;
      worst = line.conflicts > worst ? line.conflicts : worst;
      if (line.accesses == 0) ++quiet_shards;
    }
    std::printf(
        "check: shard-word conflicts: total=%llu worst=%llu shards=%zu\n",
        static_cast<unsigned long long>(total),
        static_cast<unsigned long long>(worst), s);
    expect(total > 0, "sharded run still observes real conflicts");
    expect(quiet_shards == 0, "every shard line carries traffic");
    // The ISSUE gate: the former single hot line's conflicts split across
    // S shard lines, no line carrying more than 2/S of the total.
    expect(worst * s <= 2 * total,
           "no shard line carries >2/S of the conflict total");
    if (atomic != nullptr) {
      expect(worst * 2 <= atomic->hot_word.conflicts,
             "worst shard line at most halves the atomic hot line");
    }
  }
  (void)opt;
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (parse_flag(argv[i], "--backend", &v)) {
      opt.backend = v;
    } else if (parse_flag(argv[i], "--threads", &v)) {
      opt.threads = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (parse_flag(argv[i], "--ops", &v)) {
      opt.ops = std::strtoull(v, nullptr, 10);
    } else if (parse_flag(argv[i], "--json", &v)) {
      opt.json_path = v;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      opt.check = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.threads < 2 || opt.ops < opt.threads ||
      (opt.backend != "atomic" && opt.backend != "combining" &&
       opt.backend != "flat" && opt.backend != "sharded" &&
       opt.backend != "both")) {
    return usage(argv[0]);
  }
  // Whole waves only: the combining drive issues `threads` ops per wave,
  // and matching totals keeps the two reports comparable.
  opt.ops -= opt.ops % opt.threads;

  std::vector<RunResult> runs;
  if (opt.backend == "atomic" || opt.backend == "both") {
    runs.push_back(run_atomic(opt));
  }
  if (opt.backend == "combining" || opt.backend == "both") {
    runs.push_back(run_combining(opt));
  }
  if (opt.backend == "flat" || opt.backend == "both") {
    runs.push_back(run_flat(opt));
  }
  if (opt.backend == "sharded" || opt.backend == "both") {
    runs.push_back(run_sharded(opt));
  }

  for (const RunResult& r : runs) {
    std::printf("== %s backend: %llu ops, %u virtual threads ==\n%s\n",
                r.backend.c_str(), static_cast<unsigned long long>(opt.ops),
                opt.threads, r.report.to_string().c_str());
  }

  if (!opt.json_path.empty() && !write_json(opt.json_path, opt, runs)) {
    return 1;
  }

  if (opt.check) {
    const RunResult* atomic = nullptr;
    const RunResult* combining = nullptr;
    const RunResult* flat = nullptr;
    const RunResult* sharded = nullptr;
    for (const RunResult& r : runs) {
      if (r.backend == "atomic") atomic = &r;
      if (r.backend == "combining") combining = &r;
      if (r.backend == "flat") flat = &r;
      if (r.backend == "sharded") sharded = &r;
    }
    const int failures = check(opt, atomic, combining, flat, sharded);
    if (failures != 0) {
      std::printf("krs_profile: %d check(s) failed\n", failures);
      return 1;
    }
    std::printf("krs_profile: all checks passed\n");
  }
  return 0;
}
