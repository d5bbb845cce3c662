// Readers–writers three ways (§1, [10]): the busy-waiting fetch-and-add
// algorithm, the GLR group lock, and std::shared_mutex, racing on a shared
// table while an invariant checker rides along.
//
// The shared object is a two-field record that writers keep consistent
// (checksum == f(payload)); any reader observing a torn pair proves a
// mutual-exclusion bug. The demo reports throughput per structure and
// exits non-zero if any structure shows a violation or completes no reads
// or no writes.
//
// Build & run:   ./examples/readers_writers [seconds-per-structure]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "runtime/coordination.hpp"
#include "runtime/group_lock.hpp"

using namespace krs::runtime;

namespace {

struct Record {
  volatile std::uint64_t payload = 1;
  volatile std::uint64_t checksum = 0x9e3779b97f4a7c15ULL;  // payload * K
};

constexpr std::uint64_t kK = 0x9e3779b97f4a7c15ULL;

struct Result {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t violations = 0;
};

template <typename ReadLock, typename WriteLock>
Result race(double seconds, ReadLock read_section, WriteLock write_section) {
  Record rec;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0}, writes{0}, violations{0};
  const unsigned nr = 3, nw = 1;
  {
    std::vector<std::jthread> ts;
    for (unsigned w = 0; w < nw; ++w) {
      ts.emplace_back([&] {
        std::uint64_t n = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          write_section([&] {
            const std::uint64_t v = rec.payload + 1;
            rec.payload = v;
            rec.checksum = v * kK;
          });
          ++n;
        }
        writes.fetch_add(n);
      });
    }
    for (unsigned r = 0; r < nr; ++r) {
      ts.emplace_back([&] {
        std::uint64_t n = 0, bad = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          read_section([&] {
            const std::uint64_t p = rec.payload;
            const std::uint64_t c = rec.checksum;
            if (c != p * kK) ++bad;
          });
          ++n;
        }
        reads.fetch_add(n);
        violations.fetch_add(bad);
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop = true;
  }
  return {reads.load(), writes.load(), violations.load()};
}

/// Prints one structure's line; false if it broke exclusion or starved a
/// side.
bool report(const char* name, const Result& r, double secs) {
  const bool ok = r.violations == 0 && r.reads > 0 && r.writes > 0;
  std::printf("%-18s %10.0f reads/s %9.0f writes/s  violations: %llu %s\n",
              name, static_cast<double>(r.reads) / secs,
              static_cast<double>(r.writes) / secs,
              static_cast<unsigned long long>(r.violations),
              ok ? "(ok)" : r.violations != 0 ? "(BUG!)" : "(starved)");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const double secs = argc > 1 ? std::atof(argv[1]) : 1.0;
  std::printf("3 readers + 1 writer on a checksummed record, %.1fs per "
              "structure\n\n",
              secs);

  bool ok = true;
  {
    FaaRwLock lock;
    const auto r = race(
        secs,
        [&](auto body) {
          lock.read_lock();
          body();
          lock.read_unlock();
        },
        [&](auto body) {
          lock.write_lock();
          body();
          lock.write_unlock();
        });
    ok = report("faa rw-lock", r, secs) && ok;
  }
  {
    GroupLock lock;  // group 0 = readers, group 1 = writer
    const auto r = race(
        secs,
        [&](auto body) {
          lock.enter(0);
          body();
          lock.leave();
        },
        [&](auto body) {
          lock.enter(1);
          body();
          lock.leave();
        });
    ok = report("GLR group lock", r, secs) && ok;
  }
  {
    std::shared_mutex lock;
    const auto r = race(
        secs,
        [&](auto body) {
          std::shared_lock lk(lock);
          body();
        },
        [&](auto body) {
          std::unique_lock lk(lock);
          body();
        });
    ok = report("std::shared_mutex", r, secs) && ok;
  }
  std::printf("\n(the fetch-and-add structures have no serial lock-handoff "
              "path — the property the paper's combinable RMW operations "
              "were designed to exploit at machine scale)\n");
  return ok ? 0 : 1;
}
