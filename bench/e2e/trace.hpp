// Span recording for krs-bench's traced run.
//
// Spans are taken from the benchmark's own code, around each call into a
// layer's public functions; the library itself is not instrumented. Every
// call is timed into a per-name histogram. The first spans of the window
// are also kept, with name, start, end, parent and op id, in a buffer
// allocated before the window, and written out as Chrome trace-event JSON
// when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "histogram.hpp"

namespace krs_bench {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class SpanName : std::uint8_t {
  kOp,  // one client operation; every other span is its child
  kFetchAdd,
  kLoad,
  kRoute,
  kReadLock,
  kWriteLock,
  kSemP,
  kUnlock,
  kEnqueue,
  kDequeue,
  kHold,
  kCount,
};

inline constexpr const char* kSpanNames[] = {
    "op",     "fetch_add", "load",    "route",   "read_lock", "write_lock",
    "sem_p",  "unlock",    "enqueue", "dequeue", "hold",
};
static_assert(std::size(kSpanNames) == static_cast<std::size_t>(SpanName::kCount));

class ThreadTracer {
 public:
  struct Span {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::uint64_t op = 0;
    std::int64_t parent = -1;  // index of the op span in this buffer
    SpanName name = SpanName::kOp;
  };

  explicit ThreadTracer(std::size_t capacity)
      : spans_(capacity), hist_(static_cast<std::size_t>(SpanName::kCount)) {}

  void begin_op(std::uint64_t id) noexcept {
    op_id_ = id;
    child_ns_ = 0;
    op_index_ = -1;
    if (used_ < spans_.size()) {
      op_index_ = static_cast<std::int64_t>(used_);
      spans_[used_++] = {0, 0, id, -1, SpanName::kOp};
    }
    op_start_ = now_ns();
  }

  void end_op() noexcept {
    const std::uint64_t end = now_ns();
    if (op_index_ >= 0) {
      spans_[static_cast<std::size_t>(op_index_)].start = op_start_;
      spans_[static_cast<std::size_t>(op_index_)].end = end;
    }
    const std::uint64_t d = end - op_start_;
    hist_[0].add(d);
    self_.add(d > child_ns_ ? d - child_ns_ : 0);
  }

  void child(SpanName n, std::uint64_t start, std::uint64_t end) noexcept {
    hist_[static_cast<std::size_t>(n)].add(end - start);
    child_ns_ += end - start;
    if (op_index_ >= 0 && used_ < spans_.size()) {
      spans_[used_++] = {start, end, op_id_, op_index_, n};
    }
  }

  [[nodiscard]] const Histogram& hist(SpanName n) const noexcept {
    return hist_[static_cast<std::size_t>(n)];
  }
  /// Per-op self time: op duration minus the time its child calls cover.
  [[nodiscard]] const Histogram& self() const noexcept { return self_; }
  [[nodiscard]] std::size_t used() const noexcept { return used_; }
  [[nodiscard]] const Span& span(std::size_t i) const noexcept {
    return spans_[i];
  }

 private:
  std::vector<Span> spans_;
  std::size_t used_ = 0;
  std::vector<Histogram> hist_;
  Histogram self_;
  std::uint64_t op_id_ = 0;
  std::uint64_t op_start_ = 0;
  std::uint64_t child_ns_ = 0;
  std::int64_t op_index_ = -1;
};

/// Runs `f`; when traced, times it as a child span `n` of the current op.
template <bool kTraced, typename F>
decltype(auto) timed(ThreadTracer* tr, SpanName n, F&& f) {
  if constexpr (!kTraced) {
    return f();
  } else {
    const std::uint64_t t0 = now_ns();
    if constexpr (std::is_void_v<std::invoke_result_t<F&>>) {
      f();
      tr->child(n, t0, now_ns());
    } else {
      auto r = f();
      tr->child(n, t0, now_ns());
      return r;
    }
  }
}

/// Writes the kept spans as Chrome trace-event JSON ("X" complete events,
/// microsecond timestamps relative to `origin_ns`). `layer(n)` names the
/// module a span's call went into. Returns false if the file cannot be
/// written.
template <typename LayerOf>
bool write_chrome_trace(const std::string& path,
                        const std::vector<const ThreadTracer*>& tracers,
                        std::uint64_t origin_ns, LayerOf layer) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    const ThreadTracer& tr = *tracers[t];
    for (std::size_t i = 0; i < tr.used(); ++i) {
      const ThreadTracer::Span& s = tr.span(i);
      if (s.end < s.start || s.start < origin_ns) continue;  // op cut short
      const std::size_t n = static_cast<std::size_t>(s.name);
      std::fprintf(f,
                   "%s\n{\"name\":\"%s.%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                   "\"id\":%zu,\"op\":%llu,\"parent\":%lld}}",
                   first ? "" : ",", layer(s.name), kSpanNames[n], t,
                   static_cast<double>(s.start - origin_ns) / 1e3,
                   static_cast<double>(s.end - s.start) / 1e3, i,
                   static_cast<unsigned long long>(s.op),
                   static_cast<long long>(s.parent));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace krs_bench
