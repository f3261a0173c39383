// Shared pieces of the benchmark harness: the clock, latency samples,
// the in-memory span tracer, the frozen-input text container, step-line
// text, the benchmark's own PRNG and the result record.

#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/schema/access.h"
#include "src/schema/schema.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// SplitMix64 owned by the benchmark: orders request streams (Zipf
/// draws, client slices) without depending on src/common/rng.h, so a
/// change there cannot move what is measured.
class BenchRng {
 public:
  explicit BenchRng(uint64_t seed) : state_(seed ^ 0x5bd1e9955bd1e995ULL) {}
  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform double in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Quantile of an unsorted sample by nearest rank (sorts in place).
double Quantile(std::vector<double>* v, double q);
double Median(std::vector<double> v);

/// Exact latency recorder: nanosecond counts below 64 µs go to a
/// dense histogram, longer ones are kept individually, so million-op
/// runs cost a fixed 256 KiB per client while every quantile stays
/// exact.
class LatencyRecorder {
 public:
  LatencyRecorder() : small_(kDense, 0) {}
  void Add(int64_t ns) {
    ++count_;
    if (ns < 0) ns = 0;
    if (ns < static_cast<int64_t>(kDense)) {
      ++small_[static_cast<size_t>(ns)];
    } else {
      large_.push_back(ns);
    }
  }
  void Merge(const LatencyRecorder& o);
  size_t count() const { return count_; }
  /// Nearest-rank quantile in microseconds.
  double QuantileUs(double q) const;

 private:
  static constexpr size_t kDense = 1 << 16;
  std::vector<uint32_t> small_;
  mutable std::vector<int64_t> large_;
  mutable bool sorted_ = false;
  size_t count_ = 0;
};

/// Latencies of one client's timed phase, kept per interval of equal
/// length so that each latency quantile can be reported as the median
/// over intervals: a burst of interference from other tenants of the
/// host then moves one interval, not the result. Rates use the whole
/// phase: a few costly ops land unevenly in short intervals, and over
/// ten seeds repeat_checks' per-interval ops_per_s spread 0.17 of its
/// median against 0.09 over the whole phase.
class PhaseStats {
 public:
  PhaseStats() = default;
  PhaseStats(size_t intervals, int64_t start_ns, double seconds)
      : lat_(intervals),
        start_ns_(start_ns),
        width_ns_(std::max<int64_t>(
            1, static_cast<int64_t>(seconds * 1e9 /
                                    static_cast<double>(intervals)))) {}
  /// Records an op that completed at `end_ns`; ops completing after
  /// the phase's nominal end count in the last interval.
  void Add(int64_t end_ns, int64_t latency_ns, uint64_t nodes = 0) {
    size_t i = static_cast<size_t>(
        std::max<int64_t>(0, (end_ns - start_ns_) / width_ns_));
    if (i >= lat_.size()) i = lat_.size() - 1;
    lat_[i].Add(latency_ns);
    nodes_ += nodes;
  }
  void Merge(const PhaseStats& o);
  size_t intervals() const { return lat_.size(); }
  const LatencyRecorder& latency(size_t i) const { return lat_[i]; }
  /// Nodes over the whole phase.
  uint64_t nodes() const { return nodes_; }
  /// Every interval's samples in one recorder.
  LatencyRecorder All() const;

 private:
  std::vector<LatencyRecorder> lat_;
  uint64_t nodes_ = 0;
  int64_t start_ns_ = 0;
  int64_t width_ns_ = 1;
};

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

// --- Tracing ---------------------------------------------------------------

/// One recorded span: a call into a module's public function.
struct SpanRecord {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // request id shared by a request's spans
  int64_t arg = -1;      // optional count attached by the caller
};

/// In-memory span recorder. Disabled by default; while disabled a
/// Span costs one relaxed load. Each thread appends to its own buffer.
class Tracer {
 public:
  static Tracer& Get();
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Every span recorded so far, across threads.
  std::vector<SpanRecord> Collect();
  void Clear();

  struct Buffer {
    std::vector<SpanRecord> spans;
    uint64_t next_local = 1;
    uint64_t thread_tag = 0;
    uint64_t current = 0;          // innermost open span
    uint64_t current_request = 0;  // request id of the open root
  };
  Buffer* ThreadBuffer();

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span. A span opened with a non-zero `request` starts a new
/// request; nested spans inherit the enclosing request id.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  /// Renames the span before it closes (for names known only after
  /// the call, such as which cache tier answered).
  void SetName(const char* name) { rec_.name = name; }
  void SetArg(int64_t arg) { rec_.arg = arg; }
  Span& operator=(const Span&) = delete;

 private:
  Tracer::Buffer* buf_ = nullptr;
  SpanRecord rec_;
  uint64_t saved_current_ = 0;
  uint64_t saved_request_ = 0;
};

/// Per span name: call count, median duration and median self time
/// (duration minus the part covered by child spans), in microseconds.
struct SpanSummary {
  size_t count = 0;
  double median_us = 0;
  double median_self_us = 0;
};
/// Durations (µs) of the spans named `prefix` or `prefix.*` whose arg
/// is at most `max_arg` (negative: any arg).
std::vector<double> SpanDurations(const std::vector<SpanRecord>& spans,
                                  const std::string& prefix,
                                  int64_t max_arg = -1);
std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<SpanRecord>& spans);

/// Writes spans as Chrome trace-event JSON (viewable in Perfetto).
bool WriteTrace(const std::vector<SpanRecord>& spans, const std::string& path);

// --- Frozen inputs ------------------------------------------------------------

/// One block of an input file: a header line "@kind key=value ..."
/// followed by body lines up to the next header.
struct Block {
  std::string kind;
  std::map<std::string, std::string> attrs;
  std::vector<std::string> lines;

  std::string Body() const;  // lines joined with '\n', newline-terminated
  const std::string& Attr(const std::string& key) const;
  long long IntAttr(const std::string& key) const;
};

std::string RenderBlocks(const std::vector<Block>& blocks);
/// Parses RenderBlocks output; false (with `*err`) on malformed text.
bool ParseBlocks(const std::string& text, std::vector<Block>* blocks,
                 std::string* err);

/// Step line (the `accltl_cli monitor` format):
///   Method(v, ...) [-> Rel(v, ...) [; Rel(v, ...)]]
std::string FormatStepLine(const accltl::schema::AccessStep& step,
                           const accltl::schema::Schema& schema);
bool ParseStepLine(const std::string& line,
                   const accltl::schema::Schema& schema,
                   accltl::schema::AccessStep* step, std::string* err);

// --- Results ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run reports back to main.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Wrong answers found by the post-run checks (also counted in
  /// `failed`); each makes the run exit non-zero.
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  /// A traced run's spans, written out by main.
  std::vector<SpanRecord> spans;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  /// Records a wrong answer found by a post-run check.
  void Wrong(const std::string& what) {
    correct = false;
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

/// Run-wide settings passed to each workload.
struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  size_t nproc = 1;
  /// Number of repeated set-ups whose median is setup_s.
  int setups = 7;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COMMON_H_
