#include <algorithm>
#include <cstdio>
#include <thread>

#include "perfbench/harness/workloads.h"

namespace perfbench {

double RunClosedLoop(
    size_t clients, double seconds,
    const std::function<void(size_t, const std::atomic<bool>&)>& body) {
  std::atomic<bool> stop{false};
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body(c, stop);
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  int64_t t0 = NowNs();
  go.store(true, std::memory_order_release);
  if (seconds > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  return static_cast<double>(NowNs() - t0) / 1e9;
}

double MedianSetupSeconds(int count, const std::function<void()>& teardown,
                          const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < std::max(1, count); ++i) {
    teardown();
    int64_t t0 = NowNs();
    setup();
    times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return Median(times);
}

PhaseStats RunPhase(
    size_t clients, double seconds, size_t intervals,
    const std::function<void(size_t, const std::atomic<bool>&, PhaseStats*)>&
        body,
    double* wall_s) {
  int64_t start = NowNs();
  std::vector<PhaseStats> per_client(clients,
                                     PhaseStats(intervals, start, seconds));
  *wall_s = RunClosedLoop(clients, seconds,
                          [&](size_t c, const std::atomic<bool>& stop) {
                            body(c, stop, &per_client[c]);
                          });
  PhaseStats merged;
  for (const PhaseStats& p : per_client) merged.Merge(p);
  return merged;
}

void AddEndToEnd(RunResult* r, const PhaseStats& phase, double tail_q,
                 double wall_s, double decided_share, double setup_s) {
  const size_t k = phase.intervals();
  std::vector<double> p50, tail;
  size_t count = 0;
  for (size_t i = 0; i < k; ++i) {
    const LatencyRecorder& l = phase.latency(i);
    count += l.count();
    if (l.count() == 0) continue;
    p50.push_back(l.QuantileUs(0.5));
    tail.push_back(l.QuantileUs(tail_q));
  }
  double beyond = (1.0 - tail_q) * static_cast<double>(count) /
                  static_cast<double>(k);
  if (beyond < 10.0) {
    std::fprintf(stderr,
                 "warning: only %.1f samples per interval beyond the tail "
                 "percentile\n",
                 beyond);
  }
  r->Add("op_p50_us", Median(p50), "us");
  r->Add("op_tail_us", Median(tail), "us");
  r->Add("ops_per_s", static_cast<double>(count) / wall_s, "1/s");
  r->Add("nodes_per_s", static_cast<double>(phase.nodes()) / wall_s, "1/s");
  r->Add("decided_share", decided_share, "ratio");
  r->Add("peak_rss_mb", PeakRssMb(), "MB");
  r->Add("setup_s", setup_s, "s");
  LatencyRecorder all = phase.All();
  std::fprintf(stderr,
               "ops=%zu wall=%.3fs intervals=%zu op_tail_us is p%g; whole "
               "run p50 %.1f p90 %.1f p95 %.1f p99 %.1f us\n",
               count, wall_s, k, tail_q * 100, all.QuantileUs(0.5),
               all.QuantileUs(0.90), all.QuantileUs(0.95),
               all.QuantileUs(0.99));
}

}  // namespace perfbench
