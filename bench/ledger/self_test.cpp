// --self-test: checks the measuring instruments on synthetic data, without
// training anything. Registered with CTest from bench/ledger/CMakeLists.txt.
#include <cmath>
#include <cstdio>
#include <thread>

#include "ledger.h"

namespace ledger {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("  %-66s %s\n", what, ok ? "ok" : "FAIL");
  if (!ok) ++failures;
}

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

/// A synthetic target that answers instantly except for one 20 ms stall.
/// Requests scheduled during the stall are sent late; timed from their due
/// time they must show the wait, timed from their send they would not.
void stall_test() {
  constexpr std::int64_t kStallNs = 20'000'000;
  noble::Rng rng(7);
  const std::int64_t t0 = now_ns() + 2'000'000;
  const std::vector<std::int64_t> due = poisson_schedule(rng, 2000.0, t0, t0 + 200'000'000);
  const std::size_t stall_at = due.size() / 3;
  std::vector<std::int64_t> sent(due.size()), done(due.size());
  std::vector<double> lag_us;
  dispatch_open_loop(
      due,
      [&](std::size_t i) {
        sent[i] = now_ns();
        if (i == stall_at) std::this_thread::sleep_for(std::chrono::nanoseconds(kStallNs));
        done[i] = now_ns();
      },
      &lag_us);

  const std::int64_t stall_end = done[stall_at];
  std::size_t behind = 0, charged = 0, hidden_from_send = 0;
  double max_due_ms = 0.0;
  for (std::size_t i = stall_at + 1; i < due.size() && due[i] < stall_end; ++i) {
    ++behind;
    const double due_ms = static_cast<double>(done[i] - due[i]) / 1e6;
    const double send_ms = static_cast<double>(done[i] - sent[i]) / 1e6;
    max_due_ms = std::max(max_due_ms, due_ms);
    // Due-time latency covers at least the part of the stall after it fell due.
    if (due_ms + 0.5 >= static_cast<double>(stall_end - due[i]) / 1e6) ++charged;
    if (send_ms < 1.0) ++hidden_from_send;
  }
  std::printf("  stall: %zu requests due during it, worst due-time latency %.2f ms\n",
              behind, max_due_ms);
  expect(behind >= 10, "requests were scheduled behind the injected 20 ms stall");
  expect(charged == behind, "every one of them is charged the stall from its due time");
  // The first request due after the stall began waits out the rest of it.
  const double first_gap_ms = static_cast<double>(due[stall_at + 1] - sent[stall_at]) / 1e6;
  expect(max_due_ms + 0.5 >= 20.0 - first_gap_ms, "the first one behind it waits out the rest");
  expect(hidden_from_send == behind, "timed from its send instead, the stall would vanish");
  expect(lag_us.size() == due.size(), "the dispatcher reports its lateness for every send");
}

void statistics_test() {
  std::vector<double> ramp;
  for (int i = 1; i <= 100; ++i) ramp.push_back(i);
  expect(near(percentile(ramp, 50.0), 50.5, 1e-9), "percentile: p50 of 1..100 is 50.5");
  expect(near(percentile(ramp, 99.0), 99.01, 1e-9), "percentile: p99 of 1..100 is 99.01");
  expect(near(median({5.0, 1.0, 3.0}), 3.0, 1e-12), "median of an odd sample");

  expect(supported_tail_percentile(19) == 0.0, "tail: 19 samples support no percentile");
  expect(supported_tail_percentile(20) == 50.0, "tail: 20 samples support p50");
  expect(supported_tail_percentile(100) == 90.0, "tail: 100 samples support p90");
  expect(supported_tail_percentile(999) == 95.0, "tail: 999 samples support p95");
  expect(supported_tail_percentile(1000) == 99.0, "tail: 1000 samples support p99");
  expect(supported_tail_percentile(10000) == 99.9, "tail: 10000 samples support p99.9");

  // Five 1 s windows; window w holds latencies {w+1, ..., w+1 + 10*w} ms.
  WindowPlan plan;
  plan.start_ns = 1'000'000'000;
  plan.window_ns = 1'000'000'000;
  plan.windows = 5;
  std::vector<Sample> samples;
  for (int w = 0; w < 5; ++w) {
    for (int k = 0; k <= 10 * w; ++k) {
      const std::int64_t done = plan.start_ns + w * plan.window_ns + 1000 * k;
      const std::int64_t latency = (w + 1 + k) * 1'000'000LL;
      samples.push_back(Sample{Kind::kFix, done - latency, done});
    }
  }
  // Outside the windows: must be ignored.
  samples.push_back(Sample{Kind::kFix, 0, plan.start_ns - 1});
  samples.push_back(Sample{Kind::kFix, 0, plan.end_ns()});
  const WindowStats w = window_stats(samples, plan);
  // Window w's median latency is w+1 + 5w ms = 1, 7, 13, 19, 25 ms.
  const std::vector<double> want = {1000.0, 7000.0, 13000.0, 19000.0, 25000.0};
  bool windows_ok = w.p50_us.size() == 5;
  for (std::size_t i = 0; windows_ok && i < 5; ++i) windows_ok = near(w.p50_us[i], want[i], 1e-6);
  expect(windows_ok, "window medians on known data");
  expect(near(median(w.p50_us), 13000.0, 1e-6), "median of window medians");
  expect(near(w.per_s[4], 41.0, 1e-9), "per-window completion rate");
  expect(w.pooled_us.size() == 1 + 11 + 21 + 31 + 41, "samples outside the windows ignored");
}

}  // namespace

int run_self_test() {
  const std::int64_t start = now_ns();
  std::printf("noble_ledger self-test\n");
  stall_test();
  statistics_test();
  std::printf("%s (%.2f s)\n", failures == 0 ? "OK" : "FAIL",
              static_cast<double>(now_ns() - start) / 1e9);
  return failures == 0 ? 0 : 1;
}

}  // namespace ledger
