// Clocks, exact-sample statistics, windows and the span recorder.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "ledger.h"

namespace ledger {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void wait_until_ns(std::int64_t due_ns) {
  constexpr std::int64_t kSpinNs = 200'000;
  const std::int64_t sleep_to = due_ns - kSpinNs;
  if (now_ns() < sleep_to) {
    std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(sleep_to)));
  }
  while (now_ns() < due_ns) {
  }
}

double supported_tail_percentile(std::size_t n) {
  for (double q : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    // Samples strictly beyond the q-th percentile of n.
    const double beyond = static_cast<double>(n) * (100.0 - q) / 100.0;
    if (beyond >= 10.0 - 1e-9) return q;
  }
  return 0.0;
}

std::vector<noble::Histogram> stage_histograms() {
  using noble::obs::Stage;
  const noble::obs::MetricsSnapshot snap = noble::obs::Registry::global().collect();
  std::vector<noble::Histogram> out;
  for (std::size_t s = 0; s < noble::obs::kNumStages; ++s) {
    out.push_back(noble::Histogram::latency_us());
    const noble::obs::MetricSample* sample =
        snap.find("noble_stage_latency_us",
                  {{"stage", noble::obs::stage_name(static_cast<Stage>(s))}});
    if (sample != nullptr && sample->hist && sample->hist->same_layout(out.back())) {
      out.back() = *sample->hist;
    }
  }
  return out;
}

double stage_p50_between(const std::vector<noble::Histogram>& before,
                         const std::vector<noble::Histogram>& after, noble::obs::Stage stage,
                         std::uint64_t* n) {
  const auto s = static_cast<std::size_t>(stage);
  noble::Histogram delta = after[s];
  delta.subtract(before[s]);
  *n = delta.count();
  return delta.count() == 0 ? 0.0 : delta.percentile(50.0);
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kFix:
      return "fix";
    case Kind::kBulk:
      return "bulk";
    case Kind::kTrack:
      return "track";
  }
  return "?";
}

void Outcome::merge(const Outcome& o) {
  attempted += o.attempted;
  refused += o.refused;
  expired += o.expired;
  transport += o.transport;
  mismatches += o.mismatches;
}

std::vector<std::int64_t> poisson_schedule(noble::Rng& rng, double rate_per_s,
                                           std::int64_t t0_ns, std::int64_t end_ns) {
  std::vector<std::int64_t> due;
  double t_s = 0.0;
  for (;;) {
    t_s += -std::log(std::max(1e-12, rng.uniform())) / rate_per_s;
    const std::int64_t at = t0_ns + static_cast<std::int64_t>(t_s * 1e9);
    if (at >= end_ns) return due;
    due.push_back(at);
  }
}

void dispatch_open_loop(const std::vector<std::int64_t>& due_ns,
                        const std::function<void(std::size_t)>& send,
                        std::vector<double>* lag_us) {
  for (std::size_t i = 0; i < due_ns.size(); ++i) {
    wait_until_ns(due_ns[i]);
    lag_us->push_back(static_cast<double>(now_ns() - due_ns[i]) / 1e3);
    send(i);
  }
}

CpuTicks read_cpu_ticks() {
  CpuTicks out;
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return out;
  unsigned long long f[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  // cpu  user nice system idle iowait irq softirq steal ...
  if (std::fscanf(stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &f[0], &f[1], &f[2],
                  &f[3], &f[4], &f[5], &f[6], &f[7]) == 8) {
    for (unsigned long long v : f) out.total += v;
    out.steal = f[7];
  }
  std::fclose(stat);
  return out;
}

int WindowPlan::window_of(std::int64_t t_ns) const {
  if (t_ns < start_ns || t_ns >= end_ns() || window_ns <= 0) return -1;
  return static_cast<int>((t_ns - start_ns) / window_ns);
}

WindowStats window_stats(const std::vector<Sample>& samples, const WindowPlan& plan) {
  const auto windows = static_cast<std::size_t>(plan.windows);
  std::vector<std::vector<double>> all(windows);
  std::vector<std::vector<double>> by_kind[kNumKinds];
  for (auto& k : by_kind) k.resize(windows);
  WindowStats out;
  for (const Sample& s : samples) {
    const int w = plan.window_of(s.done_ns);
    if (w < 0) continue;
    const double us = static_cast<double>(s.done_ns - s.due_ns) / 1e3;
    all[static_cast<std::size_t>(w)].push_back(us);
    by_kind[static_cast<std::size_t>(s.kind)][static_cast<std::size_t>(w)].push_back(us);
    out.pooled_us.push_back(us);
    ++out.kind_count[static_cast<std::size_t>(s.kind)];
  }
  const double window_s = static_cast<double>(plan.window_ns) / 1e9;
  for (std::size_t w = 0; w < windows; ++w) {
    out.p50_us.push_back(median(all[w]));
    out.per_s.push_back(static_cast<double>(all[w].size()) / window_s);
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      if (out.kind_count[k] == 0) continue;
      out.kind_p50_us[k].push_back(median(by_kind[k][w]));
      out.kind_per_s[k].push_back(static_cast<double>(by_kind[k][w].size()) / window_s);
    }
  }
  std::sort(out.pooled_us.begin(), out.pooled_us.end());
  return out;
}

// --- spans -------------------------------------------------------------------

SpanLog::SpanLog(std::uint32_t tid, std::size_t capacity) : tid_(tid), capacity_(capacity) {
  spans_.reserve(capacity);
}

void SpanLog::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                  std::uint64_t id, std::uint64_t parent) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{name, start_ns, end_ns, id, parent, tid_});
}

SpanLog* SpanSink::thread_log() {
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(
      std::make_unique<SpanLog>(static_cast<std::uint32_t>(logs_.size() + 1), capacity_));
  return logs_.back().get();
}

std::uint64_t SpanSink::total_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t dropped = 0;
  for (const auto& log : logs_) dropped += log->dropped();
  return dropped;
}

bool SpanSink::write_chrome_json(const std::string& path, std::int64_t origin_ns) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu}}",
                   first ? "" : ",", s.name, static_cast<unsigned>(s.tid),
                   static_cast<double>(s.start_ns - origin_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
      first = false;
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace ledger
