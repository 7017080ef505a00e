#include "obs/trace.h"

#include <chrono>

#include "common/config.h"

namespace noble::obs {

namespace {

constexpr Mark kStageStart[kNumStages] = {Mark::kRecv,     Mark::kSubmit,
                                          Mark::kAdmitted, Mark::kDequeued,
                                          Mark::kAssembled, Mark::kComputed};
constexpr Mark kStageEnd[kNumStages] = {Mark::kSubmit,    Mark::kAdmitted,
                                        Mark::kDequeued,  Mark::kAssembled,
                                        Mark::kComputed,  Mark::kResponded};

}  // namespace

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kDecode: return "decode";
    case Stage::kAdmission: return "admission";
    case Stage::kQueueWait: return "queue_wait";
    case Stage::kBatchAssembly: return "batch_assembly";
    case Stage::kCompute: return "compute";
    case Stage::kRespond: return "respond";
    case Stage::kNumStages: break;
  }
  return "?";
}

std::uint64_t Trace::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Trace::stage_us(Stage stage) const {
  const std::uint64_t a = mark_ns(kStageStart[static_cast<std::size_t>(stage)]);
  const std::uint64_t b = mark_ns(kStageEnd[static_cast<std::size_t>(stage)]);
  if (a == 0 || b == 0 || b < a) return -1.0;
  return static_cast<double>(b - a) * 1e-3;
}

double Trace::e2e_us() const {
  const std::uint64_t start =
      mark_ns(Mark::kRecv) != 0 ? mark_ns(Mark::kRecv) : mark_ns(Mark::kSubmit);
  const std::uint64_t end = mark_ns(Mark::kResponded);
  if (start == 0 || end == 0 || end < start) return -1.0;
  return static_cast<double>(end - start) * 1e-3;
}

Tracer::Tracer(Registry& registry) {
  for (std::size_t i = 0; i < kNumStages; ++i) {
    stage_hist_[i] =
        &registry.histogram("noble_stage_latency_us", Histogram::latency_us(),
                            {{"stage", stage_name(static_cast<Stage>(i))}});
  }
  e2e_hist_ = &registry.histogram("noble_trace_e2e_us", Histogram::latency_us());
  started_ = &registry.counter("noble_traces_started");
  finished_ = &registry.counter("noble_traces_finished");
}

Tracer& Tracer::global() {
  static Tracer* instance = [] {
    auto* t = new Tracer(Registry::global());
    t->set_enabled(env_int("NOBLE_TRACE", 1) != 0);
    return t;
  }();
  return *instance;
}

std::shared_ptr<Trace> Tracer::start(std::uint64_t id) {
  if (!enabled()) return nullptr;
  auto trace = std::make_shared<Trace>();
  trace->id = id;
  started_->inc();
  return trace;
}

void Tracer::finish(const Trace& trace) {
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const double us = trace.stage_us(static_cast<Stage>(i));
    if (us >= 0.0) stage_hist_[i]->record(us);
  }
  const double e2e = trace.e2e_us();
  if (e2e >= 0.0) e2e_hist_->record(e2e);
  finished_->inc();
}

}  // namespace noble::obs
