#include "engine/backend.h"

namespace noble::engine {

namespace {

std::shared_ptr<const serve::OptimizedNetwork> plan_for(
    const serve::WifiLocalizer& localizer, PlanBackend::Precision precision) {
  // fp32 reuses the plan the localizer compiled at load; int8 is the one
  // extra compile, done once here.
  return precision == PlanBackend::Precision::kFloat32
             ? localizer.plan()
             : serve::optimize_network(localizer.model().network(), precision);
}

}  // namespace

PlanBackend::PlanBackend(const serve::WifiLocalizer& localizer, Precision precision)
    : localizer_(std::make_shared<const serve::WifiLocalizer>(
          serve::WifiLocalizer::from_model(localizer.model()))),
      plan_(plan_for(*localizer_, precision)) {}

std::vector<serve::Fix> PlanBackend::locate_batch(
    std::span<const serve::RssiVector> queries) const {
  std::vector<serve::Fix> out;
  if (queries.empty()) return out;
  const linalg::Mat logits = plan_->predict(localizer_->featurize(queries));
  out.reserve(queries.size());
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    out.push_back(localizer_->decode_logits(logits.row(i)));
  }
  return out;
}

std::string PlanBackend::name() const {
  return std::string(precision_name(plan_->precision()));
}

std::string_view precision_name(serve::OptimizedNetwork::Precision precision) {
  return precision == serve::OptimizedNetwork::Precision::kInt8 ? "quantized" : "dense";
}

}  // namespace noble::engine
