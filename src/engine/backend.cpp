#include "engine/backend.h"

namespace noble::engine {

PlanBackend::PlanBackend(const serve::WifiLocalizer& localizer)
    : localizer_(std::make_shared<const serve::WifiLocalizer>(
          serve::WifiLocalizer::from_model(localizer.model()))) {}

std::vector<serve::Fix> PlanBackend::locate_batch(
    std::span<const serve::RssiVector> queries) const {
  return localizer_->locate_batch(queries);
}

}  // namespace noble::engine
