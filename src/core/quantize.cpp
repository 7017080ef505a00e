#include "core/quantize.h"

#include "common/check.h"

namespace noble::core {

void SpaceQuantizer::fit(const std::vector<geo::Point2>& positions,
                         const QuantizeConfig& config) {
  NOBLE_EXPECTS(!positions.empty());
  NOBLE_EXPECTS(config.tau > 0.0);
  NOBLE_EXPECTS(!config.use_coarse || config.coarse_l > config.tau);
  NOBLE_EXPECTS(config.adjacency_ring >= 1);
  NOBLE_EXPECTS(config.adjacency_value >= 0.0f && config.adjacency_value <= 1.0f);
  config_ = config;
  fine_.fit(positions, config.tau);
  fine_to_coarse_.clear();
  if (config.use_coarse) {
    coarse_.fit(positions, config.coarse_l);
    fine_to_coarse_.resize(fine_.num_classes());
    for (std::size_t c = 0; c < fine_.num_classes(); ++c) {
      fine_to_coarse_[c] = coarse_.nearest_class(fine_.center(static_cast<int>(c)));
    }
  }
  fitted_ = true;
}

void SpaceQuantizer::restore(const QuantizeConfig& config,
                             const geo::GridQuantizerState& fine,
                             const geo::GridQuantizerState* coarse) {
  NOBLE_EXPECTS(config.tau > 0.0);
  NOBLE_EXPECTS(config.use_coarse == (coarse != nullptr));
  config_ = config;
  fine_.restore_state(fine);
  coarse_ = geo::GridQuantizer();
  fine_to_coarse_.clear();
  if (coarse != nullptr) {
    coarse_.restore_state(*coarse);
    fine_to_coarse_.resize(fine_.num_classes());
    for (std::size_t c = 0; c < fine_.num_classes(); ++c) {
      fine_to_coarse_[c] = coarse_.nearest_class(fine_.center(static_cast<int>(c)));
    }
  }
  fitted_ = true;
}

LabelLayout SpaceQuantizer::layout(std::size_t num_buildings,
                                   std::size_t num_floors) const {
  NOBLE_EXPECTS(fitted_);
  LabelLayout l;
  l.num_buildings = num_buildings;
  l.num_floors = num_floors;
  l.num_fine = fine_.num_classes();
  l.num_coarse = config_.use_coarse ? coarse_.num_classes() : 0;
  return l;
}

linalg::Mat SpaceQuantizer::build_targets(const LabelLayout& layout,
                                          const std::vector<geo::Point2>& positions,
                                          const std::vector<int>& buildings,
                                          const std::vector<int>& floors) const {
  NOBLE_EXPECTS(fitted_);
  NOBLE_EXPECTS(buildings.empty() || buildings.size() == positions.size());
  NOBLE_EXPECTS(floors.empty() || floors.size() == positions.size());
  NOBLE_EXPECTS(layout.num_buildings == 0 || !buildings.empty());
  NOBLE_EXPECTS(layout.num_floors == 0 || !floors.empty());

  linalg::Mat t(positions.size(), layout.total());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    float* row = t.row(i);
    if (layout.num_buildings > 0) {
      const int b = buildings[i];
      NOBLE_EXPECTS(b >= 0 && static_cast<std::size_t>(b) < layout.num_buildings);
      row[layout.building_offset() + static_cast<std::size_t>(b)] = 1.0f;
    }
    if (layout.num_floors > 0) {
      const int f = floors[i];
      NOBLE_EXPECTS(f >= 0 && static_cast<std::size_t>(f) < layout.num_floors);
      row[layout.floor_offset() + static_cast<std::size_t>(f)] = 1.0f;
    }
    const int c = fine_.nearest_class(positions[i]);
    row[layout.fine_offset() + static_cast<std::size_t>(c)] = 1.0f;
    if (config_.adjacency_labels) {
      for (int nb : fine_.neighbor_classes(positions[i], config_.adjacency_ring)) {
        float& cell = row[layout.fine_offset() + static_cast<std::size_t>(nb)];
        if (cell < config_.adjacency_value) cell = config_.adjacency_value;
      }
    }
    if (layout.num_coarse > 0) {
      const int r = coarse_.nearest_class(positions[i]);
      row[layout.coarse_offset() + static_cast<std::size_t>(r)] = 1.0f;
    }
  }
  return t;
}

namespace {

int argmax_block(const float* logits, std::size_t offset, std::size_t count) {
  int best = 0;
  float best_v = logits[offset];
  for (std::size_t j = 1; j < count; ++j) {
    if (logits[offset + j] > best_v) {
      best_v = logits[offset + j];
      best = static_cast<int>(j);
    }
  }
  return best;
}

}  // namespace

DecodedPrediction SpaceQuantizer::decode(const LabelLayout& layout,
                                         const float* logits) const {
  NOBLE_EXPECTS(fitted_);
  DecodedPrediction out;
  if (layout.num_buildings > 0) {
    out.building = argmax_block(logits, layout.building_offset(), layout.num_buildings);
  }
  if (layout.num_floors > 0) {
    out.floor = argmax_block(logits, layout.floor_offset(), layout.num_floors);
  }
  out.fine_class = argmax_block(logits, layout.fine_offset(), layout.num_fine);
  out.position = fine_.center(out.fine_class);
  if (layout.num_coarse > 0) {
    out.coarse_class = argmax_block(logits, layout.coarse_offset(), layout.num_coarse);
  }
  return out;
}

DecodedPrediction SpaceQuantizer::decode_hierarchical(const LabelLayout& layout,
                                                      const float* logits) const {
  NOBLE_EXPECTS(fitted_);
  NOBLE_EXPECTS(layout.num_coarse > 0);
  DecodedPrediction out = decode(layout, logits);
  // Restrict the fine argmax to the predicted coarse cell.
  int best = -1;
  float best_v = 0.0f;
  for (std::size_t c = 0; c < layout.num_fine; ++c) {
    if (fine_to_coarse_[c] != out.coarse_class) continue;
    const float v = logits[layout.fine_offset() + c];
    if (best < 0 || v > best_v) {
      best = static_cast<int>(c);
      best_v = v;
    }
  }
  if (best >= 0) {
    out.fine_class = best;
    out.position = fine_.center(best);
  }
  return out;
}

}  // namespace noble::core
