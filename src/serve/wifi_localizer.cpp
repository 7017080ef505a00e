#include "serve/wifi_localizer.h"

#include <cmath>
#include <utility>

#include "common/hash.h"
#include "data/preprocess.h"
#include "serve/artifact.h"

namespace noble::serve {

WifiLocalizer::WifiLocalizer(core::NobleWifiModel model) : model_(std::move(model)) {
  NOBLE_EXPECTS(model_.fitted());
  plan_ = optimize_network(model_.network());
  // Serialized-artifact bytes are the canonical identity: a loaded artifact
  // and its in-memory original digest identically, and retraining (new
  // weights) always changes the bytes.
  artifact_digest_ = common::fnv1a64(encode_model(model_));
}

WifiLocalizer WifiLocalizer::from_model(const core::NobleWifiModel& model) {
  auto clone = decode_wifi_model(encode_model(model));
  NOBLE_CHECK(clone.has_value());  // a fitted model always round-trips
  return WifiLocalizer(std::move(*clone));
}

std::optional<WifiLocalizer> WifiLocalizer::load(const std::string& path) {
  auto model = load_wifi_model(path);
  if (!model.has_value()) return std::nullopt;
  return WifiLocalizer(std::move(*model));
}

linalg::Mat WifiLocalizer::featurize(std::span<const RssiVector> queries) const {
  linalg::Mat raw(queries.size(), model_.input_dim());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    NOBLE_EXPECTS(queries[i].size() == model_.input_dim());
    float* row = raw.row(i);
    for (std::size_t j = 0; j < queries[i].size(); ++j) row[j] = queries[i][j];
  }
  return data::normalize_rssi(raw, model_.config().representation);
}

Fix WifiLocalizer::decode_logits(const float* logits) const {
  const core::LabelLayout& layout = model_.layout();
  const bool hierarchical =
      model_.config().hierarchical_decode && layout.num_coarse > 0;
  const core::DecodedPrediction d =
      hierarchical ? model_.quantizer().decode_hierarchical(layout, logits)
                   : model_.quantizer().decode(layout, logits);
  Fix fix;
  fix.building = d.building;
  fix.floor = d.floor;
  fix.fine_class = d.fine_class;
  fix.position = d.position;
  const double logit =
      logits[layout.fine_offset() + static_cast<std::size_t>(d.fine_class)];
  fix.confidence = 1.0 / (1.0 + std::exp(-logit));
  return fix;
}

Fix WifiLocalizer::locate(const RssiVector& rssi) const {
  const linalg::Mat logits =
      plan_->predict(featurize(std::span<const RssiVector>(&rssi, 1)));
  return decode_logits(logits.row(0));
}

std::vector<Fix> WifiLocalizer::locate_batch(std::span<const RssiVector> queries) const {
  std::vector<Fix> out;
  if (queries.empty()) return out;
  const linalg::Mat logits = plan_->predict(featurize(queries));
  out.reserve(queries.size());
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    out.push_back(decode_logits(logits.row(i)));
  }
  return out;
}

}  // namespace noble::serve
