// NObLe space quantization and multi-label target assembly (§III-B, §IV-A).
//
// The output layer of a NObLe model is the concatenation of label blocks:
//   [ buildings | floors | fine classes c | coarse classes r ]
// trained jointly with binary cross-entropy on multi-hot targets. This module
// owns the geometry-to-label mapping: fitting the grid quantizers, building
// multi-hot target matrices (optionally with adjacency soft labels), and
// decoding predicted logits back to (building, floor, position).
#ifndef NOBLE_CORE_QUANTIZE_H_
#define NOBLE_CORE_QUANTIZE_H_

#include <vector>

#include "geo/grid.h"
#include "linalg/matrix.h"

namespace noble::core {

/// Quantization hyperparameters (ablatable; see DESIGN.md §5).
struct QuantizeConfig {
  /// Fine cell side tau in meters (paper: < 0.2 m on real UJI; default is
  /// coarser so the synthetic substrate trains in seconds — see DESIGN.md).
  double tau = 3.0;
  /// Coarse cell side l > tau for the hierarchical head r.
  double coarse_l = 12.0;
  /// Include the coarse label block.
  bool use_coarse = true;
  /// Mark occupied cells adjacent to the true cell as additional positives
  /// (the paper's remedy for class sparsity).
  bool adjacency_labels = true;
  /// Chebyshev ring radius of the adjacency neighborhood.
  int adjacency_ring = 1;
  /// Target value given to adjacent-cell positives (1.0 = full positives).
  float adjacency_value = 0.5f;

  bool operator==(const QuantizeConfig&) const = default;
};

/// Layout of the concatenated multi-label output vector.
struct LabelLayout {
  std::size_t num_buildings = 0;
  std::size_t num_floors = 0;
  std::size_t num_fine = 0;
  std::size_t num_coarse = 0;

  std::size_t building_offset() const { return 0; }
  std::size_t floor_offset() const { return num_buildings; }
  std::size_t fine_offset() const { return num_buildings + num_floors; }
  std::size_t coarse_offset() const { return fine_offset() + num_fine; }
  std::size_t total() const { return coarse_offset() + num_coarse; }
};

/// Decoded prediction for one sample.
struct DecodedPrediction {
  int building = -1;  ///< -1 when the layout has no building block.
  int floor = -1;     ///< -1 when the layout has no floor block.
  int fine_class = 0;
  int coarse_class = -1;
  geo::Point2 position;  ///< center of the predicted fine cell.
};

/// Fitted quantization state shared by models and benchmarks.
class SpaceQuantizer {
 public:
  SpaceQuantizer() = default;

  /// Fits fine (and optionally coarse) grids on training positions.
  void fit(const std::vector<geo::Point2>& positions, const QuantizeConfig& config);

  /// Rebuilds a fitted quantizer from exported grid snapshots — the serve
  /// artifact load path, which has no training positions. `coarse` must be
  /// non-null exactly when `config.use_coarse`; the fine-to-coarse map is
  /// recomputed from the restored grids.
  void restore(const QuantizeConfig& config, const geo::GridQuantizerState& fine,
               const geo::GridQuantizerState* coarse);

  bool fitted() const { return fitted_; }
  const QuantizeConfig& config() const { return config_; }
  const geo::GridQuantizer& fine() const { return fine_; }
  const geo::GridQuantizer& coarse() const { return coarse_; }
  std::size_t num_fine_classes() const { return fine_.num_classes(); }
  std::size_t num_coarse_classes() const {
    return config_.use_coarse ? coarse_.num_classes() : 0;
  }

  /// Layout for a model that also predicts buildings/floors (either may be 0).
  LabelLayout layout(std::size_t num_buildings, std::size_t num_floors) const;

  /// Multi-hot targets for positions (+ per-sample building/floor ids when
  /// the layout includes those blocks). All vectors must have equal length;
  /// pass empty vectors to skip a block.
  linalg::Mat build_targets(const LabelLayout& layout,
                            const std::vector<geo::Point2>& positions,
                            const std::vector<int>& buildings,
                            const std::vector<int>& floors) const;

  /// Argmax decode of one logits row under `layout`; the position is the
  /// predicted fine cell's center (the paper's inference lookup).
  DecodedPrediction decode(const LabelLayout& layout, const float* logits) const;

  /// Hierarchical decode (§III-B multi-granularity): first argmax the coarse
  /// block, then restrict the fine argmax to fine cells lying inside the
  /// predicted coarse cell (falling back to the unrestricted argmax when the
  /// restriction is empty). Requires a layout with a coarse block.
  DecodedPrediction decode_hierarchical(const LabelLayout& layout,
                                        const float* logits) const;

  /// Ground-truth fine class of a position (nearest occupied cell).
  int fine_class_of(const geo::Point2& p) const { return fine_.nearest_class(p); }

 private:
  QuantizeConfig config_;
  geo::GridQuantizer fine_;
  geo::GridQuantizer coarse_;
  /// fine class id -> coarse class id of its cell center (built on fit when
  /// the coarse level exists).
  std::vector<int> fine_to_coarse_;
  bool fitted_ = false;
};

}  // namespace noble::core

#endif  // NOBLE_CORE_QUANTIZE_H_
