// End-to-end integration tests on small synthetic experiments: the models
// must train, beat chance decisively, and NObLe must out-structure Deep
// Regression — the paper's central claim, verified at test scale.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/baselines.h"
#include "core/evaluate.h"
#include "core/experiment.h"
#include "core/noble_imu.h"
#include "core/noble_wifi.h"
#include "serve/wifi_localizer.h"

namespace noble::core {
namespace {

/// Small, fast Wi-Fi experiment shared by the tests in this file.
const WifiExperiment& small_uji() {
  static const WifiExperiment exp = [] {
    WifiExperimentConfig cfg;
    cfg.total_samples = 1600;
    cfg.seed = 77;
    return make_uji_experiment(cfg);
  }();
  return exp;
}

NobleWifiConfig small_noble_config() {
  NobleWifiConfig cfg;
  cfg.quantize.tau = 6.0;
  cfg.quantize.coarse_l = 24.0;
  cfg.epochs = 10;
  cfg.hidden_units = 64;
  return cfg;
}

TEST(NobleWifi, TrainsAndPredictsReasonably) {
  const auto& exp = small_uji();
  NobleWifiModel model(small_noble_config());
  const auto result = model.fit(exp.split.train, &exp.split.val);
  EXPECT_GT(result.epochs_run, 0u);
  // Training loss must decrease.
  EXPECT_LT(result.train_loss_history.back(), result.train_loss_history.front());

  auto preds = model.predict(exp.split.test);
  ASSERT_EQ(preds.size(), exp.split.test.size());
  const auto report = evaluate_wifi(preds, exp.split.test, model.quantizer(),
                                    &exp.world.plan);
  // Building classification is nearly free with distinct APs per building.
  EXPECT_GT(report.building_accuracy, 0.9);
  // Mean error far below the campus diagonal (~480 m) and below random
  // guessing within a building (~50 m).
  EXPECT_LT(report.errors.mean, 30.0);
  // Structure: cell centers of occupied cells are near corridors.
  EXPECT_GT(report.structure_score, 0.8);
}

TEST(NobleWifi, PredictionsLandOnOccupiedCells) {
  const auto& exp = small_uji();
  NobleWifiModel model(small_noble_config());
  model.fit(exp.split.train);
  const auto preds = model.predict(exp.split.test);
  for (const auto& p : preds) {
    EXPECT_GE(p.fine_class, 0);
    EXPECT_LT(p.fine_class, static_cast<int>(model.quantizer().num_fine_classes()));
  }
}

TEST(NobleWifi, BeatsDeepRegressionOnStructure) {
  const auto& exp = small_uji();
  NobleWifiModel noble(small_noble_config());
  noble.fit(exp.split.train, &exp.split.val);
  const auto noble_report = evaluate_wifi(noble.predict(exp.split.test), exp.split.test,
                                          noble.quantizer(), &exp.world.plan);

  RegressionConfig rcfg;
  rcfg.epochs = 10;
  rcfg.hidden_units = 64;
  DeepRegressionWifi reg(rcfg);
  reg.fit(exp.split.train, &exp.split.val);
  const auto reg_report =
      evaluate_positions(reg.predict(exp.split.test), exp.split.test, &exp.world.plan);

  // The paper's Fig. 4 claim, quantified: NObLe predictions respect the
  // map structure far more often than unconstrained regression.
  EXPECT_GT(noble_report.structure_score, reg_report.structure_score + 0.1);
  // And the headline: lower error (generous slack at this tiny scale).
  EXPECT_LT(noble_report.errors.median, reg_report.errors.median * 1.2);
}

TEST(NobleWifi, SameSeedsTrainTheSameArtifactDigest) {
  // Training is a pure function of its config and data: a process that
  // refits from the same seeds serves the same artifact as the original.
  const auto& exp = small_uji();
  NobleWifiConfig cfg = small_noble_config();
  cfg.epochs = 2;
  const auto digest_of = [&](const NobleWifiConfig& config) {
    NobleWifiModel model(config);
    model.fit(exp.split.train, &exp.split.val);
    return serve::WifiLocalizer::from_model(model).artifact_digest();
  };
  const std::uint64_t first = digest_of(cfg);
  EXPECT_EQ(digest_of(cfg), first);
  cfg.seed += 1;
  EXPECT_NE(digest_of(cfg), first) << "the digest must see the weights";
}

TEST(RegressionProjection, OutputsAreAlwaysAccessible) {
  const auto& exp = small_uji();
  RegressionConfig rcfg;
  rcfg.epochs = 6;
  rcfg.hidden_units = 32;
  RegressionProjectionWifi proj(rcfg, exp.world.plan);
  proj.fit(exp.split.train);
  const auto points = proj.predict(exp.split.test);
  std::size_t accessible = 0;
  for (const auto& p : points) {
    if (exp.world.plan.accessible(p)) ++accessible;
  }
  // Projection lands on the boundary; allow a sliver of numeric misses.
  EXPECT_GT(static_cast<double>(accessible) / static_cast<double>(points.size()), 0.95);
}

TEST(KnnFingerprint, CompetitiveAndPredictsBuildings) {
  const auto& exp = small_uji();
  KnnFingerprintWifi knn(5);
  knn.fit(exp.split.train);
  std::vector<int> b, f;
  const auto points = knn.predict(exp.split.test, &b, &f);
  const auto report = evaluate_positions(points, exp.split.test, &exp.world.plan);
  EXPECT_LT(report.errors.mean, 25.0);
  std::vector<int> tb;
  for (const auto& s : exp.split.test.samples) tb.push_back(s.building);
  EXPECT_GT(data::hit_rate(b, tb), 0.9);
}

TEST(ManifoldRegression, IsomapVariantTrains) {
  const auto& exp = small_uji();
  ManifoldRegressionConfig mcfg;
  mcfg.method = ManifoldMethod::kIsomap;
  mcfg.embedding_dim = 16;
  mcfg.fit_subsample = 400;
  mcfg.regression.epochs = 8;
  mcfg.regression.hidden_units = 32;
  ManifoldRegressionWifi model(mcfg);
  model.fit(exp.split.train);
  const auto report =
      evaluate_positions(model.predict(exp.split.test), exp.split.test, &exp.world.plan);
  EXPECT_LT(report.errors.mean, 60.0);  // sane, not degenerate
}

TEST(ManifoldRegression, LleVariantTrains) {
  const auto& exp = small_uji();
  ManifoldRegressionConfig mcfg;
  mcfg.method = ManifoldMethod::kLle;
  mcfg.embedding_dim = 16;
  mcfg.fit_subsample = 400;
  mcfg.regression.epochs = 8;
  mcfg.regression.hidden_units = 32;
  ManifoldRegressionWifi model(mcfg);
  model.fit(exp.split.train);
  const auto report =
      evaluate_positions(model.predict(exp.split.test), exp.split.test, &exp.world.plan);
  EXPECT_LT(report.errors.mean, 60.0);
}

/// Small, fast IMU experiment.
const ImuExperiment& small_imu() {
  static const ImuExperiment exp = [] {
    ImuExperimentConfig cfg;
    cfg.num_paths = 700;
    cfg.total_walk_time_s = 1500.0;
    cfg.readings_per_segment = 16;
    cfg.imu.ref_interval_s = 15.0;
    cfg.seed = 88;
    return make_imu_experiment(cfg);
  }();
  return exp;
}

TEST(NobleImu, TrainsAndBeatsChance) {
  const auto& exp = small_imu();
  NobleImuConfig cfg;
  cfg.quantize.tau = 2.0;
  cfg.epochs = 15;
  cfg.projection_dim = 8;
  NobleImuTracker tracker(cfg);
  const auto result = tracker.fit(exp.split.train);
  EXPECT_LT(result.class_loss_history.back(), result.class_loss_history.front());
  EXPECT_LT(result.displacement_loss_history.back(),
            result.displacement_loss_history.front());

  const auto preds = tracker.predict(exp.split.test);
  const auto report = evaluate_imu(positions_of(preds), exp.split.test,
                                   &exp.world.walkways);
  // Track is 160 x 60; guessing the far side of the loop costs ~100 m and a
  // start-anchored guess ~40-60 m at these path lengths. The full-scale
  // margin is exercised in bench/table3_imu; this is a smoke bound.
  EXPECT_LT(report.errors.mean, 35.0);
  EXPECT_GT(report.structure_score, 0.8);
}

TEST(NobleImu, DisplacementHeadLearnsDirection) {
  const auto& exp = small_imu();
  NobleImuConfig cfg;
  cfg.quantize.tau = 2.0;
  cfg.epochs = 8;
  cfg.projection_dim = 8;
  NobleImuTracker tracker(cfg);
  tracker.fit(exp.split.train);
  const auto preds = tracker.predict(exp.split.test);
  // Predicted displacement should correlate with the true displacement.
  double dot_sum = 0.0, norm_pred = 0.0, norm_true = 0.0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    const geo::Point2 t = exp.split.test.paths[i].end - exp.split.test.paths[i].start;
    dot_sum += preds[i].displacement.dot(t);
    norm_pred += preds[i].displacement.dot(preds[i].displacement);
    norm_true += t.dot(t);
  }
  const double cosine = dot_sum / (std::sqrt(norm_pred) * std::sqrt(norm_true) + 1e-12);
  EXPECT_GT(cosine, 0.5);
}

TEST(MapDeadReckoning, BetterThanNothingAndOnMap) {
  const auto& exp = small_imu();
  MapAssistedDeadReckoning::Config cfg;
  MapAssistedDeadReckoning dr(cfg, exp.world.walkways);
  dr.fit(exp.split.train);
  const auto points = dr.predict(exp.split.test);
  const auto report = evaluate_imu(points, exp.split.test, &exp.world.walkways);
  // Snapping guarantees on-map predictions.
  EXPECT_GT(report.structure_score, 0.99);
  EXPECT_LT(report.errors.mean, 40.0);
}

TEST(DeepRegressionImu, TrainsSane) {
  const auto& exp = small_imu();
  RegressionConfig rcfg;
  rcfg.epochs = 8;
  rcfg.hidden_units = 64;
  DeepRegressionImu reg(rcfg);
  reg.fit(exp.split.train);
  const auto report = evaluate_imu(reg.predict(exp.split.test), exp.split.test,
                                   &exp.world.walkways);
  EXPECT_LT(report.errors.mean, 40.0);
}

}  // namespace
}  // namespace noble::core
