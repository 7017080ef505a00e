// Gateway tour — the serving stack from the socket in:
//  1. train a NObLe Wi-Fi model and an IMU tracker on synthetic substrates,
//  2. stand up a fleet::Router (one shard, sessions enabled) behind a
//     gateway::Listener on an ephemeral loopback port,
//  3. connect a GatewayClient and drive all three traffic shapes —
//     interactive scans, bulk scans with a deadline, and a streamed IMU
//     tracking session,
//  4. gate: every fix that came over the wire must be bit-identical
//     (Fix::operator==) to direct in-process inference — the codec moves
//     exact bit patterns, the engine stack never re-derives a result,
//  5. print the gateway's scrape page (counters + fleet stats + queue
//     depths).
//
// Exits non-zero on any mismatch or protocol hiccup, so the smoke tier
// doubles as an end-to-end wire-vs-direct equivalence check.
//
// Run: ./example_gateway_roundtrip
#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/noble_imu.h"
#include "core/noble_wifi.h"
#include "fleet/router.h"
#include "gateway/client.h"
#include "gateway/gateway.h"
#include "serve/imu_localizer.h"
#include "serve/wifi_localizer.h"

namespace {

std::vector<noble::serve::ImuSegment> segments_of(const noble::data::ImuPath& path,
                                                  std::size_t segment_dim) {
  std::vector<noble::serve::ImuSegment> out;
  out.reserve(path.num_segments);
  for (std::size_t s = 0; s < path.num_segments; ++s) {
    out.emplace_back(
        path.features.begin() + static_cast<std::ptrdiff_t>(s * segment_dim),
        path.features.begin() + static_cast<std::ptrdiff_t>((s + 1) * segment_dim));
  }
  return out;
}

}  // namespace

int main() {
  using namespace noble;

  std::printf("noble::gateway tour: client == wire ==> listener -> router -> engine\n\n");

  // 1. Train both model families (scaled by NOBLE_SCALE inside the builders).
  core::WifiExperimentConfig wifi_config;
  wifi_config.total_samples = 3000;
  wifi_config.seed = 12;
  core::WifiExperiment wifi_exp = core::make_uji_experiment(wifi_config);
  core::NobleWifiConfig wifi_model_config;
  wifi_model_config.quantize.tau = 3.0;
  wifi_model_config.quantize.coarse_l = 15.0;
  wifi_model_config.epochs = 10;
  core::NobleWifiModel wifi_model(wifi_model_config);
  wifi_model.fit(wifi_exp.split.train, &wifi_exp.split.val);
  const serve::WifiLocalizer wifi = serve::WifiLocalizer::from_model(wifi_model);

  core::ImuExperimentConfig imu_config;
  imu_config.num_paths = 400;
  imu_config.total_walk_time_s = 1000.0;
  imu_config.readings_per_segment = 8;
  imu_config.imu.ref_interval_s = 15.0;
  imu_config.seed = 304;
  core::ImuExperiment imu_exp = core::make_imu_experiment(imu_config);
  core::NobleImuConfig imu_model_config;
  imu_model_config.quantize.tau = 2.0;
  imu_model_config.epochs = 6;
  imu_model_config.projection_dim = 6;
  core::NobleImuTracker tracker(imu_model_config);
  tracker.fit(imu_exp.split.train);
  const serve::ImuLocalizer imu = serve::ImuLocalizer::from_model(tracker);
  std::printf("trained: wifi %zu APs, imu segment dim %zu\n\n", wifi_model.input_dim(),
              imu.segment_dim());

  // 2. One shard with sessions enabled, gateway on an ephemeral port.
  fleet::Router router;
  fleet::ShardConfig shard;
  shard.key = "bldg-A";
  shard.engine.workers = 2;
  shard.engine.max_batch = 16;
  if (!router.add_shard(shard, wifi, imu)) {
    std::printf("FAIL: add_shard\n");
    return 1;
  }

  gateway::GatewayConfig gw_config;  // port 0 = ephemeral, loopback bind
  gateway::Listener listener(router, gw_config);
  if (!listener.start()) {
    std::printf("FAIL: listener.start()\n");
    return 1;
  }
  std::printf("gateway: listening on %s:%u (%zu handler threads)\n\n",
              gw_config.server.bind_address.c_str(), listener.port(),
              gw_config.server.threads);

  std::optional<gateway::GatewayClient> client =
      gateway::GatewayClient::connect("127.0.0.1", listener.port());
  if (!client.has_value()) {
    std::printf("FAIL: client connect\n");
    return 1;
  }

  std::size_t checked = 0, mismatched = 0;

  // 3a + 3b. Interactive scans and bulk-with-deadline scans: the fix that
  // crosses the wire must be the exact fix direct locate() produces. Bulk
  // gets a generous deadline — this is an equivalence check, not a shedding
  // demo; the admission path is exercised, the verdict must still be kOk.
  std::vector<serve::RssiVector> queries;
  for (const auto& sample : wifi_exp.split.test.samples) queries.push_back(sample.rssi);
  std::printf("routing %zu scans over the wire (interactive + bulk)...\n",
              queries.size());
  for (const auto& q : queries) {
    const serve::Fix expected = wifi.locate(q);
    const gateway::WireResult interactive = client->locate("bldg-A", q);
    ++checked;
    if (!interactive.ok() || !(interactive.fix == expected)) ++mismatched;
    const gateway::WireResult bulk = client->locate(
        "bldg-A", q, engine::RequestClass::kBulk, /*deadline_us=*/5'000'000);
    ++checked;
    if (!bulk.ok() || !(bulk.fix == expected)) ++mismatched;
  }

  // 3c. A streamed IMU session: wire session updates vs a direct
  // TrackingSession on the same localizer, fix by fix.
  const std::size_t num_tracks = std::min<std::size_t>(imu_exp.split.test.size(), 4);
  std::printf("streaming %zu IMU tracks over the wire...\n", num_tracks);
  for (std::size_t p = 0; p < num_tracks; ++p) {
    const auto& path = imu_exp.split.test.paths[p];
    const auto segments = segments_of(path, tracker.segment_dim());
    serve::TrackingSession direct = imu.start_session(path.start);
    const std::optional<std::uint64_t> session =
        client->open_session("bldg-A", path.start);
    if (!session.has_value()) {
      ++mismatched;
      continue;
    }
    for (const auto& segment : segments) {
      const serve::Fix expected = direct.update(segment);
      const gateway::WireResult wired = client->track(*session, segment);
      ++checked;
      if (!wired.ok() || !(wired.fix == expected)) ++mismatched;
    }
    if (!client->close_session(*session)) ++mismatched;
  }

  // 4. The verdict.
  std::printf("equivalence: %zu fixes checked, %zu mismatches%s\n\n", checked,
              mismatched, mismatched == 0 ? " (wire == direct, bit for bit)" : "");

  // 5. The scrape page, fetched over the wire like a monitoring agent would.
  const std::optional<std::string> stats = client->stats_text();
  if (stats.has_value()) {
    std::printf("stats_text() over the wire:\n%s", stats->c_str());
  }

  const gateway::GatewayCounters counters = listener.counters();
  listener.stop();
  const bool clean = counters.malformed_frames == 0 && mismatched == 0 && checked > 0;
  std::printf("\ngateway saw %llu frames in / %llu out, %llu malformed\n",
              static_cast<unsigned long long>(counters.frames_received),
              static_cast<unsigned long long>(counters.frames_sent),
              static_cast<unsigned long long>(counters.malformed_frames));
  std::printf("%s\n", clean ? "OK: wire-served fixes are bit-identical to direct inference"
                            : "FAIL: wire/direct mismatch or protocol error");
  return clean ? 0 : 1;
}
