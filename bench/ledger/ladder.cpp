// The layer ladder: the same query set through each layer's public entry
// point in turn, at batch 1, 8 and 32. Each rung owns a fresh instance of
// its layer built from the run's localizers with library defaults, so a rung
// measures that layer plus everything below it and nothing above.
#include <functional>

#include "cluster/node.h"
#include "cluster/proto.h"
#include "gateway/client.h"
#include "gateway/gateway.h"
#include "kernels/kernels.h"
#include "ledger.h"
#include "net/socket.h"
#include "nn/dense.h"

namespace ledger {

using namespace noble;

namespace {

constexpr std::size_t kBatches[] = {1, 8, 32};
constexpr int kWarmupReps = 10;

int reps_for(std::size_t batch) { return batch == 1 ? 300 : batch == 8 ? 120 : 60; }

std::string suffix(const char* prefix, std::size_t batch) {
  return std::string(prefix) + std::to_string(batch);
}

/// Batch `rep` of size `b`, walking the query set cyclically.
std::vector<serve::RssiVector> batch_of(const Pool& pool, std::size_t b, int rep,
                                        std::vector<std::uint32_t>* indices) {
  std::vector<serve::RssiVector> out;
  indices->clear();
  for (std::size_t j = 0; j < b; ++j) {
    const auto qi = static_cast<std::uint32_t>((static_cast<std::size_t>(rep) * b + j) %
                                               pool.scans.size());
    indices->push_back(qi);
    out.push_back(pool.scans[qi]);
  }
  return out;
}

/// Runs `fn(rep)` warm-up + `reps` times; returns the median wall time (us)
/// of the timed repetitions, each recorded as one span under `rung`.
double time_rung(SpanSink* spans, SpanLog* log, const char* name, int reps,
                 const std::function<void(int)>& fn, std::uint64_t* n) {
  const std::uint64_t rung = spans ? spans->next_id() : 0;
  const std::int64_t rung_start = now_ns();
  for (int r = 0; r < kWarmupReps; ++r) fn(r);
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    fn(kWarmupReps + r);
    const std::int64_t t1 = now_ns();
    us.push_back(static_cast<double>(t1 - t0) / 1e3);
    if (log != nullptr) log->add(name, t0, t1, rung, rung);
  }
  if (log != nullptr) log->add("ladder", rung_start, now_ns(), rung, 0);
  *n = us.size();
  return median(std::move(us));
}

void put(MetricMap& layers, const std::string& name, double value, const char* unit,
         std::uint64_t n) {
  layers[name] = Metric{value, unit, n};
}

/// Times a rung (see time_rung) and records its median under `metric`.
void put_rung(MetricMap& layers, const std::string& metric, SpanSink* spans, SpanLog* log,
              const char* name, int reps, const std::function<void(int)>& fn) {
  std::uint64_t n = 0;
  const double us = time_rung(spans, log, name, reps, fn, &n);
  put(layers, metric, us, "us", n);
}

}  // namespace

void run_ladder(const Pool& pool, const Stack& stack, const Memo& memo, SpanSink* spans,
                MetricMap& layers, std::uint64_t* mismatches,
                gateway::GatewayCounters* wire) {
  SpanLog* log = spans ? spans->thread_log() : nullptr;
  const serve::WifiLocalizer& wifi = stack.wifi();
  const serve::ImuLocalizer& imu = stack.imu();
  std::vector<std::uint32_t> idx;
  std::uint64_t n = 0;
  const auto check = [&](const std::vector<serve::Fix>& fixes,
                         const std::vector<std::uint32_t>& indices) {
    for (std::size_t j = 0; j < fixes.size(); ++j) {
      if (!(fixes[j] == memo[indices[j]])) ++*mismatches;
    }
  };

  // --- kernels: packed dense_forward at the Wi-Fi network's Dense shapes,
  // fed the activations the real network produces at each layer.
  const nn::Sequential& net = wifi.model().network();
  struct DenseShape {
    std::size_t layer = 0;
    kernels::PackedDense packed;
    std::vector<float> bias;
  };
  std::vector<DenseShape> dense;
  double macs_per_row = 0.0;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const auto* d = dynamic_cast<const nn::Dense*>(&net.layer(i));
    if (d == nullptr) continue;
    dense.push_back(DenseShape{i, kernels::pack_dense(d->weights()),
                               std::vector<float>(d->bias().row(0),
                                                  d->bias().row(0) + d->out())});
    macs_per_row += static_cast<double>(d->in_dim() * d->out());
  }
  for (std::size_t b : kBatches) {
    const std::vector<serve::RssiVector> queries = batch_of(pool, b, 0, &idx);
    std::vector<linalg::Mat> inputs(dense.size());
    linalg::Mat cur = wifi.featurize(queries), next;
    for (std::size_t i = 0, k = 0; i < net.layer_count(); ++i) {
      if (k < dense.size() && dense[k].layer == i) inputs[k++] = cur;
      net.layer(i).infer(cur, next);
      std::swap(cur, next);
    }
    linalg::Mat y;
    const double us = time_rung(
        spans, log, "kernels::dense_forward", reps_for(b) * 2,
        [&](int) {
          for (std::size_t k = 0; k < dense.size(); ++k) {
            kernels::Epilogue ep;
            ep.bias = dense[k].bias.data();
            kernels::dense_forward(inputs[k], dense[k].packed, ep, y);
          }
        },
        &n);
    put(layers, suffix("kernels.dense_us.b", b), us, "us", n);
    if (b == 32) {
      put(layers, "kernels.gflops.b32", 2.0 * 32.0 * macs_per_row / (us * 1e3), "GFLOP/s", n);
    }
  }

  // --- serve: the compiled plan, locate_batch, and coalesced IMU updates.
  for (std::size_t b : kBatches) {
    const std::vector<serve::RssiVector> queries = batch_of(pool, b, 0, &idx);
    const linalg::Mat x = wifi.featurize(queries);
    const std::shared_ptr<const serve::OptimizedNetwork> plan = wifi.plan();
    put_rung(layers, suffix("serve.plan_us.b", b), spans, log, "OptimizedNetwork::predict",
             reps_for(b) * 2, [&](int) { (void)plan->predict(x); });
    std::vector<std::vector<serve::RssiVector>> rotating;
    std::vector<std::vector<std::uint32_t>> rotating_idx;
    for (int r = 0; r < 16; ++r) {
      rotating.push_back(batch_of(pool, b, r, &idx));
      rotating_idx.push_back(idx);
    }
    put_rung(layers, suffix("serve.locate_batch_us.b", b), spans, log,
             "WifiLocalizer::locate_batch", reps_for(b) * 2, [&](int r) {
               const auto k = static_cast<std::size_t>(r) % rotating.size();
               check(wifi.locate_batch(rotating[k]), rotating_idx[k]);
             });

    std::vector<serve::TrackingSession> sessions;
    for (std::size_t s = 0; s < b; ++s) {
      sessions.push_back(imu.start_session(pool.paths[s % pool.paths.size()].start));
    }
    std::vector<serve::TrackingSession*> session_ptrs;
    for (auto& s : sessions) session_ptrs.push_back(&s);
    std::vector<const serve::ImuSegment*> segs(b);
    put_rung(layers, suffix("serve.imu_update_us.w", b), spans, log,
             "ImuLocalizer::update_sessions", reps_for(b) * 2, [&](int r) {
               for (std::size_t s = 0; s < b; ++s) {
                 segs[s] = &pool.segments[(static_cast<std::size_t>(r) * b + s) %
                                          pool.segments.size()];
               }
               (void)imu.update_sessions(session_ptrs, segs);
             });
  }

  // A burst of b submissions, then every answer: the closed-loop cost of one
  // batch through a routing layer.
  const auto burst = [&](const std::function<engine::Submission(const serve::RssiVector&)>& submit,
                         std::size_t b, int r) {
    const std::vector<serve::RssiVector> queries = batch_of(pool, b, r, &idx);
    std::vector<std::future<serve::Fix>> results;
    for (const auto& q : queries) {
      engine::Submission sub = submit(q);
      if (sub.accepted()) {
        results.push_back(std::move(sub.result));
      } else {
        ++*mismatches;
      }
    }
    std::vector<serve::Fix> fixes;
    for (auto& f : results) fixes.push_back(f.get());
    if (fixes.size() == idx.size()) check(fixes, idx);
  };

  // --- engine: Engine::submit -> future, one caller.
  {
    engine::Engine eng(wifi, imu);
    for (std::size_t b : kBatches) {
      put_rung(layers, suffix("engine.closed_fix_us.b", b), spans, log, "Engine::submit+get",
               reps_for(b), [&](int r) {
                 burst([&](const serve::RssiVector& q) { return eng.submit(q); }, b, r);
               });
    }
  }

  // --- fleet: Router::submit -> future, plus the synchronous submit call.
  {
    fleet::Router router;
    fleet::ShardConfig shard;
    shard.key = Stack::kShard;
    router.add_shard(shard, wifi, imu);
    for (std::size_t b : kBatches) {
      put_rung(layers, suffix("fleet.closed_fix_us.b", b), spans, log, "Router::submit+get",
               reps_for(b), [&](int r) {
                 burst([&](const serve::RssiVector& q) { return router.submit(Stack::kShard, q); },
                       b, r);
               });
    }
    std::vector<double> submit_us;
    for (int r = 0; r < reps_for(1); ++r) {
      const serve::RssiVector& q = pool.scans[static_cast<std::size_t>(r) % pool.scans.size()];
      const std::int64_t t0 = now_ns();
      engine::Submission sub = router.submit(Stack::kShard, q);
      const std::int64_t t1 = now_ns();
      if (log != nullptr) log->add("Router::submit", t0, t1, 0, 0);
      submit_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      if (sub.accepted()) sub.result.get();
    }
    put(layers, "fleet.submit_us", median(submit_us), "us", submit_us.size());
  }

  // --- net + gateway: GatewayClient over loopback, then the binary scrape.
  {
    fleet::Router router;
    fleet::ShardConfig shard;
    shard.key = Stack::kShard;
    router.add_shard(shard, wifi, imu);
    gateway::Listener listener(router);
    std::optional<gateway::GatewayClient> client;
    if (listener.start()) client = gateway::GatewayClient::connect("127.0.0.1", listener.port());
    if (!client) {
      ++*mismatches;
      return;
    }
    const std::vector<Histogram> before = stage_histograms();
    for (std::size_t b : kBatches) {
      put_rung(layers, suffix("gateway.closed_fix_us.b", b), spans, log,
               "GatewayClient::locate", reps_for(b), [&](int r) {
                 const std::vector<serve::RssiVector> queries = batch_of(pool, b, r, &idx);
                 if (b == 1) {
                   const gateway::WireResult res = client->locate(Stack::kShard, queries[0]);
                   if (!res.ok() || !(res.fix == memo[idx[0]])) ++*mismatches;
                   return;
                 }
                 std::unordered_map<std::uint64_t, std::uint32_t> ids;
                 for (std::size_t j = 0; j < b; ++j) {
                   ids[client->send_locate(Stack::kShard, queries[j],
                                           engine::RequestClass::kInteractive, 0)] = idx[j];
                 }
                 for (std::size_t j = 0; j < b; ++j) {
                   auto got = client->recv_fix(5000);
                   if (!got || !got->second.ok() || !ids.count(got->first) ||
                       !(got->second.fix == memo[ids[got->first]])) {
                     ++*mismatches;
                   }
                 }
               });
    }
    const std::vector<Histogram> after = stage_histograms();
    std::uint64_t sn = 0;
    const double decode_us = stage_p50_between(before, after, obs::Stage::kDecode, &sn);
    put(layers, "stage.decode_p50_us", decode_us, "us", sn);
    const double respond_us = stage_p50_between(before, after, obs::Stage::kRespond, &sn);
    put(layers, "stage.respond_p50_us", respond_us, "us", sn);
    put_rung(layers, "obs.scrape_us", spans, log, "GatewayClient::stats_snapshot_bytes", 40,
             [&](int) {
               const std::optional<std::string> bytes = client->stats_snapshot_bytes();
               if (!bytes || !obs::decode_snapshot(*bytes)) ++*mismatches;
             });
    client.reset();
    *wire = listener.counters();
    listener.stop();
  }

  // --- cluster: one kSpillSubmit round trip to a peer's cluster server,
  // encoded with the cluster codec exactly as NodeAgent::forward_spill does.
  {
    fleet::Router router;
    fleet::ShardConfig shard;
    shard.key = Stack::kShard;
    router.add_shard(shard, wifi, imu);
    cluster::NodeConfig cfg;
    cfg.name = "ladder-peer";
    cluster::NodeAgent peer(router, cfg);
    std::optional<net::FrameSocket> sock;
    if (peer.start()) {
      sock = net::FrameSocket::connect("127.0.0.1", peer.port(), cluster::proto::message_set());
    }
    if (!sock) {
      ++*mismatches;
      return;
    }
    const std::uint64_t digest = router.shard_artifacts().front().digest;
    std::uint64_t next_id = 1;
    for (std::size_t b : kBatches) {
      put_rung(layers, suffix("cluster.spill_rpc_us.b", b), spans, log, "spill_submit_rpc",
               reps_for(b), [&](int r) {
                 const std::vector<serve::RssiVector> queries = batch_of(pool, b, r, &idx);
                 std::unordered_map<std::uint64_t, std::uint32_t> ids;
                 for (std::size_t j = 0; j < b; ++j) {
                   net::Frame frame;
                   frame.type = cluster::proto::MsgType::kSpillSubmit;
                   frame.cls = engine::RequestClass::kBulk;
                   frame.request_id = next_id++;
                   frame.body =
                       cluster::proto::encode_spill_submit_body(Stack::kShard, digest, queries[j]);
                   ids[frame.request_id] = idx[j];
                   if (!sock->send_frame(frame)) ++*mismatches;
                 }
                 for (std::size_t j = 0; j < b; ++j) {
                   std::optional<net::Frame> reply = sock->recv_frame(5000);
                   gateway::wire::Status status = gateway::wire::Status::kStopped;
                   serve::Fix fix;
                   if (!reply || reply->type != cluster::proto::MsgType::kSpillResult ||
                       !gateway::wire::decode_fix_body(reply->body, status, fix) ||
                       status != gateway::wire::Status::kOk || !ids.count(reply->request_id) ||
                       !(fix == memo[ids[reply->request_id]])) {
                     ++*mismatches;
                   }
                 }
               });
    }
    sock.reset();
    peer.stop();
  }
}

}  // namespace ledger
