// Test helper: parks engine workers so a test decides when queued work may
// run.
//
// Each parking scan is submitted with a notifier that blocks the worker
// settling it until release() — a deliberate breach of the notifier's
// never-block rule, confined to tests. While parked, a worker pops nothing:
// bulk lanes fill and overflow deterministically however loaded the machine
// is, and queued requests wait (and lapse) until the test lets them run.
#ifndef NOBLE_TESTS_PARKED_WORKERS_H_
#define NOBLE_TESTS_PARKED_WORKERS_H_

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "fleet/router.h"

namespace noble::test_support {

class ParkedWorkers {
 public:
  /// Parks `workers` engine workers behind `shard_key`, one interactive
  /// `scan` each; returns once every one of them is blocked. A shard with
  /// one engine of `workers` workers is left with none free.
  ParkedWorkers(fleet::Routing& routing, const std::string& shard_key,
                const serve::RssiVector& scan, std::size_t workers)
      : gate_(std::make_shared<Gate>()) {
    for (std::size_t i = 0; i < workers; ++i) {
      engine::SubmitOptions options;
      options.notify = [gate = gate_] {
        std::unique_lock<std::mutex> lock(gate->mu);
        ++gate->parked;
        gate->cv.notify_all();
        gate->cv.wait(lock, [&] { return gate->open; });
      };
      engine::Submission sub = routing.submit(shard_key, scan, options);
      EXPECT_TRUE(sub.accepted()) << "parking scan " << i;
      if (!sub.accepted()) return;
      held_.push_back(std::move(sub.result));
      // The next scan must find this worker busy, so wait for it to park.
      std::unique_lock<std::mutex> lock(gate_->mu);
      EXPECT_TRUE(gate_->cv.wait_for(lock, std::chrono::seconds(5),
                                     [&] { return gate_->parked == i + 1; }))
          << "worker " << i << " never parked";
    }
  }
  ~ParkedWorkers() { release(); }

  ParkedWorkers(const ParkedWorkers&) = delete;
  ParkedWorkers& operator=(const ParkedWorkers&) = delete;

  /// Lets every parked worker go. Idempotent.
  void release() {
    {
      std::lock_guard<std::mutex> lock(gate_->mu);
      gate_->open = true;
    }
    gate_->cv.notify_all();
  }

 private:
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t parked = 0;
    bool open = false;
  };
  std::shared_ptr<Gate> gate_;
  std::vector<std::future<serve::Fix>> held_;
};

}  // namespace noble::test_support

#endif  // NOBLE_TESTS_PARKED_WORKERS_H_
