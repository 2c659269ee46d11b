#include "workload/web.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/controller.hpp"

namespace dimetrodon::workload {
namespace {

sched::MachineConfig small_config() {
  sched::MachineConfig cfg;
  cfg.enable_meter = false;
  return cfg;
}

WebWorkload::Config light_config() {
  WebWorkload::Config cfg;
  cfg.connections = 40;
  cfg.think_mean_s = 0.5;
  return cfg;
}

TEST(WebWorkloadTest, ServesRequests) {
  sched::Machine m(small_config());
  WebWorkload web(light_config());
  web.deploy(m);
  m.run_for(sim::from_sec(10));
  // 40 connections / 0.5 s think ≈ 80 req/s nominal.
  EXPECT_GT(web.completed_requests(), 400u);
  EXPECT_LT(web.completed_requests(), 1000u);
}

TEST(WebWorkloadTest, DeploysKernelAndWorkerThreads) {
  sched::Machine m(small_config());
  WebWorkload web(light_config());
  web.deploy(m);
  ASSERT_EQ(web.threads().size(), 1u + web.config().workers);
  EXPECT_EQ(m.thread(web.threads()[0]).thread_class(),
            sched::ThreadClass::kKernel);
  for (std::size_t i = 1; i < web.threads().size(); ++i) {
    EXPECT_EQ(m.thread(web.threads()[i]).thread_class(),
              sched::ThreadClass::kUser);
  }
}

TEST(WebWorkloadTest, UnloadedLatenciesAreFast) {
  sched::Machine m(small_config());
  WebWorkload web(light_config());
  web.deploy(m);
  m.run_for(sim::from_sec(2));
  web.mark();
  m.run_for(sim::from_sec(10));
  const auto s = web.stats_since_mark();
  ASSERT_GT(s.total, 100u);
  // At ~5% load, responses come back in milliseconds: 100% good QoS.
  EXPECT_DOUBLE_EQ(s.good_fraction(), 1.0);
  EXPECT_LT(s.mean_latency_s, 0.1);
}

TEST(WebWorkloadTest, QosBucketsConsistent) {
  sched::Machine m(small_config());
  WebWorkload web(light_config());
  web.deploy(m);
  web.mark();
  m.run_for(sim::from_sec(5));
  const auto s = web.stats_since_mark();
  EXPECT_LE(s.good, s.tolerable);
  EXPECT_EQ(s.tolerable + s.fail, s.total);
  EXPECT_GE(s.max_latency_s, s.mean_latency_s);
}

TEST(WebWorkloadTest, PaperScaleLoadLevel) {
  // 440 connections over two client machines (§3.7): "approximately 15-25%
  // load per core".
  sched::Machine m(small_config());
  WebWorkload web;  // paper defaults
  web.deploy(m);
  const double busy0 = [&] {
    double b = 0.0;
    for (std::size_t i = 0; i < m.num_cores(); ++i) {
      b += m.core(static_cast<sched::CoreId>(i)).busy_seconds;
    }
    return b;
  }();
  m.run_for(sim::from_sec(20));
  double busy = -busy0;
  for (std::size_t i = 0; i < m.num_cores(); ++i) {
    busy += m.core(static_cast<sched::CoreId>(i)).busy_seconds;
  }
  const double load_per_core = busy / (20.0 * 4.0);
  EXPECT_GT(load_per_core, 0.10);
  EXPECT_LT(load_per_core, 0.30);
}

TEST(WebWorkloadTest, InjectionDelaysButServesRequests) {
  // With aggressive injection the server still works; QoS-relevant latency
  // grows (the deferral dynamics of §3.7).
  auto mean_latency = [](double p) {
    sched::MachineConfig cfg;
    cfg.enable_meter = false;
    sched::Machine m(cfg);
    std::unique_ptr<core::DimetrodonController> ctl;
    WebWorkload web(WebWorkload::Config{});
    if (p > 0) {
      ctl = std::make_unique<core::DimetrodonController>(m);
      ctl->sys_set_global(p, sim::from_ms(100));
    }
    web.deploy(m);
    m.run_for(sim::from_sec(5));
    web.mark();
    m.run_for(sim::from_sec(20));
    return web.stats_since_mark().mean_latency_s;
  };
  EXPECT_GT(mean_latency(0.9), 2.0 * mean_latency(0.0));
}

TEST(WebWorkloadTest, MarkResetsWindow) {
  sched::Machine m(small_config());
  WebWorkload web(light_config());
  web.deploy(m);
  m.run_for(sim::from_sec(5));
  web.mark();
  EXPECT_EQ(web.stats_since_mark().total, 0u);
}

TEST(WebWorkloadTest, PercentilesPopulatedAndOrdered) {
  sched::Machine m(small_config());
  WebWorkload web(light_config());
  web.deploy(m);
  m.run_for(sim::from_sec(2));
  web.mark();
  m.run_for(sim::from_sec(10));
  const auto s = web.stats_since_mark();
  ASSERT_GT(s.total, 100u);
  EXPECT_GT(s.p50_latency_s, 0.0);
  EXPECT_LE(s.p50_latency_s, s.p95_latency_s);
  EXPECT_LE(s.p95_latency_s, s.p99_latency_s);
  EXPECT_LE(s.p99_latency_s, s.max_latency_s);
  // The streaming histogram holds ~1% relative error, so the median should
  // bracket the mean loosely on this unimodal latency distribution.
  EXPECT_LT(s.p50_latency_s, 10.0 * s.mean_latency_s);
}

TEST(WebWorkloadTest, OpenLoopInjectionCompletesWithCallback) {
  sched::Machine m(small_config());
  WebWorkload::Config cfg;
  cfg.connections = 0;  // open loop only
  WebWorkload web(cfg);
  web.deploy(m);

  std::vector<std::pair<std::uint32_t, double>> done;
  web.set_completion_callback([&](std::uint32_t id, double latency_s) {
    done.emplace_back(id, latency_s);
  });
  web.mark();
  for (std::uint32_t i = 0; i < 25; ++i) {
    web.inject_request(i);
    m.run_for(sim::from_ms(40));
  }
  m.run_for(sim::from_sec(2));

  ASSERT_EQ(done.size(), 25u);
  for (std::uint32_t i = 0; i < done.size(); ++i) {
    EXPECT_EQ(done[i].first, i);  // FIFO on an idle machine
    EXPECT_GT(done[i].second, 0.0);
  }
  EXPECT_EQ(web.outstanding_requests(), 0u);
  EXPECT_EQ(web.completed_requests(), 25u);
  EXPECT_EQ(web.stats_since_mark().total, 25u);
  // External completions never re-arm a think timer: with the queue drained
  // the machine generates no further requests.
  m.run_for(sim::from_sec(5));
  EXPECT_EQ(web.completed_requests(), 25u);
}

// SPECWeb QoS buckets are inclusive at their thresholds: good <= 3 s,
// tolerable <= 5 s, fail > 5 s. Emergent latencies can't be pinned to an
// exact boundary, so measure one deterministic open-loop request, then
// replay the identical simulation with the thresholds set exactly AT and
// just BELOW the observed latency.
TEST(WebWorkloadTest, QosBucketBoundariesAreInclusive) {
  const auto observe = [](double good_s, double tolerable_s) {
    sched::Machine m(small_config());
    WebWorkload::Config cfg;
    cfg.connections = 0;
    if (good_s > 0.0) {
      cfg.good_threshold_s = good_s;
      cfg.tolerable_threshold_s = tolerable_s;
    }
    WebWorkload web(cfg);
    web.deploy(m);
    double latency = -1.0;
    web.set_completion_callback(
        [&](std::uint32_t, double latency_s) { latency = latency_s; });
    web.mark();
    web.inject_request(0);
    m.run_for(sim::from_sec(1));
    auto s = web.stats_since_mark();
    EXPECT_EQ(s.total, 1u);
    EXPECT_EQ(s.max_latency_s, latency);
    return std::pair(latency, s);
  };

  // First run discovers the deterministic latency L of request 0.
  const double latency = observe(0.0, 0.0).first;
  ASSERT_GT(latency, 0.0);

  // Thresholds exactly at L: inclusive, so good and tolerable, not fail.
  const auto at = observe(latency, latency).second;
  EXPECT_EQ(at.good, 1u);
  EXPECT_EQ(at.tolerable, 1u);
  EXPECT_EQ(at.fail, 0u);

  // Thresholds just below L: the same request fails both buckets.
  const double below = latency * (1.0 - 1e-12);
  ASSERT_LT(below, latency);
  const auto miss = observe(below, below).second;
  EXPECT_EQ(miss.good, 0u);
  EXPECT_EQ(miss.tolerable, 0u);
  EXPECT_EQ(miss.fail, 1u);
}

TEST(WebWorkloadTest, OutstandingRequestsBounded) {
  sched::Machine m(small_config());
  WebWorkload web(light_config());
  web.deploy(m);
  m.run_for(sim::from_sec(10));
  // Closed loop: outstanding can never exceed the connection count.
  EXPECT_LE(web.outstanding_requests(), 40u);
}

// A scale-1.0 injection must be byte-for-byte the legacy path: same drawn
// demand, same latency. A larger scale stretches the worker stage.
TEST(WebWorkloadTest, DemandScaleStretchesServiceTime) {
  const auto one_shot = [](double scale) {
    sched::Machine m(small_config());
    WebWorkload::Config cfg;
    cfg.connections = 0;
    WebWorkload web(cfg);
    web.deploy(m);
    double latency = -1.0;
    web.set_completion_callback(
        [&](std::uint32_t, double latency_s) { latency = latency_s; });
    if (scale < 0.0) {
      web.inject_request(0);  // legacy call, no scale argument at all
    } else {
      web.inject_request(0, scale);
    }
    m.run_for(sim::from_sec(5));
    return latency;
  };
  const double legacy = one_shot(-1.0);
  ASSERT_GT(legacy, 0.0);
  EXPECT_EQ(one_shot(1.0), legacy);  // bit-identical, not just close
  EXPECT_GT(one_shot(8.0), legacy);
  EXPECT_GT(one_shot(8.0), one_shot(2.0));
}

TEST(WebWorkloadTest, IssuedAtBackdatesTheLatencyClock) {
  // Two identical machines, both injecting at t = 1 s; the second claims
  // the request was issued at t = 0, so it reports exactly +1 s latency.
  const auto inject_after_1s = [](sim::SimTime issued_at) {
    sched::Machine m(small_config());
    WebWorkload::Config cfg;
    cfg.connections = 0;
    WebWorkload web(cfg);
    web.deploy(m);
    double latency = -1.0;
    web.set_completion_callback(
        [&](std::uint32_t, double latency_s) { latency = latency_s; });
    m.run_for(sim::from_sec(1));
    web.inject_request(0, 1.0, issued_at);
    m.run_for(sim::from_sec(5));
    return latency;
  };
  const double plain = inject_after_1s(-1);  // default: issued "now"
  ASSERT_GT(plain, 0.0);
  const double backdated = inject_after_1s(0);
  EXPECT_NEAR(backdated, plain + 1.0, 1e-9);
}

TEST(WebWorkloadTest, CancelPendingExternalRehomesQueuedOldestFirst) {
  sched::Machine m(small_config());
  WebWorkload::Config cfg;
  cfg.connections = 0;
  WebWorkload web(cfg);
  web.deploy(m);
  std::vector<std::uint32_t> completed;
  web.set_completion_callback(
      [&](std::uint32_t id, double) { completed.push_back(id); });
  // Queue a burst far faster than one node can serve: later requests are
  // still waiting in the kernel/ready queues when the cancel lands.
  for (std::uint32_t i = 0; i < 12; ++i) {
    web.inject_request(i, 1.0 + 0.25 * i);
    m.run_for(sim::from_ms(1));
  }
  const auto cancelled = web.cancel_pending_external();
  ASSERT_FALSE(cancelled.empty());
  ASSERT_LT(cancelled.size(), 12u);  // whatever entered service stays put
  for (std::size_t i = 0; i < cancelled.size(); ++i) {
    const auto& c = cancelled[i];
    // Injection order was oldest-first with strictly increasing issue times
    // and per-request demand scales; all three survive the cancel intact.
    EXPECT_EQ(c.request_id, 12u - cancelled.size() + i);
    EXPECT_EQ(c.demand_scale, 1.0 + 0.25 * c.request_id);
    EXPECT_EQ(c.issued_at, sim::from_ms(c.request_id));
    if (i > 0) {
      EXPECT_GT(c.issued_at, cancelled[i - 1].issued_at);
    }
  }
  // In-service requests run to completion on this node; cancelled ones
  // never complete here.
  m.run_for(sim::from_sec(10));
  EXPECT_EQ(completed.size() + cancelled.size(), 12u);
  for (std::uint32_t id : completed) {
    EXPECT_LT(id, 12u - cancelled.size());
  }
  EXPECT_EQ(web.outstanding_requests(), 0u);
  // A second cancel on the drained workload finds nothing.
  EXPECT_TRUE(web.cancel_pending_external().empty());
}

TEST(WebWorkloadTest, CancelPendingExternalLeavesConnectionsAlone) {
  sched::Machine m(small_config());
  WebWorkload web(light_config());  // closed loop, 40 connections
  web.deploy(m);
  m.run_for(sim::from_sec(1));
  const auto cancelled = web.cancel_pending_external();
  EXPECT_TRUE(cancelled.empty());  // nothing external to pull
  const std::uint64_t before = web.completed_requests();
  m.run_for(sim::from_sec(2));
  // The closed loop keeps running: cancel touches external requests only.
  EXPECT_GT(web.completed_requests(), before);
}

}  // namespace
}  // namespace dimetrodon::workload
