#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "fault/policy.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "store/kv_store.hpp"
#include "store/persistence.hpp"
#include "synth/sessions.hpp"
#include "synth/world.hpp"
#include "tero/pipeline.hpp"
#include "util/rng.hpp"

namespace plan_tests {
using namespace tero::fault;

TEST(FaultPlan, ParsesEveryOption) {
  const auto plan = FaultPlan::parse(
      "cdn.get=error@0.05;cdn.get=latency@0.02:ms=4000;"
      "kv.put=corrupt@0.1:after=3:max=7;extract.stream=crash@1:fails=9");
  ASSERT_EQ(plan.rules.size(), 4u);
  EXPECT_EQ(plan.rules[0].point, "cdn.get");
  EXPECT_EQ(plan.rules[0].kind, FaultKind::kError);
  EXPECT_DOUBLE_EQ(plan.rules[0].probability, 0.05);
  EXPECT_EQ(plan.rules[1].kind, FaultKind::kLatency);
  EXPECT_DOUBLE_EQ(plan.rules[1].latency_s, 4.0);
  EXPECT_EQ(plan.rules[2].kind, FaultKind::kCorrupt);
  EXPECT_EQ(plan.rules[2].after, 3u);
  EXPECT_EQ(plan.rules[2].max_fires, 7u);
  EXPECT_EQ(plan.rules[3].kind, FaultKind::kCrash);
  EXPECT_EQ(plan.rules[3].fail_attempts, 9u);
}

TEST(FaultPlan, RoundTripsThroughToString) {
  const std::string spec =
      "cdn.get=error@0.05;serve.shard*=latency@0.5:ms=250:after=2:max=9;"
      "persist.write=crash@1:fails=3";
  const auto plan = FaultPlan::parse(spec, 42);
  const auto reparsed = FaultPlan::parse(plan.to_string(), 42);
  EXPECT_EQ(plan.to_string(), reparsed.to_string());
  EXPECT_EQ(reparsed.rules.size(), plan.rules.size());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW((void)FaultPlan::parse("nonsense"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("p=error"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("p=explode@0.5"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("p=error@1.5"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("p=error@0.5:bogus=1"),
               std::invalid_argument);
}

TEST(FaultRule, WildcardMatchesPrefix) {
  FaultRule rule;
  rule.point = "serve.shard*";
  EXPECT_TRUE(rule.matches("serve.shard-0"));
  EXPECT_TRUE(rule.matches("serve.shard-13"));
  EXPECT_FALSE(rule.matches("serve.other"));
  rule.point = "cdn.get";
  EXPECT_TRUE(rule.matches("cdn.get"));
  EXPECT_FALSE(rule.matches("cdn.gets"));
}

}  // namespace plan_tests

namespace point_tests {
using namespace tero::fault;

TEST(FaultPoint, SameSeedSameSchedule) {
  const auto run = [](std::uint64_t seed) {
    FaultInjector injector(FaultPlan::parse("p=error@0.3", seed));
    auto& point = injector.point("p");
    for (int i = 0; i < 500; ++i) (void)point.hit();
    return std::make_pair(point.schedule(), injector.schedule_digest());
  };
  const auto a = run(7);
  const auto b = run(7);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_FALSE(a.first.empty());
  // A different seed gives a different (but equally deterministic) schedule.
  const auto c = run(8);
  EXPECT_NE(a.first, c.first);
}

TEST(FaultPoint, ScheduleIsThreadCountInvariant) {
  // The per-hit schedule is a pure function of the hit index, and hit
  // indexes are claimed atomically — so N hits fire the same set of
  // (index, kind) pairs whether they come from 1 thread or 4.
  const auto run = [](int threads) {
    FaultInjector injector(FaultPlan::parse("p=error@0.2;p=latency@0.1", 3));
    auto& point = injector.point("p");
    constexpr int kHits = 1000;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&point, threads] {
        for (int i = 0; i < kHits / threads; ++i) (void)point.hit();
      });
    }
    for (auto& worker : workers) worker.join();
    return point.schedule();
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(FaultPoint, AfterAndMaxHonored) {
  FaultInjector injector(FaultPlan::parse("p=error@1:after=3:max=2"));
  auto& point = injector.point("p");
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) fired.push_back(static_cast<bool>(point.hit()));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, false, true, true, false,
                                      false, false}));
  EXPECT_EQ(point.fired(), 2u);
  EXPECT_EQ(point.hits(), 8u);
}

TEST(FaultPoint, KeyedDecideIsTransientByConstruction) {
  FaultInjector injector(FaultPlan::parse("p=error@1:fails=2"));
  const auto& point = injector.point("p");
  EXPECT_TRUE(static_cast<bool>(point.decide(11, 0)));
  EXPECT_TRUE(static_cast<bool>(point.decide(11, 1)));
  EXPECT_FALSE(static_cast<bool>(point.decide(11, 2)));  // retry recovers
  EXPECT_EQ(point.failing_attempts(11), 2u);
  // decide() is pure: no hits were consumed.
  EXPECT_EQ(point.hits(), 0u);
}

TEST(FaultPoint, CrashKindIsPermanentInKeyedMode) {
  FaultInjector injector(FaultPlan::parse("p=crash@1"));
  const auto& point = injector.point("p");
  EXPECT_TRUE(static_cast<bool>(point.decide(5, 0)));
  EXPECT_TRUE(static_cast<bool>(point.decide(5, 1000)));
  EXPECT_EQ(point.failing_attempts(5), UINT64_MAX);
}

TEST(FaultInjector, UnmatchedPointNeverFires) {
  FaultInjector injector(FaultPlan::parse("other=error@1"));
  auto& point = injector.point("p");
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(static_cast<bool>(point.hit()));
  EXPECT_EQ(injector.total_fired(), 0u);
}

TEST(FaultInjector, CountsFiresInMetrics) {
  tero::obs::MetricsRegistry registry;
  FaultInjector injector(FaultPlan::parse("p=error@1:max=3"), &registry);
  auto& point = injector.point("p");
  for (int i = 0; i < 10; ++i) (void)point.hit();
  EXPECT_EQ(registry
                .counter(tero::obs::MetricsRegistry::labeled(
                    "tero.fault.fired", {{"point", "p"}}))
                .value(),
            3u);
}

}  // namespace point_tests

namespace retry_tests {
using namespace tero::fault;

TEST(RetryPolicy, BackoffGrowsAndCaps) {
  RetryPolicy policy;
  policy.base_delay_s = 1.0;
  policy.max_delay_s = 8.0;
  policy.multiplier = 2.0;
  policy.jitter = 0.0;  // exact values
  EXPECT_DOUBLE_EQ(policy.backoff_s(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(policy.backoff_s(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(policy.backoff_s(2, 1), 2.0);
  EXPECT_DOUBLE_EQ(policy.backoff_s(3, 1), 4.0);
  EXPECT_DOUBLE_EQ(policy.backoff_s(4, 1), 8.0);
  EXPECT_DOUBLE_EQ(policy.backoff_s(10, 1), 8.0);  // capped
}

TEST(RetryPolicy, JitterIsDeterministicAndBounded) {
  RetryPolicy policy;
  policy.jitter = 0.25;
  for (std::uint32_t attempt = 1; attempt < 6; ++attempt) {
    const double a = policy.backoff_s(attempt, 9, 77);
    const double b = policy.backoff_s(attempt, 9, 77);
    EXPECT_DOUBLE_EQ(a, b);  // pure in (policy, seed, token, attempt)
    RetryPolicy exact = policy;
    exact.jitter = 0.0;
    const double nominal = exact.backoff_s(attempt, 9, 77);
    EXPECT_LE(a, nominal);
    EXPECT_GE(a, nominal * 0.75);
  }
  // Different tokens decorrelate concurrent retry sequences.
  EXPECT_NE(policy.backoff_s(3, 9, 1), policy.backoff_s(3, 9, 2));
}

TEST(RetryPolicy, ShouldRetryHonorsAttemptCapAndBudget) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.budget_s = 100.0;
  EXPECT_TRUE(policy.should_retry(0));
  EXPECT_TRUE(policy.should_retry(1));
  EXPECT_FALSE(policy.should_retry(2));          // attempt cap
  EXPECT_FALSE(policy.should_retry(1, 100.0));   // budget exhausted
  policy.budget_s = 0.0;
  EXPECT_TRUE(policy.should_retry(1, 1e9));      // budget off
}

}  // namespace retry_tests

namespace breaker_tests {
using namespace tero::fault;

TEST(CircuitBreaker, OpensAfterConsecutiveFailures) {
  CircuitBreaker breaker;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(breaker.allow(0.0));
    breaker.on_failure(0.0);
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow(10.0));  // inside the cooldown
  EXPECT_EQ(breaker.rejected(), 1u);
}

TEST(CircuitBreaker, SuccessResetsTheFailureStreak) {
  CircuitBreaker breaker;
  for (int i = 0; i < 4; ++i) breaker.on_failure(0.0);
  breaker.on_success();
  for (int i = 0; i < 4; ++i) breaker.on_failure(0.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, HalfOpenProbesCloseOrReopen) {
  CircuitBreaker::Config config;
  config.failure_threshold = 2;
  config.cooldown_s = 10.0;
  config.half_open_successes = 2;
  CircuitBreaker breaker(config);
  breaker.on_failure(0.0);
  breaker.on_failure(0.0);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // Cooldown elapses -> half-open probe; a failing probe re-opens and
  // restarts the cooldown.
  EXPECT_TRUE(breaker.allow(11.0));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.on_failure(11.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow(20.0));  // cooldown restarted at t=11

  // Second probe window: enough successes close the breaker.
  EXPECT_TRUE(breaker.allow(22.0));
  breaker.on_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.allow(22.5));
  breaker.on_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow(23.0));
}

TEST(CircuitBreaker, HalfOpenAdmitsOneProbeAtATime) {
  CircuitBreaker::Config config;
  config.failure_threshold = 1;
  config.cooldown_s = 5.0;
  config.half_open_successes = 2;
  CircuitBreaker breaker(config);
  breaker.on_failure(0.0);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // Past the cooldown exactly one caller wins the probe slot; everyone
  // else fails fast while its outcome is pending.
  EXPECT_TRUE(breaker.allow(6.0));
  EXPECT_FALSE(breaker.allow(6.0));
  EXPECT_FALSE(breaker.allow(6.1));
  EXPECT_EQ(breaker.rejected(), 2u);

  // The probe's outcome frees the slot: one success admits the *next*
  // single probe, and enough successes close the breaker for everyone.
  breaker.on_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.allow(6.2));
  EXPECT_FALSE(breaker.allow(6.2));
  breaker.on_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow(6.3));
  EXPECT_TRUE(breaker.allow(6.3));
}

TEST(CircuitBreaker, ConcurrentHalfOpenCallersElectExactlyOneProbe) {
  // The thundering-herd regression: N threads hammer a breaker whose
  // cooldown just elapsed. Exactly one may be admitted as the probe; the
  // losers must fail fast and be counted as rejected. Run under TSan this
  // also proves allow()/state() are race-free.
  CircuitBreaker::Config config;
  config.failure_threshold = 1;
  config.cooldown_s = 1.0;
  config.half_open_successes = 1;
  CircuitBreaker breaker(config);
  breaker.on_failure(0.0);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  constexpr int kThreads = 16;
  std::atomic<int> admitted{0};
  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!start.load()) std::this_thread::yield();
      if (breaker.allow(2.0)) admitted.fetch_add(1);
    });
  }
  start.store(true);
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(admitted.load(), 1);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(breaker.rejected(), static_cast<std::uint64_t>(kThreads - 1));

  // The winning probe succeeds and the breaker closes normally.
  breaker.on_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

}  // namespace breaker_tests

namespace persistence_tests {
using namespace tero;

class KvFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tero_chaos_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "kv.snap").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static store::KvStore sample_kv() {
    store::KvStore kv;
    kv.put("plain", "value");
    kv.put("tricky", "line\nbreaks and spaces \x01 included");
    kv.put("empty", "");
    kv.push_back("queue", "first");
    kv.push_back("queue", "second with\nnewline");
    return kv;
  }

  static void expect_sample(const store::KvStore& kv) {
    EXPECT_EQ(kv.get("plain"), "value");
    EXPECT_EQ(kv.get("tricky"), "line\nbreaks and spaces \x01 included");
    EXPECT_EQ(kv.get("empty"), "");
    const auto queue = kv.list_contents("queue");
    ASSERT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue[0], "first");
    EXPECT_EQ(queue[1], "second with\nnewline");
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(KvFileTest, RoundTripsThroughDisk) {
  store::save_kv_file(sample_kv(), path_);
  expect_sample(store::load_kv_file(path_));
  // No temp file left behind after a clean save.
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(KvFileTest, InjectedTornWriteLeavesPrimaryIntact) {
  store::save_kv_file(sample_kv(), path_);

  store::KvStore updated = sample_kv();
  updated.put("plain", "SHOULD NEVER BE READ");
  fault::FaultInjector injector(
      fault::FaultPlan::parse("persist.write=error@1"));
  EXPECT_THROW(store::save_kv_file(updated, path_, &injector),
               std::runtime_error);

  // The torn temp file is rejected by the loader's checks...
  ASSERT_TRUE(std::filesystem::exists(path_ + ".tmp"));
  EXPECT_THROW((void)store::load_kv_file(path_ + ".tmp"),
               std::runtime_error);
  // ...and the primary still carries the previous good snapshot.
  const store::KvStore recovered = store::load_kv_file(path_);
  EXPECT_EQ(recovered.get("plain"), "value");
}

TEST_F(KvFileTest, RejectsTruncatedFile) {
  store::save_kv_file(sample_kv(), path_);
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size / 2);
  EXPECT_THROW((void)store::load_kv_file(path_), std::runtime_error);
}

TEST_F(KvFileTest, RejectsBitFlippedPayload) {
  store::save_kv_file(sample_kv(), path_);
  std::fstream file(path_, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(16);  // inside the payload, past the header
  file.put('X');
  file.close();
  EXPECT_THROW((void)store::load_kv_file(path_), std::runtime_error);
}

TEST_F(KvFileTest, RejectsMissingAndForeignFiles) {
  EXPECT_THROW((void)store::load_kv_file(path_), std::runtime_error);
  std::ofstream(path_) << "not a TEROKV file at all\n";
  EXPECT_THROW((void)store::load_kv_file(path_), std::runtime_error);
}

}  // namespace persistence_tests

namespace pipeline_chaos_tests {
using namespace tero;

struct Scenario {
  synth::World world;
  std::vector<synth::TrueStream> streams;

  explicit Scenario(std::uint64_t seed, std::size_t streamers = 30,
                    int days = 1)
      : world(make_world(seed, streamers)),
        streams(synth::SessionGenerator(world, make_behavior(days), seed + 1)
                    .generate()) {}

  static synth::World make_world(std::uint64_t seed, std::size_t streamers) {
    synth::WorldConfig config;
    config.seed = seed;
    config.num_streamers = streamers;
    config.p_twitter = 0.8;
    return synth::World(config);
  }
  static synth::BehaviorConfig make_behavior(int days) {
    synth::BehaviorConfig behavior;
    behavior.days = days;
    return behavior;
  }
};

core::Dataset run(const Scenario& scenario, fault::FaultInjector* injector,
                  std::size_t threads) {
  core::TeroConfig config;
  config.threads = threads;
  config.injector = injector;
  return core::Pipeline(config).run(scenario.world, scenario.streams);
}

TEST(PipelineChaos, TransientFaultsLeaveDatasetBitIdentical) {
  // The acceptance sweep: >= 10 seeded runs where every injected fault is
  // transient (fails < retry budget) must produce the exact fault-free
  // dataset.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Scenario scenario(seed);
    const std::uint64_t baseline =
        core::dataset_digest(run(scenario, nullptr, 1));
    fault::FaultInjector injector(
        fault::FaultPlan::parse("extract.stream=error@0.4:fails=2", seed));
    const core::Dataset faulted = run(scenario, &injector, 1);
    EXPECT_EQ(core::dataset_digest(faulted), baseline) << "seed " << seed;
    EXPECT_EQ(faulted.funnel.quarantined, 0u) << "seed " << seed;
  }
}

TEST(PipelineChaos, FaultedRunIsThreadCountInvariant) {
  const Scenario scenario(3, 40, 2);
  const auto digest_at = [&](std::size_t threads, const char* spec) {
    fault::FaultInjector injector(fault::FaultPlan::parse(spec, 3));
    return core::dataset_digest(run(scenario, &injector, threads));
  };
  // Same seed + plan => bit-identical dataset at 1 and 8 threads, for both
  // transient and permanent plans.
  EXPECT_EQ(digest_at(1, "extract.stream=error@0.4:fails=2"),
            digest_at(8, "extract.stream=error@0.4:fails=2"));
  EXPECT_EQ(digest_at(1, "extract.stream=crash@0.5"),
            digest_at(8, "extract.stream=crash@0.5"));
}

TEST(PipelineChaos, PermanentFaultsQuarantineExplicitly) {
  const Scenario scenario(5, 40, 2);
  const core::Dataset baseline = run(scenario, nullptr, 1);
  fault::FaultInjector injector(
      fault::FaultPlan::parse("extract.stream=crash@0.5", 5));
  const core::Dataset degraded = run(scenario, &injector, 1);
  // Quarantine is explicit accounting, never silent loss: thumbnails are
  // still counted (they were downloaded), extraction is skipped, and the
  // funnel says so.
  EXPECT_GT(degraded.funnel.quarantined, 0u);
  EXPECT_LE(degraded.funnel.quarantined, degraded.funnel.streamers_located);
  EXPECT_EQ(degraded.funnel.thumbnails, baseline.funnel.thumbnails);
  EXPECT_LT(degraded.funnel.visible, baseline.funnel.visible);
  EXPECT_LT(degraded.entries.size(), baseline.entries.size());
}

}  // namespace pipeline_chaos_tests

namespace serve_chaos_tests {
using namespace tero;

serve::ServeConfig one_shard(fault::FaultInjector* injector) {
  serve::ServeConfig config;
  config.shards = 1;
  config.injector = injector;
  return config;
}

std::vector<serve::SnapshotEntry> sample_entries() {
  const pipeline_chaos_tests::Scenario scenario(2);
  const core::Dataset dataset =
      pipeline_chaos_tests::run(scenario, nullptr, 1);
  serve::ServeConfig config;
  serve::QueryService service(config);
  serve::publish_hook(service)(dataset);
  const auto snapshot = service.snapshot();
  return {snapshot->entries().begin(), snapshot->entries().end()};
}

TEST(ServeChaos, DegradedAnswersAreStaleNeverSilentlyWrong) {
  const auto entries = sample_entries();
  ASSERT_FALSE(entries.empty());
  serve::Query query;
  query.kind = serve::QueryKind::kCount;
  query.location = entries[0].location;
  query.game = entries[0].game;

  serve::QueryService healthy(one_shard(nullptr));
  healthy.publish(entries);
  const auto fresh = healthy.query_admitted(query);
  ASSERT_EQ(fresh.status, serve::QueryStatus::kOk);

  fault::FaultInjector injector(
      fault::FaultPlan::parse("serve.shard-0=error@1:max=3"));
  serve::QueryService flaky(one_shard(&injector));
  flaky.publish(entries);  // epoch 1
  flaky.publish(entries);  // epoch 2; epoch 1 is the degraded fallback
  const auto degraded = flaky.query_admitted(query, 0.0);
  EXPECT_EQ(degraded.status, serve::QueryStatus::kOk);
  EXPECT_TRUE(degraded.stale);
  EXPECT_EQ(degraded.stale_age, 1u);
  EXPECT_EQ(degraded.value, fresh.value);  // last good epoch, same bits
  // The STALE marker is part of the response fingerprint: a degraded
  // answer can never masquerade as a fresh one.
  EXPECT_NE(serve::hash_response(0, degraded), serve::hash_response(0, fresh));
}

TEST(ServeChaos, NoPreviousEpochMeansExplicitlyUnavailable) {
  const auto entries = sample_entries();
  ASSERT_FALSE(entries.empty());
  fault::FaultInjector injector(
      fault::FaultPlan::parse("serve.shard-0=error@1:max=1"));
  serve::QueryService service(one_shard(&injector));
  service.publish(entries);  // first epoch: nothing to degrade to
  serve::Query query;
  query.kind = serve::QueryKind::kCount;
  query.location = entries[0].location;
  query.game = entries[0].game;
  const auto response = service.query_admitted(query, 0.0);
  EXPECT_EQ(response.status, serve::QueryStatus::kUnavailable);
  // The fault plan is drained after one fire; the shard recovers.
  const auto recovered = service.query_admitted(query, 1.0);
  EXPECT_EQ(recovered.status, serve::QueryStatus::kOk);
  EXPECT_FALSE(recovered.stale);
}

TEST(ServeChaos, BreakerOpensSkipsFaultPointThenRecovers) {
  const auto entries = sample_entries();
  ASSERT_FALSE(entries.empty());
  fault::FaultInjector injector(
      fault::FaultPlan::parse("serve.shard-0=error@1:max=7"));
  serve::QueryService service(one_shard(&injector));
  service.publish(entries);
  service.publish(entries);
  serve::Query query;
  query.kind = serve::QueryKind::kCount;
  query.location = entries[0].location;
  query.game = entries[0].game;

  // Default breaker: 5 consecutive failures open it.
  for (int i = 0; i < 5; ++i) {
    const auto r = service.query_admitted(query, 0.1 * i);
    EXPECT_TRUE(r.stale);
  }
  const std::uint64_t fired_before = injector.total_fired();
  const auto while_open = service.query_admitted(query, 5.0);
  EXPECT_TRUE(while_open.stale);
  EXPECT_EQ(injector.total_fired(), fired_before);  // point not consulted

  // Two half-open probes burn the plan's remaining fires (6 and 7), then
  // two clean probes close the breaker; answers are fresh again.
  (void)service.query_admitted(query, 40.0);
  (void)service.query_admitted(query, 80.0);
  (void)service.query_admitted(query, 120.0);
  (void)service.query_admitted(query, 121.0);
  const auto recovered = service.query_admitted(query, 122.0);
  EXPECT_EQ(recovered.status, serve::QueryStatus::kOk);
  EXPECT_FALSE(recovered.stale);
}

TEST(ServeChaos, QueryRunsBreakerOnTheCallersClock) {
  const auto entries = sample_entries();
  ASSERT_FALSE(entries.empty());
  fault::FaultInjector injector(
      fault::FaultPlan::parse("serve.shard-0=error@1:max=1"));
  serve::ServeConfig config = one_shard(&injector);
  config.breaker.failure_threshold = 1;
  config.breaker.cooldown_s = 5.0;
  serve::QueryService service(config);
  service.publish(entries);
  service.publish(entries);
  serve::Query query;
  query.kind = serve::QueryKind::kCount;
  query.location = entries[0].location;
  query.game = entries[0].game;

  // The one fault trips the breaker at virtual time 0.
  EXPECT_TRUE(service.query(query, 0.0).stale);
  ASSERT_EQ(service.breaker_state(0), fault::CircuitBreaker::State::kOpen);
  // Past the cooldown on the same clock, query() lets a half-open probe
  // through; the drained plan makes it a fresh answer. On wall time the
  // breaker would still be open and the answer stale.
  const auto probe = service.query(query, 6.0);
  EXPECT_EQ(probe.status, serve::QueryStatus::kOk);
  EXPECT_FALSE(probe.stale);
  EXPECT_EQ(service.breaker_state(0),
            fault::CircuitBreaker::State::kHalfOpen);
}

}  // namespace serve_chaos_tests
