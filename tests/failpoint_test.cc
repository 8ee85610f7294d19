// Unit tests for the fault-injection primitives: Failpoint schedules, key
// filters, fire limits, byte corruption, the registry spec/env parsers, and
// the RetryPolicy / RetryWithBackoff helper they pair with.

#include "common/failpoint.h"

#include <climits>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/retry.h"
#include "common/status.h"

namespace churnlab {
namespace {

// Each test arms only sites under its own unique prefix, and a fixture
// disarms everything afterwards: the registry is process-wide and the suite
// shares one process.
class FailpointTest : public testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Global().DisarmAll(); }
};

TEST_F(FailpointTest, GetReturnsOnePointerPerSite) {
  Failpoint* a = FailpointRegistry::Global().Get("fp_test.identity");
  Failpoint* b = FailpointRegistry::Global().Get("fp_test.identity");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->site(), "fp_test.identity");
  EXPECT_EQ(a->span_name(), "failpoint.fp_test.identity");
  EXPECT_FALSE(a->armed());
}

TEST_F(FailpointTest, AlwaysScheduleFiresEveryHit) {
  Failpoint* fp = FailpointRegistry::Global().Get("fp_test.always");
  FailpointConfig config;
  config.action = FailpointAction::kError;
  fp->Arm(config);
  EXPECT_TRUE(fp->armed());
  for (int i = 0; i < 3; ++i) {
    const Status status = fp->Evaluate();
    EXPECT_TRUE(status.IsInternal());
    EXPECT_NE(status.ToString().find("fp_test.always"), std::string::npos);
  }
  EXPECT_EQ(fp->hits(), 3u);
  EXPECT_EQ(fp->fires(), 3u);
  fp->Disarm();
  EXPECT_FALSE(fp->armed());
}

TEST_F(FailpointTest, EveryNFiresOnMultiplesOfN) {
  Failpoint* fp = FailpointRegistry::Global().Get("fp_test.every");
  FailpointConfig config;
  config.action = FailpointAction::kError;
  config.schedule = FailpointConfig::Schedule::kEveryN;
  config.schedule_n = 3;
  fp->Arm(config);
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) fired.push_back(!fp->Evaluate().ok());
  const std::vector<bool> expected = {false, false, true, false, false,
                                      true,  false, false, true};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(fp->fires(), 3u);
}

TEST_F(FailpointTest, NthFiresExactlyOnce) {
  Failpoint* fp = FailpointRegistry::Global().Get("fp_test.nth");
  FailpointConfig config;
  config.action = FailpointAction::kError;
  config.schedule = FailpointConfig::Schedule::kNth;
  config.schedule_n = 2;
  fp->Arm(config);
  EXPECT_TRUE(fp->Evaluate().ok());
  EXPECT_FALSE(fp->Evaluate().ok());
  EXPECT_TRUE(fp->Evaluate().ok());
  EXPECT_TRUE(fp->Evaluate().ok());
  EXPECT_EQ(fp->fires(), 1u);
}

TEST_F(FailpointTest, KeyFilterOnlyCountsMatchingHits) {
  Failpoint* fp = FailpointRegistry::Global().Get("fp_test.keyed");
  FailpointConfig config;
  config.action = FailpointAction::kError;
  config.has_key = true;
  config.key = 7;
  fp->Arm(config);
  EXPECT_TRUE(fp->Evaluate(1).ok());
  EXPECT_TRUE(fp->Evaluate(6).ok());
  EXPECT_FALSE(fp->Evaluate(7).ok());
  EXPECT_TRUE(fp->Evaluate(8).ok());
  // Non-matching keys do not even count as hits toward the schedule.
  EXPECT_EQ(fp->hits(), 1u);
  EXPECT_EQ(fp->fires(), 1u);
}

TEST_F(FailpointTest, LimitCapsTotalFires) {
  Failpoint* fp = FailpointRegistry::Global().Get("fp_test.limited");
  FailpointConfig config;
  config.action = FailpointAction::kError;
  config.limit = 2;
  fp->Arm(config);
  int injected = 0;
  for (int i = 0; i < 10; ++i) injected += fp->Evaluate().ok() ? 0 : 1;
  EXPECT_EQ(injected, 2);
  EXPECT_EQ(fp->fires(), 2u);
}

TEST_F(FailpointTest, RearmingResetsCounters) {
  Failpoint* fp = FailpointRegistry::Global().Get("fp_test.rearm");
  FailpointConfig config;
  config.action = FailpointAction::kError;
  fp->Arm(config);
  EXPECT_FALSE(fp->Evaluate().ok());
  EXPECT_EQ(fp->hits(), 1u);
  fp->Arm(config);
  EXPECT_EQ(fp->hits(), 0u);
  EXPECT_EQ(fp->fires(), 0u);
}

TEST_F(FailpointTest, ThrowActionThrowsWithSite) {
  Failpoint* fp = FailpointRegistry::Global().Get("fp_test.throwing");
  FailpointConfig config;
  config.action = FailpointAction::kThrow;
  fp->Arm(config);
  try {
    (void)fp->Evaluate();
    FAIL() << "expected FailpointException";
  } catch (const FailpointException& e) {
    EXPECT_EQ(e.site(), "fp_test.throwing");
  }
}

TEST_F(FailpointTest, DelayActionReturnsOkAfterSleeping) {
  Failpoint* fp = FailpointRegistry::Global().Get("fp_test.delayed");
  FailpointConfig config;
  config.action = FailpointAction::kDelay;
  config.delay_ms = 1.0;
  fp->Arm(config);
  EXPECT_TRUE(fp->Evaluate().ok());
  EXPECT_EQ(fp->fires(), 1u);
}

TEST_F(FailpointTest, CorruptBytesFlipsExactlyOneBitDeterministically) {
  const std::string pristine(64, '\0');
  std::string first = pristine;
  {
    Failpoint* fp = FailpointRegistry::Global().Get("fp_test.corrupt_a");
    FailpointConfig config;
    config.action = FailpointAction::kCorruptBytes;
    fp->Arm(config);
    ASSERT_TRUE(fp->CorruptBytes(&first).ok());
  }
  // Exactly one bit differs from the pristine buffer.
  int bits_flipped = 0;
  for (size_t i = 0; i < pristine.size(); ++i) {
    unsigned diff = static_cast<unsigned char>(first[i]) ^
                    static_cast<unsigned char>(pristine[i]);
    while (diff != 0) {
      bits_flipped += diff & 1u;
      diff >>= 1;
    }
  }
  EXPECT_EQ(bits_flipped, 1);

  // A fresh failpoint's first fire corrupts the same position: the flip is
  // a function of the fire ordinal, not of any global state.
  std::string second = pristine;
  {
    Failpoint* fp = FailpointRegistry::Global().Get("fp_test.corrupt_b");
    FailpointConfig config;
    config.action = FailpointAction::kCorruptBytes;
    fp->Arm(config);
    ASSERT_TRUE(fp->CorruptBytes(&second).ok());
  }
  EXPECT_EQ(first, second);
}

TEST_F(FailpointTest, CorruptBytesLeavesEmptyBuffersAlone) {
  Failpoint* fp = FailpointRegistry::Global().Get("fp_test.corrupt_empty");
  FailpointConfig config;
  config.action = FailpointAction::kCorruptBytes;
  fp->Arm(config);
  std::string empty;
  EXPECT_TRUE(fp->CorruptBytes(&empty).ok());
  EXPECT_TRUE(empty.empty());
}

TEST_F(FailpointTest, ArmFromSpecArmsEveryEntry) {
  FailpointRegistry& registry = FailpointRegistry::Global();
  ASSERT_TRUE(registry
                  .ArmFromSpec("fp_test.spec_a=error@every(10);"
                               "fp_test.spec_b=delay(5)@nth(3)@key(9);"
                               "fp_test.spec_c=corrupt-bytes@limit(2)")
                  .ok());
  EXPECT_TRUE(registry.Get("fp_test.spec_a")->armed());
  EXPECT_TRUE(registry.Get("fp_test.spec_b")->armed());
  EXPECT_TRUE(registry.Get("fp_test.spec_c")->armed());

  // spec_a: error on hits 10, 20, ...
  Failpoint* a = registry.Get("fp_test.spec_a");
  for (int i = 0; i < 9; ++i) EXPECT_TRUE(a->Evaluate().ok());
  EXPECT_FALSE(a->Evaluate().ok());

  // spec_b: delay, keyed to 9, third matching hit only.
  Failpoint* b = registry.Get("fp_test.spec_b");
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(b->Evaluate(1).ok());
  EXPECT_TRUE(b->Evaluate(9).ok());
  EXPECT_TRUE(b->Evaluate(9).ok());
  EXPECT_EQ(b->fires(), 0u);
  EXPECT_TRUE(b->Evaluate(9).ok());  // delay action: OK after sleeping
  EXPECT_EQ(b->fires(), 1u);
}

TEST_F(FailpointTest, ArmFromSpecIgnoresEmptyEntries) {
  ASSERT_TRUE(
      FailpointRegistry::Global().ArmFromSpec(";;fp_test.spec_d=throw;").ok());
  EXPECT_TRUE(FailpointRegistry::Global().Get("fp_test.spec_d")->armed());
  EXPECT_TRUE(FailpointRegistry::Global().ArmFromSpec("").ok());
}

TEST_F(FailpointTest, ArmFromSpecRejectsMalformedEntries) {
  FailpointRegistry& registry = FailpointRegistry::Global();
  for (const char* bad :
       {"no-equals", "site=", "site=unknown-action", "site=error@unknown",
        "site=delay(oops)", "site=error@every(zero)", "site=error@every(0)",
        "site=delay", "site=abort(0)", "site=abort(256)", "site=abort(oops)",
        "site=abort()"}) {
    const Status status = registry.ArmFromSpec(bad);
    EXPECT_TRUE(status.IsInvalidArgument()) << "spec: " << bad << " -> "
                                            << status.ToString();
  }
}

TEST_F(FailpointTest, AbortActionKillsTheProcessWithItsExitCode) {
  // The chaos-harness primitive: firing must end the process immediately
  // (std::_Exit — no atexit flushes, like a kill -9 landing on that line),
  // with the configured exit code observable by the supervising script.
  EXPECT_EXIT(
      {
        Failpoint* fp = FailpointRegistry::Global().Get("fp_test.abort");
        FailpointConfig config;
        config.action = FailpointAction::kAbort;
        (void)fp;
        fp->Arm(config);
        (void)fp->Evaluate();
      },
      testing::ExitedWithCode(42), "");
  EXPECT_EXIT(
      {
        ASSERT_TRUE(FailpointRegistry::Global()
                        .ArmFromSpec("fp_test.abort_spec=abort(7)@nth(2)")
                        .ok());
        Failpoint* fp = FailpointRegistry::Global().Get("fp_test.abort_spec");
        (void)fp->Evaluate();  // hit 1: schedule not yet due
        (void)fp->Evaluate();  // hit 2: aborts
        std::_Exit(99);        // unreachable when the failpoint fired
      },
      testing::ExitedWithCode(7), "");
}

TEST_F(FailpointTest, AbortSpecParsesWithoutFiringOnArm) {
  FailpointRegistry& registry = FailpointRegistry::Global();
  // Arming alone must never abort — only an Evaluate hit may.
  ASSERT_TRUE(registry.ArmFromSpec("fp_test.abort_armed=abort").ok());
  ASSERT_TRUE(
      registry.ArmFromSpec("fp_test.abort_coded=abort(255)@key(4)").ok());
  EXPECT_TRUE(registry.Get("fp_test.abort_armed")->armed());
  EXPECT_TRUE(registry.Get("fp_test.abort_coded")->armed());
  // A keyed abort ignores non-matching keys entirely.
  EXPECT_TRUE(registry.Get("fp_test.abort_coded")->Evaluate(3).ok());
}

TEST_F(FailpointTest, ArmFromEnvReadsTheSpecVariable) {
  ASSERT_EQ(setenv("CHURNLAB_FAILPOINTS", "fp_test.env=error", 1), 0);
  EXPECT_TRUE(FailpointRegistry::Global().ArmFromEnv().ok());
  EXPECT_TRUE(FailpointRegistry::Global().Get("fp_test.env")->armed());
  ASSERT_EQ(unsetenv("CHURNLAB_FAILPOINTS"), 0);
  // Unset: a no-op, not an error.
  EXPECT_TRUE(FailpointRegistry::Global().ArmFromEnv().ok());
}

TEST_F(FailpointTest, ArmedListsArmedSitesSorted) {
  FailpointRegistry& registry = FailpointRegistry::Global();
  ASSERT_TRUE(
      registry.ArmFromSpec("fp_test.z=error;fp_test.a=error").ok());
  const std::vector<Failpoint*> armed = registry.Armed();
  ASSERT_EQ(armed.size(), 2u);
  EXPECT_EQ(armed[0]->site(), "fp_test.a");
  EXPECT_EQ(armed[1]->site(), "fp_test.z");
  registry.DisarmAll();
  EXPECT_TRUE(registry.Armed().empty());
}

TEST_F(FailpointTest, ObserverSeesEveryFire) {
  class CountingObserver : public FailpointObserver {
   public:
    void OnTrigger(const Failpoint& failpoint,
                   FailpointAction action) override {
      ++count;
      last_site = failpoint.site();
      last_action = action;
    }
    int count = 0;
    std::string last_site;
    FailpointAction last_action = FailpointAction::kError;
  };
  CountingObserver observer;
  FailpointRegistry::SetObserver(&observer);
  Failpoint* fp = FailpointRegistry::Global().Get("fp_test.observed");
  FailpointConfig config;
  config.action = FailpointAction::kError;
  config.schedule = FailpointConfig::Schedule::kEveryN;
  config.schedule_n = 2;
  fp->Arm(config);
  for (int i = 0; i < 4; ++i) (void)fp->Evaluate();
  FailpointRegistry::SetObserver(nullptr);
  EXPECT_EQ(observer.count, 2);
  EXPECT_EQ(observer.last_site, "fp_test.observed");
  EXPECT_EQ(observer.last_action, FailpointAction::kError);
}

// --- RetryPolicy / RetryWithBackoff ----------------------------------------

TEST(RetryPolicy, BackoffGrowsGeometricallyAndCaps) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 2.0;
  policy.multiplier = 3.0;
  policy.max_backoff_ms = 10.0;
  EXPECT_DOUBLE_EQ(policy.BackoffMs(1), 2.0);
  EXPECT_DOUBLE_EQ(policy.BackoffMs(2), 6.0);
  EXPECT_DOUBLE_EQ(policy.BackoffMs(3), 10.0);  // capped, would be 18
}

TEST(RetryWithBackoff, ReturnsFirstSuccess) {
  RetryPolicy policy;
  policy.max_retries = 3;
  policy.initial_backoff_ms = 0.0;
  int attempts = 0;
  int retries_observed = 0;
  const Status status = RetryWithBackoff(
      policy,
      [&]() -> Status {
        return ++attempts < 3 ? Status::Internal("transient") : Status::OK();
      },
      [&](int retry, const Status& cause) {
        retries_observed = retry;
        EXPECT_TRUE(cause.IsInternal());
      });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(retries_observed, 2);
}

TEST(RetryWithBackoff, ReturnsLastFailureWhenExhausted) {
  RetryPolicy policy;
  policy.max_retries = 2;
  policy.initial_backoff_ms = 0.0;
  int attempts = 0;
  const Status status = RetryWithBackoff(policy, [&]() -> Status {
    ++attempts;
    return Status::Internal("attempt " + std::to_string(attempts));
  });
  EXPECT_TRUE(status.IsInternal());
  EXPECT_NE(status.ToString().find("attempt 3"), std::string::npos);
  EXPECT_EQ(attempts, 3);
}

TEST(RetryWithBackoff, ZeroRetriesRunsOnce) {
  RetryPolicy policy;
  policy.max_retries = 0;
  int attempts = 0;
  const Status status = RetryWithBackoff(policy, [&]() -> Status {
    ++attempts;
    return Status::Internal("nope");
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(attempts, 1);
}

TEST(RetryWithBackoff, ProgressRestartsTheRetryCount) {
  // Each attempt gets one step further until step 5, then sticks there.
  // With max_retries = 1, every advancing attempt starts a fresh budget at
  // retry 1; the stuck step gets its one retry and the call fails.
  RetryPolicy policy;
  policy.max_retries = 1;
  policy.initial_backoff_ms = 0.0;
  int attempts = 0;
  int done = 0;
  int reached = 0;
  std::vector<int> retries;
  const Status status = RetryWithBackoff(
      policy,
      [&]() -> Status {
        ++attempts;
        if (done < 5) ++done;
        return Status::Internal("transient");
      },
      [&](int retry, const Status&) { retries.push_back(retry); },
      [&] {
        if (done == reached) return false;
        reached = done;
        return true;
      });
  EXPECT_TRUE(status.IsInternal());
  EXPECT_EQ(attempts, 6);
  EXPECT_EQ(retries, std::vector<int>(5, 1));
}

TEST(RetryPolicy, BackoffClampsAtHighAttemptCounts) {
  // Regression: multiplier^k used to be accumulated by repeated
  // multiplication into a double that overflowed to inf past ~attempt 60
  // with large multipliers, and an integer backoff variant wrapped
  // negative. High retry numbers must pin to the cap, never wrap.
  RetryPolicy policy;
  policy.initial_backoff_ms = 1.0;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 50.0;
  for (const int retry : {63, 64, 100, 1000000, INT_MAX}) {
    EXPECT_DOUBLE_EQ(policy.BackoffMs(retry), 50.0) << "retry " << retry;
  }
}

TEST(RetryPolicy, BackoffHandlesOverflowingMultiplier) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 1.0;
  policy.multiplier = 1e308;  // multiplier^2 alone is not finite
  policy.max_backoff_ms = 25.0;
  EXPECT_DOUBLE_EQ(policy.BackoffMs(1), 1.0);   // multiplier^0, no cap yet
  EXPECT_DOUBLE_EQ(policy.BackoffMs(3), 25.0);  // inf clamped to the cap
  EXPECT_DOUBLE_EQ(policy.BackoffMs(INT_MAX), 25.0);
}

TEST(RetryWithBackoff, MaxIntRetriesDoesNotOverflowAttemptCount) {
  // Regression: `1 + max_retries` as int overflowed to INT_MIN for
  // max_retries = INT_MAX and the loop never ran. The attempt budget is
  // now widened, so the function keeps retrying and returns the first OK.
  RetryPolicy policy;
  policy.max_retries = INT_MAX;
  policy.initial_backoff_ms = 0.0;
  policy.max_backoff_ms = 0.0;
  int attempts = 0;
  const Status status = RetryWithBackoff(policy, [&]() -> Status {
    return ++attempts < 3 ? Status::Internal("transient") : Status::OK();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(attempts, 3);
}

TEST(RetryWithBackoff, CapturesExceptionsAsInternal) {
  RetryPolicy policy;
  policy.max_retries = 1;
  policy.initial_backoff_ms = 0.0;
  int attempts = 0;
  const Status status = RetryWithBackoff(policy, [&]() -> Status {
    if (++attempts == 1) throw FailpointException("fp_test.retry");
    return Status::OK();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(attempts, 2);

  const Status exhausted = RetryWithBackoff(
      RetryPolicy{0, 0.0, 2.0, 0.0},
      []() -> Status { throw std::runtime_error("boom"); });
  EXPECT_TRUE(exhausted.IsInternal());
  EXPECT_NE(exhausted.ToString().find("boom"), std::string::npos);
}

}  // namespace
}  // namespace churnlab
