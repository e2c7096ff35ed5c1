// Range guards: calibration, clamping/NaN-squashing semantics, transparency
// on clean data, and end-to-end SDC reduction under weight faults.
#include "nn/range_guard.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "bayes/fault_network.h"
#include "data/toy2d.h"
#include "inject/random_fi.h"
#include "nn/builders.h"
#include "train/trainer.h"
#include "util/rng.h"

namespace bdlfi::nn {
namespace {

TEST(RangeGuard, UncalibratedIsTransparent) {
  RangeGuard guard;
  Tensor x{Shape{3}, {-5.0f, 0.0f, 1e30f}};
  Tensor y = guard.forward(x, false);
  EXPECT_EQ(Tensor::max_abs_diff(x, y), 0.0f);
  EXPECT_EQ(guard.corrections(), 0u);
}

TEST(RangeGuard, CalibrationRecordsRange) {
  RangeGuard guard(0.0);
  guard.set_calibrating(true);
  Tensor x{Shape{4}, {-2.0f, 1.0f, 3.0f, 0.5f}};
  guard.forward(x, false);
  guard.set_calibrating(false);
  EXPECT_TRUE(guard.is_calibrated());
  EXPECT_FLOAT_EQ(guard.lo(), -2.0f);
  EXPECT_FLOAT_EQ(guard.hi(), 3.0f);
}

TEST(RangeGuard, ClampsOutOfRangeAfterCalibration) {
  RangeGuard guard(0.0);
  guard.set_calibrating(true);
  Tensor calib{Shape{2}, {0.0f, 1.0f}};
  guard.forward(calib, false);
  guard.set_calibrating(false);

  Tensor x{Shape{4}, {-10.0f, 0.5f, 100.0f, 1.0f}};
  Tensor y = guard.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.5f);
  EXPECT_FLOAT_EQ(y[2], 1.0f);
  EXPECT_FLOAT_EQ(y[3], 1.0f);
  EXPECT_EQ(guard.corrections(), 2u);
}

TEST(RangeGuard, NanSquashedToMidpoint) {
  RangeGuard guard(0.0);
  guard.set_calibrating(true);
  Tensor calib{Shape{2}, {0.0f, 2.0f}};
  guard.forward(calib, false);
  guard.set_calibrating(false);

  Tensor x{Shape{1}, {std::nanf("")}};
  Tensor y = guard.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 1.0f);
}

TEST(RangeGuard, MarginWidensRange) {
  RangeGuard guard(0.5);
  guard.set_calibrating(true);
  Tensor calib{Shape{2}, {0.0f, 2.0f}};
  guard.forward(calib, false);
  guard.set_calibrating(false);

  Tensor x{Shape{2}, {-0.9f, 2.9f}};  // within ±50% widening
  Tensor y = guard.forward(x, false);
  EXPECT_EQ(guard.corrections(), 0u);
  EXPECT_EQ(Tensor::max_abs_diff(x, y), 0.0f);
}

TEST(RangeGuard, CalibrationIgnoresNonFinite) {
  RangeGuard guard(0.0);
  guard.set_calibrating(true);
  Tensor calib{Shape{3},
               {1.0f, std::numeric_limits<float>::infinity(), 2.0f}};
  guard.forward(calib, false);
  EXPECT_FLOAT_EQ(guard.hi(), 2.0f);
}

TEST(RangeGuard, AllNonFiniteCalibrationLeavesGuardTransparent) {
  // A calibration batch with no finite value cannot define a range: the guard
  // must stay uncalibrated (and thus transparent), never freeze the empty
  // (+inf, -inf) range and clamp everything to garbage.
  RangeGuard guard(0.0);
  guard.set_calibrating(true);
  Tensor calib{Shape{3},
               {std::nanf(""), std::numeric_limits<float>::infinity(),
                -std::numeric_limits<float>::infinity()}};
  guard.forward(calib, false);
  guard.set_calibrating(false);
  EXPECT_FALSE(guard.is_calibrated());
  Tensor x{Shape{2}, {-1e30f, 1e30f}};
  Tensor y = guard.forward(x, false);
  EXPECT_EQ(Tensor::max_abs_diff(x, y), 0.0f);
  EXPECT_EQ(guard.corrections(), 0u);
}

TEST(RangeGuardDeath, EmptyCalibrationBatchFailsLoudly) {
  util::Rng init{2};
  Network net = make_mlp({2, 8, 2}, init);
  Tensor empty{Shape{0, 2}};
  EXPECT_DEATH((void)add_range_guards(net, empty, 0.1),
               "calibration input batch is empty");
}

class GuardedNetworkTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::Rng rng{1};
    data_ = new data::Dataset(data::make_two_moons(300, 0.08, rng));
    util::Rng init{2};
    net_ = new Network(make_mlp({2, 16, 32, 2}, init));
    train::TrainConfig config;
    config.epochs = 35;
    config.lr = 0.05;
    config.seed = 3;
    train::fit(*net_, *data_, *data_, config);
  }
  static void TearDownTestSuite() {
    delete net_;
    delete data_;
  }
  static Network* net_;
  static data::Dataset* data_;
};

Network* GuardedNetworkTest::net_ = nullptr;
data::Dataset* GuardedNetworkTest::data_ = nullptr;

TEST_F(GuardedNetworkTest, GuardsPreserveCleanPredictions) {
  Network guarded = add_range_guards(*net_, data_->inputs, 0.1);
  EXPECT_EQ(guarded.num_layers(), 2 * net_->num_layers());
  EXPECT_EQ(guarded.predict(data_->inputs), net_->predict(data_->inputs));
  EXPECT_EQ(total_guard_corrections(guarded), 0u);
}

TEST_F(GuardedNetworkTest, GuardsCloneWithCalibration) {
  Network guarded = add_range_guards(*net_, data_->inputs, 0.1);
  Network copy = guarded.clone();
  EXPECT_EQ(copy.predict(data_->inputs), guarded.predict(data_->inputs));
  // The cloned guards must be calibrated too.
  for (std::size_t i = 0; i < copy.num_layers(); ++i) {
    if (auto* guard = dynamic_cast<RangeGuard*>(&copy.layer(i))) {
      EXPECT_TRUE(guard->is_calibrated());
    }
  }
}

TEST_F(GuardedNetworkTest, CloneStartsCounterAtZeroAndTalliesIndependently) {
  // clone() deliberately does not copy corrections_: each chain replica is a
  // fresh deployment of the same calibrated guard, and campaign totals sum
  // per-replica tallies. Identical replicas over identical inputs must
  // produce identical (deterministic) counts.
  Network guarded = add_range_guards(*net_, data_->inputs, 0.0);
  // Out-of-range probe: push inputs far outside the calibrated activation
  // ranges so the first guard fires deterministically.
  Tensor probe = data_->inputs;
  for (std::int64_t i = 0; i < probe.numel(); ++i) probe[i] *= 1e6f;
  (void)guarded.forward(probe, false);
  const std::size_t original = total_guard_corrections(guarded);
  ASSERT_GT(original, 0u);

  Network replica_a = guarded.clone();
  Network replica_b = guarded.clone();
  EXPECT_EQ(total_guard_corrections(replica_a), 0u);
  (void)replica_a.forward(probe, false);
  (void)replica_b.forward(probe, false);
  EXPECT_EQ(total_guard_corrections(replica_a), original);
  EXPECT_EQ(total_guard_corrections(replica_b), original);
  // The original's tally is untouched by its clones.
  EXPECT_EQ(total_guard_corrections(guarded), original);
}

TEST_F(GuardedNetworkTest, FirstForwardCountsEachClampOnce) {
  // A fresh clone has no compiled plan, so its first eval forward compiles
  // one. The compile's shape probe runs on layer clones: it must not add to
  // the live guards' counters, so the first and second forwards over the
  // same input count the same clamps.
  Network replica = add_range_guards(*net_, data_->inputs, 0.0).clone();
  Tensor probe = data_->inputs;
  for (std::int64_t i = 0; i < probe.numel(); ++i) probe[i] *= 1e6f;
  (void)replica.forward(probe, false);
  const std::size_t first = total_guard_corrections(replica);
  ASSERT_GT(first, 0u);
  (void)replica.forward(probe, false);
  EXPECT_EQ(total_guard_corrections(replica), 2 * first);
}

TEST_F(GuardedNetworkTest, GuardsReduceFaultDeviation) {
  const double p = 3e-3;
  bayes::BayesianFaultNetwork plain(
      *net_, bayes::TargetSpec::all_parameters(),
      fault::AvfProfile::uniform(), data_->inputs, data_->labels);

  Network guarded = add_range_guards(*net_, data_->inputs, 0.1);
  // Target only the original layers' parameters (guards have none anyway).
  bayes::BayesianFaultNetwork protected_net(
      guarded, bayes::TargetSpec::all_parameters(),
      fault::AvfProfile::uniform(), data_->inputs, data_->labels);

  inject::RandomFiConfig fi;
  fi.injections = 400;
  fi.seed = 4;
  const auto base = inject::run_random_fi(plain, p, fi);
  const auto hard = inject::run_random_fi(protected_net, p, fi);
  EXPECT_LT(hard.mean_deviation, base.mean_deviation);
  // Guards convert would-be NaN outputs into in-range values: detected↓.
  EXPECT_LE(hard.mean_detected, base.mean_detected);
}

}  // namespace
}  // namespace bdlfi::nn
