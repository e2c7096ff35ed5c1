// Dropout & MC-Dropout: scaling invariants, train/eval/MC-mode semantics,
// backward masking, vote-entropy uncertainty.
#include "nn/dropout.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "data/toy2d.h"
#include "nn/builders.h"
#include "train/trainer.h"
#include "util/rng.h"

namespace bdlfi::nn {
namespace {

TEST(Dropout, EvalModeIsIdentity) {
  Dropout drop(0.5);
  Tensor x = Tensor::arange(Shape{4, 4});
  Tensor y = drop.forward(x, /*training=*/false);
  EXPECT_EQ(Tensor::max_abs_diff(x, y), 0.0f);
}

TEST(Dropout, ZeroRateIsIdentityEvenInTraining) {
  Dropout drop(0.0);
  Tensor x = Tensor::arange(Shape{2, 8});
  Tensor y = drop.forward(x, true);
  EXPECT_EQ(Tensor::max_abs_diff(x, y), 0.0f);
}

TEST(Dropout, TrainingDropsAndRescales) {
  Dropout drop(0.5, /*seed=*/7);
  Tensor x = Tensor::full(Shape{10000}, 1.0f);
  Tensor y = drop.forward(x, true);
  std::size_t zeros = 0;
  double sum = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(y[i], 2.0f);  // inverted-dropout scale 1/(1-0.5)
    }
    sum += y[i];
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.5, 0.03);
  EXPECT_NEAR(sum / 10000.0, 1.0, 0.05);  // expectation preserved
}

TEST(Dropout, BackwardMasksMatchForward) {
  Dropout drop(0.3, 11);
  Tensor x = Tensor::full(Shape{100}, 3.0f);
  Tensor y = drop.forward(x, true);
  Tensor grad = drop.backward(Tensor::full(Shape{100}, 1.0f));
  for (std::int64_t i = 0; i < 100; ++i) {
    if (y[i] == 0.0f) {
      EXPECT_EQ(grad[i], 0.0f);
    } else {
      EXPECT_NEAR(grad[i], 1.0f / 0.7f, 1e-5f);
    }
  }
}

TEST(Dropout, McModeSamplesDuringEval) {
  Dropout drop(0.5, 13);
  drop.set_mc_mode(true);
  Tensor x = Tensor::full(Shape{1000}, 1.0f);
  Tensor a = drop.forward(x, false);
  Tensor b = drop.forward(x, false);
  EXPECT_NE(Tensor::max_abs_diff(a, b), 0.0f);  // different stochastic masks
}

TEST(Dropout, CloneCarriesConfig) {
  Dropout drop(0.25, 17);
  drop.set_mc_mode(true);
  auto copy = drop.clone();
  auto* dc = static_cast<Dropout*>(copy.get());
  EXPECT_EQ(dc->rate(), 0.25);
  EXPECT_TRUE(dc->mc_mode());
}

TEST(Dropout, InvalidRateAborts) {
  EXPECT_DEATH(Dropout(1.0), "rate");
  EXPECT_DEATH(Dropout(-0.1), "rate");
}

TEST(McDropout, SetModeFindsAllLayers) {
  util::Rng rng{1};
  Network net = make_mlp_dropout({2, 16, 16, 2}, 0.2, rng);
  EXPECT_EQ(set_mc_dropout(net, true), 2u);
  EXPECT_EQ(set_mc_dropout(net, false), 2u);
  Network plain = make_mlp({2, 8, 2}, rng);
  EXPECT_EQ(set_mc_dropout(plain, true), 0u);
}

TEST(McDropout, EntropyZeroWithoutMcMode) {
  util::Rng rng{2};
  Network net = make_mlp_dropout({2, 8, 2}, 0.3, rng);
  Tensor x{Shape{5, 2}};
  const auto result = mc_dropout_predict(net, x, 10);
  // MC mode off → deterministic forwards → all passes agree.
  for (double h : result.vote_entropy) EXPECT_EQ(h, 0.0);
}

TEST(McDropout, UncertaintyHigherNearBoundary) {
  util::Rng data_rng{3};
  data::Dataset ds = data::make_two_moons(400, 0.1, data_rng);
  util::Rng init{4};
  Network net = make_mlp_dropout({2, 24, 24, 2}, 0.2, init);
  train::TrainConfig config;
  config.epochs = 40;
  config.lr = 0.05;
  config.seed = 5;
  train::fit(net, ds, ds, config);

  set_mc_dropout(net, true);
  // Probe one deep-in-class point and one on the class boundary.
  Tensor probes{Shape{2, 2}, {/*deep in class 0*/ -0.8f, 0.9f,
                              /*between moons*/ 0.5f, 0.25f}};
  const auto result = mc_dropout_predict(net, probes, 60);
  EXPECT_LE(result.vote_entropy[0], result.vote_entropy[1]);
}

TEST(McDropout, TrainingWithDropoutStillLearns) {
  util::Rng data_rng{6};
  data::Dataset ds = data::make_blobs(300, 3, 3.0, 0.3, data_rng);
  util::Rng init{7};
  Network net = make_mlp_dropout({2, 24, 3}, 0.2, init);
  train::TrainConfig config;
  config.epochs = 40;
  config.lr = 0.05;
  config.seed = 8;
  const auto result = train::fit(net, ds, ds, config);
  EXPECT_GT(result.final_test_accuracy, 0.9);
}

TEST(McDropout, McModeRunsThePlanBitExactWithTheLayerLoop) {
  // MC-mode networks run eval forwards through the compiled plan. Its shape
  // probe samples from layer clones, so the live RNG streams stay in step
  // with a clone driven layer by layer.
  util::Rng rng{6};
  Network net = make_mlp_dropout({2, 16, 16, 2}, 0.3, rng);
  set_mc_dropout(net, true);
  Network reference = net.clone();
  util::Rng data_rng{7};
  const Tensor x = Tensor::randn(Shape{8, 2}, data_rng, 0.0f, 1.0f);
  for (int pass = 0; pass < 3; ++pass) {
    const Tensor planned = net.forward(x, false);
    ASSERT_NE(net.plan_for(x.shape()), nullptr);
    Tensor act = x;
    for (std::size_t i = 0; i < reference.num_layers(); ++i) {
      act = reference.layer(i).forward(act, false);
    }
    ASSERT_EQ(planned.shape(), act.shape());
    EXPECT_EQ(std::memcmp(planned.data(), act.data(),
                          static_cast<std::size_t>(act.numel()) *
                              sizeof(float)),
              0)
        << "pass " << pass;
  }
}

TEST(McDropout, MajorityVoteMatchesSinglePassWhenDeterministic) {
  util::Rng rng{9};
  Network net = make_mlp({2, 8, 3}, rng);
  Tensor x = Tensor::randn(Shape{7, 2}, rng);
  const auto mc = mc_dropout_predict(net, x, 5);
  EXPECT_EQ(mc.predictions, net.predict(x));
}

}  // namespace
}  // namespace bdlfi::nn
