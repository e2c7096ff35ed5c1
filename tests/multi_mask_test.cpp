// Batched multi-mask evaluation must be indistinguishable from sequential
// evaluation: for every target kind, batch size, and kernel backend, the
// outcomes returned by BayesianFaultNetwork::evaluate(EvalRequest) must
// be bit-identical (field by field) to evaluate_mask run on each mask in
// order, and the truncated-replay accounting must match per mask. The
// kernel-level contracts underneath — gemm_variants vs gemm_rows and
// conv2d_forward_multi vs conv2d_forward — are checked bitwise too.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "bayes/fault_network.h"
#include "bayes/multi_mask.h"
#include "bayes/targets.h"
#include "data/cifar_like.h"
#include "data/toy2d.h"
#include "inject/random_fi.h"
#include "mcmc/gibbs.h"
#include "mcmc/mh.h"
#include "nn/builders.h"
#include "nn/range_guard.h"
#include "tensor/backend/backend.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace bdlfi::bayes {
namespace {

using tensor::Tensor;

void expect_outcomes_equal(const MaskOutcome& seq, const MaskOutcome& bat) {
  EXPECT_DOUBLE_EQ(seq.classification_error, bat.classification_error);
  EXPECT_DOUBLE_EQ(seq.deviation, bat.deviation);
  EXPECT_DOUBLE_EQ(seq.detected, bat.detected);
  EXPECT_DOUBLE_EQ(seq.sdc, bat.sdc);
  EXPECT_EQ(seq.flipped_bits, bat.flipped_bits);
  EXPECT_EQ(seq.outcome, bat.outcome);
  EXPECT_EQ(seq.abft_detected_rows, bat.abft_detected_rows);
  EXPECT_EQ(seq.abft_corrected_rows, bat.abft_corrected_rows);
  EXPECT_EQ(seq.abft_faults_injected, bat.abft_faults_injected);
  EXPECT_EQ(seq.guard_corrections, bat.guard_corrections);
}

void expect_stats_equal(const EvalStats& seq, const EvalStats& bat) {
  EXPECT_EQ(seq.full_evals, bat.full_evals);
  EXPECT_EQ(seq.truncated_evals, bat.truncated_evals);
  EXPECT_EQ(seq.layers_run, bat.layers_run);
  EXPECT_EQ(seq.layers_total, bat.layers_total);
}

struct Subject {
  nn::Network net;
  Tensor inputs;
  std::vector<std::int64_t> labels;
};

Subject make_mlp_subject() {
  util::Rng data_rng{301};
  data::Dataset data = data::make_two_moons(32, 0.08, data_rng);
  util::Rng init{302};
  return {nn::make_mlp({2, 8, 8, 2}, init), data.inputs, data.labels};
}

Subject make_resnet_subject() {
  data::CifarLikeConfig config;
  config.samples_per_class = 2;
  config.num_classes = 4;
  config.image_size = 8;
  util::Rng data_rng{303};
  data::Dataset data = data::make_cifar_like(config, data_rng);
  nn::ResNetConfig net_config;
  net_config.width_multiplier = 0.0625;
  net_config.num_classes = 4;
  util::Rng init{304};
  return {nn::make_resnet18(net_config, init), data.inputs, data.labels};
}

TargetSpec everything_spec() {
  TargetSpec spec = TargetSpec::all_parameters();
  spec.include_buffers = true;
  spec.include_input = true;
  spec.include_activations = true;
  return spec;
}

// Evaluates the same mask list sequentially and batched (fresh instances, so
// the replay accounting starts at zero on both sides) and requires exact
// agreement, across a spread of batch sizes.
void check_parity(const Subject& subject, const TargetSpec& spec, double p,
                  std::uint64_t seed, std::size_t num_masks = 12) {
  for (const std::size_t mask_batch : {std::size_t{1}, std::size_t{2},
                                       std::size_t{7}, std::size_t{32}}) {
    SCOPED_TRACE("mask_batch=" + std::to_string(mask_batch));
    BayesianFaultNetwork seq(subject.net, spec, fault::AvfProfile::uniform(),
                             subject.inputs, subject.labels);
    BayesianFaultNetwork bat(subject.net, spec, fault::AvfProfile::uniform(),
                             subject.inputs, subject.labels);

    util::Rng rng{seed};
    std::vector<FaultMask> masks;
    masks.push_back(FaultMask{});  // empty mask rides along
    while (masks.size() < num_masks) {
      masks.push_back(seq.sample_prior_mask(p, rng));
    }

    std::vector<MaskOutcome> expected;
    expected.reserve(masks.size());
    for (const auto& mask : masks) expected.push_back(seq.evaluate_mask(mask));
    const std::vector<MaskOutcome> got =
        bat.evaluate({masks, mask_batch}).outcomes;

    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      SCOPED_TRACE("mask " + std::to_string(i));
      expect_outcomes_equal(expected[i], got[i]);
    }
    expect_stats_equal(seq.eval_stats(), bat.eval_stats());
  }
}

TEST(MultiMaskParity, MlpEverything) {
  check_parity(make_mlp_subject(), everything_spec(), 0.004, 401);
}

TEST(MultiMaskParity, ResnetEverything) {
  // Mixed site kinds → mixed replay-begin groups, including input (begin 0)
  // and late activations.
  check_parity(make_resnet_subject(), everything_spec(), 2e-5, 402);
}

TEST(MultiMaskParity, ResnetWeightsOnly) {
  check_parity(make_resnet_subject(), TargetSpec::weights_only(), 1e-4, 403);
}

TEST(MultiMaskParity, ResnetNoCacheFullForwardGroups) {
  // With the cache disabled every mask lands in the begin-0 group.
  TargetSpec spec = TargetSpec::all_parameters();
  const Subject subject = make_resnet_subject();
  for (const std::size_t mask_batch : {std::size_t{1}, std::size_t{4}}) {
    EvalCacheConfig no_cache;
    no_cache.enable_truncated_replay = false;
    BayesianFaultNetwork seq(subject.net, spec, fault::AvfProfile::uniform(),
                             subject.inputs, subject.labels, no_cache);
    BayesianFaultNetwork bat(subject.net, spec, fault::AvfProfile::uniform(),
                             subject.inputs, subject.labels, no_cache);
    util::Rng rng{404};
    std::vector<FaultMask> masks;
    for (int i = 0; i < 6; ++i) masks.push_back(seq.sample_prior_mask(1e-4, rng));
    std::vector<MaskOutcome> expected;
    for (const auto& m : masks) expected.push_back(seq.evaluate_mask(m));
    const auto got = bat.evaluate({masks, mask_batch}).outcomes;
    for (std::size_t i = 0; i < masks.size(); ++i) {
      expect_outcomes_equal(expected[i], got[i]);
    }
    expect_stats_equal(seq.eval_stats(), bat.eval_stats());
    EXPECT_EQ(bat.eval_stats().truncated_evals, 0u);
  }
}

TEST(MultiMaskParity, Avx2BackendBitExact) {
  if (!tensor::backend::avx2_supported()) GTEST_SKIP() << "no AVX2";
  ASSERT_TRUE(tensor::backend::set_active("avx2"));
  // Subjects are built under the active backend so the golden capture and
  // every evaluation share one kernel table.
  check_parity(make_resnet_subject(), everything_spec(), 2e-5, 405);
  ASSERT_TRUE(tensor::backend::set_active("scalar"));
}

TEST(MultiMaskFallback, ComputeFaultMasksTakeSequentialPath) {
  const Subject subject = make_mlp_subject();
  const TargetSpec spec = TargetSpec::compute_only();
  BayesianFaultNetwork seq(subject.net, spec, fault::AvfProfile::uniform(),
                           subject.inputs, subject.labels);
  BayesianFaultNetwork bat(subject.net, spec, fault::AvfProfile::uniform(),
                           subject.inputs, subject.labels);
  util::Rng rng{406};
  std::vector<FaultMask> masks;
  for (int i = 0; i < 5; ++i) masks.push_back(seq.sample_prior_mask(0.002, rng));
  std::vector<MaskOutcome> expected;
  for (const auto& m : masks) expected.push_back(seq.evaluate_mask(m));
  const auto got = bat.evaluate({masks, 4}).outcomes;
  for (std::size_t i = 0; i < masks.size(); ++i) {
    expect_outcomes_equal(expected[i], got[i]);
  }
  expect_stats_equal(seq.eval_stats(), bat.eval_stats());
}

TEST(MultiMaskFallback, AbftCheckingForcesSequential) {
  Subject subject = make_mlp_subject();
  tensor::abft::Config abft;
  abft.mode = tensor::abft::Mode::kDetect;
  subject.net.set_abft(abft);
  BayesianFaultNetwork seq(subject.net, TargetSpec::all_parameters(),
                           fault::AvfProfile::uniform(), subject.inputs,
                           subject.labels);
  BayesianFaultNetwork bat(subject.net, TargetSpec::all_parameters(),
                           fault::AvfProfile::uniform(), subject.inputs,
                           subject.labels);
  EXPECT_FALSE(MultiMaskEvaluator(bat).batchable());
  util::Rng rng{407};
  std::vector<FaultMask> masks;
  for (int i = 0; i < 4; ++i) masks.push_back(seq.sample_prior_mask(0.004, rng));
  std::vector<MaskOutcome> expected;
  for (const auto& m : masks) expected.push_back(seq.evaluate_mask(m));
  const auto got = bat.evaluate({masks, 4}).outcomes;
  for (std::size_t i = 0; i < masks.size(); ++i) {
    expect_outcomes_equal(expected[i], got[i]);
  }
}

TEST(MultiMaskFallback, RangeGuardsForceSequential) {
  Subject subject = make_mlp_subject();
  subject.net.add("guard", std::make_unique<nn::RangeGuard>());
  BayesianFaultNetwork seq(subject.net, TargetSpec::all_parameters(),
                           fault::AvfProfile::uniform(), subject.inputs,
                           subject.labels);
  BayesianFaultNetwork bat(subject.net, TargetSpec::all_parameters(),
                           fault::AvfProfile::uniform(), subject.inputs,
                           subject.labels);
  EXPECT_FALSE(MultiMaskEvaluator(bat).batchable());
  util::Rng rng{408};
  std::vector<FaultMask> masks;
  for (int i = 0; i < 4; ++i) masks.push_back(seq.sample_prior_mask(0.004, rng));
  std::vector<MaskOutcome> expected;
  for (const auto& m : masks) expected.push_back(seq.evaluate_mask(m));
  const auto got = bat.evaluate({masks, 4}).outcomes;
  for (std::size_t i = 0; i < masks.size(); ++i) {
    expect_outcomes_equal(expected[i], got[i]);
  }
}

// --- Kernel contracts --------------------------------------------------------

void check_gemm_variants(const tensor::backend::KernelBackend& be) {
  const std::int64_t m = 7, n = 13, k = 9;
  constexpr std::size_t kVariants = 3;
  util::Rng rng{409};
  std::vector<std::vector<float>> a(kVariants);
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (auto& x : b) x = static_cast<float>(rng.normal());
  std::vector<const float*> a_ptrs(kVariants);
  for (std::size_t v = 0; v < kVariants; ++v) {
    a[v].resize(static_cast<std::size_t>(m * k));
    for (std::size_t i = 0; i < a[v].size(); ++i) {
      // Sprinkle exact zeros: the scalar kernel's zero-skip must behave
      // identically through both entry points.
      a[v][i] = (i % 5 == v) ? 0.0f : static_cast<float>(rng.normal());
    }
    a_ptrs[v] = a[v].data();
  }
  std::vector<std::vector<float>> got(kVariants), want(kVariants);
  std::vector<float*> c_ptrs(kVariants);
  for (std::size_t v = 0; v < kVariants; ++v) {
    got[v].assign(static_cast<std::size_t>(m * n), -1.0f);
    want[v].assign(static_cast<std::size_t>(m * n), -2.0f);
    c_ptrs[v] = got[v].data();
  }
  be.gemm_variants(m, n, k, a_ptrs.data(), kVariants, k, b.data(), n,
                   c_ptrs.data(), n);
  for (std::size_t v = 0; v < kVariants; ++v) {
    be.gemm_rows(false, false, 0, m, n, k, 1.0f, a[v].data(), k, b.data(), n,
                 0.0f, want[v].data(), n);
    EXPECT_EQ(std::memcmp(got[v].data(), want[v].data(),
                          want[v].size() * sizeof(float)),
              0)
        << be.name << " variant " << v;
  }
}

TEST(MultiMaskKernels, GemmVariantsMatchesGemmRowsScalar) {
  check_gemm_variants(tensor::backend::scalar_backend());
}

TEST(MultiMaskKernels, GemmVariantsMatchesGemmRowsAvx2) {
  if (!tensor::backend::avx2_supported()) GTEST_SKIP() << "no AVX2";
  check_gemm_variants(tensor::backend::avx2_backend());
}

void check_conv_multi() {
  constexpr std::size_t kVariants = 3;
  const std::int64_t n = 2, c = 2, h = 6, w = 5, o = 4;
  tensor::Conv2dSpec spec;  // 3x3, stride 1, pad 1
  util::Rng rng{410};
  const Tensor input =
      Tensor::randn(tensor::Shape{n, c, h, w}, rng, 0.0f, 1.0f);
  std::vector<Tensor> weights, biases;
  std::vector<const float*> w_ptrs, b_ptrs;
  for (std::size_t v = 0; v < kVariants; ++v) {
    weights.push_back(Tensor::randn(
        tensor::Shape{o, c, spec.kernel_h, spec.kernel_w}, rng, 0.0f, 1.0f));
    // Variant 1 runs bias-free: nullptr must mean "skip", exactly like the
    // sequential empty-bias path.
    biases.push_back(v == 1 ? Tensor{}
                            : Tensor::randn(tensor::Shape{o}, rng, 0.0f, 1.0f));
  }
  for (std::size_t v = 0; v < kVariants; ++v) {
    w_ptrs.push_back(weights[v].data());
    b_ptrs.push_back(biases[v].empty() ? nullptr : biases[v].data());
  }
  const std::int64_t oh = spec.out_h(h), ow = spec.out_w(w);
  const std::int64_t out_per = n * o * oh * ow;

  // Shared input: every variant reads the same [n, ...] block.
  Tensor shared_out{
      tensor::Shape{static_cast<std::int64_t>(kVariants) * n, o, oh, ow}};
  tensor::conv2d_forward_multi(input.data(), /*shared_input=*/true, kVariants,
                               n, c, h, w, w_ptrs.data(), b_ptrs.data(), o,
                               spec, shared_out.data());
  for (std::size_t v = 0; v < kVariants; ++v) {
    const Tensor want =
        tensor::conv2d_forward(input, weights[v], biases[v], spec);
    EXPECT_EQ(std::memcmp(shared_out.data() +
                              static_cast<std::int64_t>(v) * out_per,
                          want.data(),
                          static_cast<std::size_t>(out_per) * sizeof(float)),
              0)
        << "shared, variant " << v;
  }

  // Diverged input: variant v owns samples [v*n, (v+1)*n).
  Tensor stacked{tensor::Shape{static_cast<std::int64_t>(kVariants) * n, c, h,
                               w}};
  std::vector<Tensor> blocks;
  for (std::size_t v = 0; v < kVariants; ++v) {
    Tensor block = Tensor::randn(tensor::Shape{n, c, h, w}, rng, 0.0f, 1.0f);
    std::memcpy(stacked.data() + static_cast<std::int64_t>(v) * block.numel(),
                block.data(),
                static_cast<std::size_t>(block.numel()) * sizeof(float));
    blocks.push_back(std::move(block));
  }
  Tensor diverged_out{
      tensor::Shape{static_cast<std::int64_t>(kVariants) * n, o, oh, ow}};
  tensor::conv2d_forward_multi(stacked.data(), /*shared_input=*/false,
                               kVariants, n, c, h, w, w_ptrs.data(),
                               b_ptrs.data(), o, spec, diverged_out.data());
  for (std::size_t v = 0; v < kVariants; ++v) {
    const Tensor want =
        tensor::conv2d_forward(blocks[v], weights[v], biases[v], spec);
    EXPECT_EQ(std::memcmp(diverged_out.data() +
                              static_cast<std::int64_t>(v) * out_per,
                          want.data(),
                          static_cast<std::size_t>(out_per) * sizeof(float)),
              0)
        << "diverged, variant " << v;
  }
}

TEST(MultiMaskKernels, ConvMultiMatchesSequentialScalar) {
  ASSERT_TRUE(tensor::backend::set_active("scalar"));
  check_conv_multi();
}

TEST(MultiMaskKernels, ConvMultiMatchesSequentialAvx2) {
  if (!tensor::backend::avx2_supported()) GTEST_SKIP() << "no AVX2";
  ASSERT_TRUE(tensor::backend::set_active("avx2"));
  check_conv_multi();
  ASSERT_TRUE(tensor::backend::set_active("scalar"));
}

// --- Sampler / injector equivalence ------------------------------------------
//
// Deferring retained-sample evaluations into batched flushes must not change
// anything observable: same samples, same tallies, same RNG stream, same
// final chain state, same replay accounting.

void expect_chains_equal(const mcmc::ChainResult& a,
                         const mcmc::ChainResult& b) {
  EXPECT_EQ(a.error_samples, b.error_samples);
  EXPECT_EQ(a.deviation_samples, b.deviation_samples);
  EXPECT_EQ(a.flips_samples, b.flips_samples);
  EXPECT_DOUBLE_EQ(a.acceptance_rate, b.acceptance_rate);
  EXPECT_EQ(a.network_evals, b.network_evals);
  EXPECT_EQ(a.outcome_masked, b.outcome_masked);
  EXPECT_EQ(a.outcome_sdc, b.outcome_sdc);
  EXPECT_EQ(a.outcome_detected, b.outcome_detected);
  EXPECT_EQ(a.outcome_corrected, b.outcome_corrected);
  EXPECT_EQ(a.full_evals, b.full_evals);
  EXPECT_EQ(a.truncated_evals, b.truncated_evals);
  EXPECT_EQ(a.layers_run, b.layers_run);
  EXPECT_EQ(a.layers_total, b.layers_total);
  EXPECT_EQ(a.rng_state, b.rng_state);
  EXPECT_TRUE(
      FaultMask::symmetric_difference(a.final_mask, b.final_mask).empty());
}

TEST(MultiMaskEquivalence, MhBatchedMatchesSequential) {
  const Subject subject = make_mlp_subject();
  const TargetSpec spec = everything_spec();
  const double p = 0.004;
  mcmc::ChainResult results[2];
  const std::size_t batches[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    BayesianFaultNetwork bfn(subject.net, spec, fault::AvfProfile::uniform(),
                             subject.inputs, subject.labels);
    PriorTarget target(bfn, p);
    mcmc::MhConfig config;
    config.samples = 22;
    config.burn_in = 5;
    config.thin = 2;
    config.seed = 77;
    config.mask_batch = batches[i];
    results[i] = mcmc::MhSampler(bfn, target, p, config).run();
  }
  EXPECT_EQ(results[0].error_samples.size(), 22u);
  expect_chains_equal(results[0], results[1]);
}

TEST(MultiMaskEquivalence, GibbsBatchedMatchesSequential) {
  const Subject subject = make_mlp_subject();
  const TargetSpec spec = everything_spec();
  const double p = 0.004;
  mcmc::ChainResult results[2];
  const std::size_t batches[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    BayesianFaultNetwork bfn(subject.net, spec, fault::AvfProfile::uniform(),
                             subject.inputs, subject.labels);
    PriorTarget target(bfn, p);
    mcmc::GibbsConfig config;
    config.samples = 15;
    config.burn_in = 2;
    config.coordinates_per_sweep = 16;
    config.seed = 78;
    config.mask_batch = batches[i];
    results[i] = mcmc::GibbsSampler(bfn, target, p, config).run();
  }
  EXPECT_EQ(results[0].error_samples.size(), 15u);
  expect_chains_equal(results[0], results[1]);
}

TEST(MultiMaskEquivalence, RandomFiBatchedMatchesSequential) {
  const Subject subject = make_mlp_subject();
  BayesianFaultNetwork bfn(subject.net, everything_spec(),
                           fault::AvfProfile::uniform(), subject.inputs,
                           subject.labels);
  inject::RandomFiResult results[2];
  const std::size_t batches[2] = {1, 5};
  for (int i = 0; i < 2; ++i) {
    inject::RandomFiConfig config;
    config.injections = 23;
    config.workers = 2;  // fixed so both runs use the same per-worker seeds
    config.seed = 79;
    config.mask_batch = batches[i];
    results[i] = inject::run_random_fi(bfn, 0.004, config);
  }
  EXPECT_EQ(results[0].injections, 23u);
  EXPECT_EQ(results[0].error_samples, results[1].error_samples);
  EXPECT_DOUBLE_EQ(results[0].mean_error, results[1].mean_error);
  EXPECT_DOUBLE_EQ(results[0].mean_deviation, results[1].mean_deviation);
  EXPECT_DOUBLE_EQ(results[0].mean_flips, results[1].mean_flips);
  EXPECT_EQ(results[0].outcome_masked, results[1].outcome_masked);
  EXPECT_EQ(results[0].outcome_sdc, results[1].outcome_sdc);
  EXPECT_EQ(results[0].outcome_detected, results[1].outcome_detected);
  EXPECT_EQ(results[0].outcome_corrected, results[1].outcome_corrected);
}

}  // namespace
}  // namespace bdlfi::bayes
