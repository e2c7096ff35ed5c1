#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "data/cifar_like.h"
#include "data/toy2d.h"
#include "fault/models.h"
#include "inject/campaign.h"
#include "inject/random_fi.h"
#include "measure.h"
#include "mcmc/runner.h"
#include "nn/builders.h"
#include "nn/conv.h"
#include "nn/layers.h"
#include "nn/resblock.h"
#include "train/trainer.h"
#include "util/rng.h"
#include "util/stats.h"

namespace perfbench {

using namespace bdlfi;

namespace {

// --- Sizing (see NOTES.md). Every campaign call is a fixed amount of work;
// a run repeats calls with fresh seeds until its time is up.

// mlp_sweep: Fig. 2 completeness sweep.
constexpr std::size_t kMlpChains = 3;
constexpr std::size_t kMlpSamplesPerChain = 600;
constexpr std::size_t kMlpPoints = 9;
constexpr std::size_t kMlpMaxRounds = 8;
// Set-up takes 3-6 ms. A host vCPU runs it at one of two speeds, switching
// every few seconds, so the repeats are spread over the whole run: 51 before
// the first call and 40 after each one.
constexpr std::size_t kMlpSetupRepeats = 51;
constexpr std::size_t kMlpSetupRepeatsBetweenCalls = 40;

// resnet_abft_fi: ResNet-18 at width 0.125, 16x16 inputs, eval batch 64 (the
// Fig. 3 subject). Training takes 7-13 s, so set-up is repeated only twice:
// a third repeat would make set-up most of the wall time of a run.
constexpr std::size_t kResnetSetupRepeats = 2;
constexpr std::size_t kFiInjections = 64;
constexpr std::size_t kFiWorkers = 2;
constexpr double kFiP = 1e-6;

// Oracle sample sizes: masks re-evaluated per checked campaign point.
constexpr std::size_t kMlpOracleMasks = 48;
constexpr std::size_t kFiOracleMasks = 16;

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

template <class... Args>
std::string fmt(const char* f, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), f, args...);
  return buf;
}

/// `count` indices spread evenly over [0, n), rotated by `seed`.
std::vector<std::size_t> spread(std::size_t n, std::size_t count,
                                std::uint64_t seed) {
  std::vector<std::size_t> out;
  if (n == 0) return out;
  count = std::min(count, n);
  const std::size_t offset = static_cast<std::size_t>(seed % n);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back((offset + i * n / count) % n);
  }
  return out;
}

/// Compares one oracle evaluation against the campaign's recorded sample.
void compare(const bayes::MaskOutcome& o, double error, double deviation,
             double flips, const std::string& where,
             std::vector<std::string>& bad) {
  if (!same_bits(o.classification_error, error) ||
      !same_bits(o.deviation, deviation) ||
      !same_bits(static_cast<double>(o.flipped_bits), flips)) {
    bad.push_back(where + fmt(": oracle error %.17g vs campaign %.17g",
                              o.classification_error, error));
  }
}

bayes::MaskOutcome evaluate_alone(bayes::BayesianFaultNetwork& net,
                                  const fault::FaultMask& mask) {
  return net.evaluate({std::span<const fault::FaultMask>(&mask, 1), 1})
      .outcomes.at(0);
}

constexpr bayes::EvalCacheConfig kNoReplay{false, std::size_t{256} << 20};

/// Multiply-add FLOPs of each top-level layer of `net` for one forward of
/// `input` (dense/conv/residual-block GEMMs; other layers count 0).
std::vector<double> layer_flops(nn::Network& net, const tensor::Tensor& input) {
  std::vector<tensor::Shape> in_shapes, out_shapes;
  in_shapes.push_back(input.shape());
  net.forward(input, false, [&](std::size_t, tensor::Tensor& act) {
    out_shapes.push_back(act.shape());
    in_shapes.push_back(act.shape());
  });
  std::vector<double> flops(net.num_layers(), 0.0);
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    const tensor::Shape& in = in_shapes[i];
    const tensor::Shape& out = out_shapes[i];
    nn::Layer& layer = net.layer(i);
    if (auto* d = dynamic_cast<nn::Dense*>(&layer)) {
      flops[i] = 2.0 * static_cast<double>(in[0]) *
                 static_cast<double>(d->in_features() * d->out_features());
    } else if (auto* c = dynamic_cast<nn::Conv2d*>(&layer)) {
      flops[i] = 2.0 * static_cast<double>(out.numel()) *
                 static_cast<double>(c->in_channels() * c->spec().kernel_h *
                                     c->spec().kernel_w);
    } else if (auto* b = dynamic_cast<nn::BasicBlock*>(&layer)) {
      // conv1 (C -> O, 3x3), conv2 (O -> O, 3x3), optional 1x1 projection.
      const double outs = static_cast<double>(out.numel());
      flops[i] = 2.0 * outs * static_cast<double>(in[1] * 9 + out[1] * 9);
      if (b->has_projection()) flops[i] += 2.0 * outs * static_cast<double>(in[1]);
    }
  }
  return flops;
}

// ---------------------------------------------------------------------------

class MlpSweep final : public Workload {
 public:
  std::size_t setup_repeats() const override { return kMlpSetupRepeats; }
  std::size_t setup_repeats_between_calls() const override {
    return kMlpSetupRepeatsBetweenCalls;
  }
  double golden_accuracy() const override { return accuracy_; }
  double accuracy_floor() const override { return 0.90; }
  std::size_t width() const override { return kMlpChains; }

  SetupTimes setup(Spans& spans) override {
    SetupTimes t;
    int span = spans.open("data.gen");
    util::Rng data_rng{11};
    data::Dataset all = data::make_two_moons(800, 0.08, data_rng);
    data::Split split = data::split_dataset(all, 0.75, data_rng);
    t.data_s = spans.close(span);

    span = spans.open("train.fit");
    util::Rng init{12};
    net_ = nn::make_mlp({2, 16, 32, 2}, init);
    train::TrainConfig config;
    config.epochs = 40;
    config.batch_size = 32;
    config.lr = 0.05;
    config.seed = 13;
    config.target_accuracy = 0.99;
    accuracy_ = train::fit(net_, split.train, split.test, config)
                    .final_test_accuracy;
    t.train_s = spans.close(span);

    span = spans.open("bayes.construct");
    test_ = std::move(split.test);
    bfn_ = construct_one();
    t.construct_s = spans.close(span);
    ps_ = inject::log_space(1e-5, 1e-1, kMlpPoints);
    full_flops_ = sum(layer_flops(net_, test_.inputs));
    return t;
  }

  CallStats campaign(std::uint64_t seed, Spans& spans) override {
    CallStats s;
    const bool keep = first_.empty();
    for (double p : ps_) {
      const int span = spans.open("mcmc::run_until_complete");
      const mcmc::CompletenessResult r = run_point(p, seed, false);
      spans.close(span);
      const mcmc::CampaignResult& f = r.final_result;
      s.evals += f.total_network_evals;
      s.ess += f.diagnostics.ess;
      s.rounds += r.rounds;
      s.acceptance += f.mean_acceptance / static_cast<double>(ps_.size());
      s.masked += f.total_outcome_masked;
      s.sdc += f.total_outcome_sdc;
      s.detected += f.total_outcome_detected;
      s.corrected += f.total_outcome_corrected;
      // Layer-count share of a full forward: the MLP's GEMMs are a few
      // thousand FLOPs, so the per-layer split is not worth resolving.
      s.flops += full_flops_ * static_cast<double>(f.total_layers_run) /
                 static_cast<double>(std::max<std::size_t>(1, f.total_layers_total)) *
                 static_cast<double>(f.total_network_evals);
      const std::string where = fmt("p=%.3g", p);
      if (!r.converged) s.failures.push_back(where + ": not converged");
      if (f.failed) s.failures.push_back(where + ": failed: " + f.fail_reason);
      if (f.degraded) s.failures.push_back(where + ": degraded");
      if (r.interrupted) s.failures.push_back(where + ": interrupted");
      if (keep) first_.push_back(r);
    }
    return s;
  }

  std::vector<std::string> oracle(std::uint64_t seed) override {
    std::vector<std::string> bad;
    // Two seed-chosen grid points plus the densest one (2100 flips/mask).
    std::vector<std::size_t> points = {static_cast<std::size_t>(seed % (ps_.size() - 1)),
                                       static_cast<std::size_t>((seed + 4) % (ps_.size() - 1)),
                                       ps_.size() - 1};
    bayes::BayesianFaultNetwork fresh(
        net_, bayes::TargetSpec::all_parameters(), fault::AvfProfile::uniform(),
        test_.inputs, test_.labels, kNoReplay);
    for (std::size_t i : points) {
      const std::string where = fmt("mlp_sweep p=%.3g", ps_[i]);
      const mcmc::CompletenessResult again = run_point(ps_[i], seed, true);
      const mcmc::CompletenessResult& timed = first_.at(i);
      if (again.rounds != timed.rounds ||
          again.final_result.total_network_evals !=
              timed.final_result.total_network_evals ||
          !same_bits(again.final_result.mean_error,
                     timed.final_result.mean_error)) {
        bad.push_back(where + ": re-run with record_masks differs from the "
                              "timed campaign");
        continue;
      }
      // Flatten (chain, sample) and check an even spread of retained masks.
      std::vector<std::pair<std::size_t, std::size_t>> index;
      for (std::size_t c = 0; c < again.final_result.chains.size(); ++c) {
        const auto& chain = again.final_result.chains[c];
        if (chain.mask_samples.size() != chain.error_samples.size()) {
          bad.push_back(where + ": recorded masks misaligned");
          break;
        }
        for (std::size_t k = 0; k < chain.mask_samples.size(); ++k) {
          index.emplace_back(c, k);
        }
      }
      for (std::size_t j : spread(index.size(), kMlpOracleMasks, seed)) {
        const auto& chain = again.final_result.chains[index[j].first];
        const std::size_t k = index[j].second;
        compare(evaluate_alone(fresh, chain.mask_samples[k]),
                chain.error_samples[k], chain.deviation_samples[k],
                chain.flips_samples[k], where, bad);
      }
    }
    return bad;
  }

  nn::Network& golden() override { return net_; }
  const tensor::Tensor& eval_inputs() const override { return test_.inputs; }
  std::vector<ProbeTarget> probe_targets() override {
    std::vector<ProbeTarget> out;
    for (double p : ps_) out.push_back({bfn_.get(), p});
    return out;
  }
  std::unique_ptr<bayes::BayesianFaultNetwork> construct_one() override {
    return std::make_unique<bayes::BayesianFaultNetwork>(
        net_, bayes::TargetSpec::all_parameters(), fault::AvfProfile::uniform(),
        test_.inputs, test_.labels);
  }
  bool param_sites() const override { return true; }

 private:
  mcmc::CompletenessResult run_point(double p, std::uint64_t seed,
                                     bool record) const {
    mcmc::RunnerConfig runner;
    runner.num_chains = kMlpChains;
    runner.mh.samples = kMlpSamplesPerChain;
    runner.mh.burn_in = 50;
    runner.mh.thin = 5;
    runner.mh.record_masks = record;
    runner.seed = seed;
    mcmc::CompletenessCriterion criterion;
    criterion.max_rounds = kMlpMaxRounds;
    const mcmc::TargetFactory factory = [p](bayes::BayesianFaultNetwork& n) {
      return std::make_unique<bayes::PriorTarget>(n, p);
    };
    return mcmc::run_until_complete(*bfn_, factory, p, runner, criterion);
  }

  nn::Network net_;
  data::Dataset test_;
  double accuracy_ = 0.0;
  std::unique_ptr<bayes::BayesianFaultNetwork> bfn_;
  std::vector<double> ps_;
  double full_flops_ = 0.0;
  std::vector<mcmc::CompletenessResult> first_;
};

// ---------------------------------------------------------------------------

/// Random compute-fault FI on the ResNet-18 subject (the Fig. 3 bench's
/// configuration), with ABFT set to correct after training.
class ResnetAbftFi final : public Workload {
 public:
  std::size_t setup_repeats() const override { return kResnetSetupRepeats; }
  double golden_accuracy() const override { return accuracy_; }
  double accuracy_floor() const override { return 0.60; }
  std::size_t width() const override { return kFiWorkers; }

  SetupTimes setup(Spans& spans) override {
    SetupTimes t;
    int span = spans.open("data.gen");
    data::CifarLikeConfig data_config;
    data_config.samples_per_class = 60;
    data_config.image_size = 16;
    util::Rng data_rng{21};
    data::Dataset all = data::make_cifar_like(data_config, data_rng);
    data::Split split = data::split_dataset(all, 0.8, data_rng);
    t.data_s = spans.close(span);

    span = spans.open("train.fit");
    nn::ResNetConfig net_config;
    net_config.width_multiplier = 0.125;
    net_config.num_classes = 10;
    util::Rng init{22};
    net_ = nn::make_resnet18(net_config, init);
    train::TrainConfig config;
    config.epochs = 5;
    config.batch_size = 32;
    config.lr = 0.02;
    config.seed = 23;
    config.target_accuracy = 0.97;
    accuracy_ = train::fit(net_, split.train, split.test, config)
                    .final_test_accuracy;
    t.train_s = spans.close(span);
    eval_ = split.test.slice(0, std::min<std::size_t>(64, split.test.size()));
    net_.set_abft({tensor::abft::Mode::kCorrect, 4.0});
    flops_ = layer_flops(net_, eval_.inputs);

    span = spans.open("bayes.construct");
    bfn_ = construct_one();
    t.construct_s = spans.close(span);
    return t;
  }

  CallStats campaign(std::uint64_t seed, Spans& spans) override {
    const int span = spans.open("inject::run_random_fi");
    const inject::RandomFiResult r =
        inject::run_random_fi(*bfn_, kFiP, config(seed));
    spans.close(span);
    CallStats s;
    s.evals = r.injections;
    s.ess = static_cast<double>(r.injections);  // independent draws
    s.masked = r.outcome_masked;
    s.sdc = r.outcome_sdc;
    s.detected = r.outcome_detected;
    s.corrected = r.outcome_corrected;
    for (const fault::FaultMask& m : draws(seed)) {
      const std::int64_t first = bfn_->space().first_replay_layer(m);
      s.flops += suffix_flops(static_cast<std::size_t>(first));
    }
    if (r.injections != kFiInjections) {
      s.failures.push_back("ran " + std::to_string(r.injections) + " of " +
                           std::to_string(kFiInjections) + " injections");
    }
    // ABFT recovery is on: every compute fault must end masked or corrected.
    if (r.outcome_sdc != 0 || r.outcome_detected != 0) {
      s.failures.push_back(fmt("ABFT correct let through %.0f SDC and %.0f "
                               "detected outcomes",
                               static_cast<double>(r.outcome_sdc),
                               static_cast<double>(r.outcome_detected)));
    }
    if (first_.injections == 0) first_ = r;
    return s;
  }

  std::vector<std::string> oracle(std::uint64_t seed) override {
    std::vector<std::string> bad;
    const std::vector<fault::FaultMask> masks = draws(seed);
    // The reproduced draws must be the campaign's: same mean flip count,
    // accumulated in the same order.
    util::RunningStats flips;
    for (const auto& m : masks) flips.add(static_cast<double>(m.num_flips()));
    if (!same_bits(flips.mean(), first_.mean_flips) ||
        first_.error_samples.size() != masks.size()) {
      return {fmt("resnet_abft_fi: reproduced draws differ (mean flips %.17g "
                  "vs %.17g)", flips.mean(), first_.mean_flips)};
    }
    bayes::BayesianFaultNetwork fresh(
        net_, bayes::TargetSpec::compute_only(),
        fault::AvfProfile::uniform(), eval_.inputs,
        eval_.labels, kNoReplay);
    for (std::size_t i : spread(masks.size(), kFiOracleMasks, seed)) {
      const bayes::MaskOutcome o = evaluate_alone(fresh, masks[i]);
      const std::string where = "resnet_abft_fi injection " + std::to_string(i);
      if (!same_bits(o.classification_error, first_.error_samples[i])) {
        bad.push_back(where + fmt(": oracle error %.17g vs campaign %.17g",
                                  o.classification_error,
                                  first_.error_samples[i]));
      }
      if (o.outcome == bayes::FaultOutcome::kSdc ||
          o.outcome == bayes::FaultOutcome::kDetected) {
        bad.push_back(where + ": oracle outcome " +
                      bayes::fault_outcome_name(o.outcome));
      }
    }
    return bad;
  }

  nn::Network& golden() override { return net_; }
  const tensor::Tensor& eval_inputs() const override {
    return eval_.inputs;
  }
  std::vector<ProbeTarget> probe_targets() override {
    return {{bfn_.get(), kFiP}};
  }
  std::unique_ptr<bayes::BayesianFaultNetwork> construct_one() override {
    return std::make_unique<bayes::BayesianFaultNetwork>(
        net_, bayes::TargetSpec::compute_only(),
        fault::AvfProfile::uniform(), eval_.inputs,
        eval_.labels);
  }
  bool param_sites() const override { return false; }

 private:
  static inject::RandomFiConfig config(std::uint64_t seed) {
    inject::RandomFiConfig c;
    c.injections = kFiInjections;
    c.seed = seed;
    c.workers = kFiWorkers;
    c.mask_batch = 8;
    return c;
  }

  /// FLOPs of a replay that starts at top-level layer `first`.
  double suffix_flops(std::size_t first) const {
    double total = 0.0;
    for (std::size_t i = first; i < flops_.size(); ++i) total += flops_[i];
    return total;
  }

  /// The campaign's masks, drawn the way run_random_fi draws them: one RNG
  /// stream per worker chunk, seeded from the campaign seed, in chunk order.
  std::vector<fault::FaultMask> draws(std::uint64_t seed) const {
    const inject::RandomFiConfig c = config(seed);
    const fault::BernoulliSampler sampler(bfn_->profile(), kFiP);
    util::Rng seeder{c.seed};
    std::vector<fault::FaultMask> out;
    const std::size_t base = c.injections / c.workers;
    const std::size_t extra = c.injections % c.workers;
    for (std::size_t w = 0; w < c.workers; ++w) {
      util::Rng rng{seeder()};
      const std::size_t len = base + (w < extra ? 1 : 0);
      for (std::size_t i = 0; i < len; ++i) {
        out.push_back(sampler.sample(bfn_->space(), rng));
      }
    }
    return out;
  }

  nn::Network net_;
  data::Dataset eval_;
  double accuracy_ = 0.0;
  std::vector<double> flops_;  // per top-level layer, one eval forward
  std::unique_ptr<bayes::BayesianFaultNetwork> bfn_;
  inject::RandomFiResult first_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "mlp_sweep") return std::make_unique<MlpSweep>();
  if (name == "resnet_abft_fi") return std::make_unique<ResnetAbftFi>();
  return nullptr;
}

}  // namespace perfbench
