#include "probes.h"

#include <algorithm>
#include <functional>

#include "fault/models.h"
#include "nn/resblock.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace perfbench {

using namespace bdlfi;

namespace {

// Every top-level layer name of the two subject networks; the per-layer
// metric list names each one.
const char* const kLayerNames[] = {
    "stem_conv", "stem_bn", "stem_relu", "block0", "block1", "block2",
    "block3", "block4", "block5", "block6", "block7", "avgpool", "fc",
    "fc1", "relu1", "fc2", "relu2", "fc3"};

/// Seconds one call of fn() takes.
double time_once(const std::function<void()>& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

/// Calls fn() at least `min_reps` times and until `budget_s` has passed;
/// returns the seconds of each call.
std::vector<double> time_reps(const std::function<void()>& fn,
                              std::size_t min_reps, double budget_s) {
  std::vector<double> out;
  const double start = now_s();
  while (out.size() < min_reps || now_s() - start < budget_s) {
    out.push_back(time_once(fn));
  }
  return out;
}

double gflops(double flops, double seconds) { return ratio(flops, seconds) * 1e-9; }

/// tensor::gemm at a square shape large enough to run on the whole pool: the
/// in-process GEMM peak the conv probes are compared against.
double gemm_peak(Spans& spans) {
  Spans::Scope span(spans, "tensor.gemm_peak");
  constexpr std::int64_t kN = 384;
  util::Rng rng{7};
  tensor::Tensor a = tensor::Tensor::randn({kN, kN}, rng);
  tensor::Tensor b = tensor::Tensor::randn({kN, kN}, rng);
  tensor::Tensor c({kN, kN});
  const std::vector<double> t = time_reps(
      [&] {
        tensor::gemm(false, false, kN, kN, kN, 1.0f, a.data(), kN, b.data(),
                     kN, 0.0f, c.data(), kN);
      },
      10, 0.5);
  const double flops = 2.0 * kN * kN * kN;
  const double best = *std::min_element(t.begin(), t.end());
  note("tensor.gemm_peak: %lldx%lldx%lld, %.3g FLOP/call, best of %zu calls "
       "%.3f ms (median %.3f ms)",
       static_cast<long long>(kN), static_cast<long long>(kN),
       static_cast<long long>(kN), flops, t.size(), 1e3 * best, 1e3 * median(t));
  return gflops(flops, best);
}

/// The stage-k convolution of ResNet-18: conv2 of the second block of the
/// stage (C == O, stride 1), fed the golden activation entering that block.
struct StageConv {
  int stage = 0;
  nn::Conv2d* conv = nullptr;
  tensor::Tensor input;  // [N, C, H, W]
  double flops = 0.0;    // one forward over the batch
};

std::vector<StageConv> stage_convs(nn::Network& net,
                                   const tensor::Tensor& x) {
  std::vector<tensor::Tensor> acts;
  net.forward(x, false, [&](std::size_t, tensor::Tensor& a) { acts.push_back(a); });
  std::vector<StageConv> out;
  for (int stage = 1; stage <= 4; ++stage) {
    const std::string name = "block" + std::to_string(2 * stage - 1);
    for (std::size_t i = 1; i < net.num_layers(); ++i) {
      if (net.layer_name(i) != name) continue;
      auto* block = dynamic_cast<nn::BasicBlock*>(&net.layer(i));
      if (block == nullptr) continue;
      StageConv s;
      s.stage = stage;
      s.conv = &block->conv2();
      s.input = acts[i - 1];
      const tensor::Shape& in = s.input.shape();
      const std::int64_t oh = s.conv->spec().out_h(in[2]);
      const std::int64_t ow = s.conv->spec().out_w(in[3]);
      s.flops = 2.0 * static_cast<double>(in[0] * s.conv->out_channels() * oh *
                                          ow * in[1] * s.conv->spec().kernel_h *
                                          s.conv->spec().kernel_w);
      out.push_back(std::move(s));
    }
  }
  return out;
}

void conv_probes(nn::Network& net, const tensor::Tensor& x, double peak,
                 Report& report, Spans& spans) {
  Spans::Scope span(spans, "tensor.conv");
  constexpr std::size_t kVariants = 8;
  std::vector<double> plain_s, checked_s;
  for (StageConv& s : stage_convs(net, x)) {
    const std::string st = "stage" + std::to_string(s.stage);
    const tensor::Shape& in = s.input.shape();
    const std::int64_t n = in[0], c = in[1], h = in[2], w = in[3];
    const std::int64_t o = s.conv->out_channels();
    const std::int64_t oh = s.conv->spec().out_h(h), ow = s.conv->spec().out_w(w);
    const std::int64_t patch = c * s.conv->spec().kernel_h * s.conv->spec().kernel_w;

    tensor::Tensor out({n, o, oh, ow});
    const tensor::Tensor no_bias;
    const std::vector<double> t = time_reps(
        [&] {
          tensor::conv2d_forward_into(s.input, s.conv->weight(), no_bias,
                                      s.conv->spec(), {}, out);
        },
        5, 0.25);
    const double g = gflops(s.flops, median(t));
    report.add("tensor.conv." + st + ".gflops", g, "GFLOP/s");
    if (s.stage == 4) report.add("tensor.conv.stage4.peak_frac", ratio(g, peak), "ratio");
    // Computed traffic: input + weights + output once each, 4 bytes/float.
    const double bytes = 4.0 * static_cast<double>(s.input.numel() +
                                                   s.conv->weight().numel() +
                                                   out.numel());
    note("tensor.conv.%s: in [%lld,%lld,%lld,%lld] O=%lld GEMM [%lld x %lld] x "
         "[%lld x %lld] per sample; %.4g FLOP/call, %.4g bytes/call computed; "
         "median %.3f ms over %zu calls = %.3g GFLOP/s",
         st.c_str(), (long long)n, (long long)c, (long long)h, (long long)w,
         (long long)o, (long long)o, (long long)patch, (long long)patch,
         (long long)(oh * ow), s.flops, bytes, 1e3 * median(t), t.size(), g);

    // K = 8 fault variants through one shared-panel kernel call.
    std::vector<float> multi_in(kVariants * static_cast<std::size_t>(s.input.numel()));
    for (std::size_t v = 0; v < kVariants; ++v) {
      std::copy_n(s.input.data(), s.input.numel(),
                  multi_in.data() + v * static_cast<std::size_t>(s.input.numel()));
    }
    std::vector<float> multi_out(kVariants * static_cast<std::size_t>(out.numel()));
    const std::vector<const float*> weights(kVariants, s.conv->weight().data());
    const std::vector<const float*> biases(kVariants, nullptr);
    const std::vector<double> tm = time_reps(
        [&] {
          tensor::conv2d_forward_multi(multi_in.data(), false, kVariants, n, c,
                                       h, w, weights.data(), biases.data(), o,
                                       s.conv->spec(), multi_out.data());
        },
        3, 0.25);
    const double gm = gflops(kVariants * s.flops, median(tm));
    report.add("tensor.conv_multi." + st + ".gflops", gm, "GFLOP/s");
    note("tensor.conv_multi.%s: K=%zu variants, %.4g FLOP/call; median %.3f ms "
         "over %zu calls = %.3g GFLOP/s",
         st.c_str(), kVariants, kVariants * s.flops, 1e3 * median(tm), tm.size(), gm);

    // ABFT: the per-sample conv GEMM through gemm_checked vs plain gemm.
    std::vector<float> cols(static_cast<std::size_t>(patch * oh * ow));
    tensor::im2col(s.input.data(), c, h, w, s.conv->spec(), cols.data());
    std::vector<float> cbuf(static_cast<std::size_t>(o * oh * ow));
    tensor::abft::Stats stats;
    tensor::abft::OpContext ctx;
    ctx.config.mode = tensor::abft::Mode::kCorrect;
    ctx.stats = &stats;
    const auto plain = [&] {
      for (int r = 0; r < 16; ++r) {
        tensor::gemm(false, false, o, oh * ow, patch, 1.0f,
                     s.conv->weight().data(), patch, cols.data(), oh * ow, 0.0f,
                     cbuf.data(), oh * ow);
      }
    };
    const auto checked = [&] {
      for (int r = 0; r < 16; ++r) {
        tensor::abft::gemm_checked(false, false, o, oh * ow, patch, 1.0f,
                                   s.conv->weight().data(), patch, cols.data(),
                                   oh * ow, cbuf.data(), oh * ow, ctx, 0);
      }
    };
    std::vector<double> tp, tc;
    const double start = now_s();
    while (tp.size() < 5 || now_s() - start < 0.1) {  // interleaved pairs
      tp.push_back(time_once(plain));
      tc.push_back(time_once(checked));
    }
    plain_s.push_back(median(tp));
    checked_s.push_back(median(tc));
  }
  const double overhead = ratio(sum(checked_s), sum(plain_s)) - 1.0;
  report.add("tensor.abft.overhead_frac", overhead, "ratio");
  note("tensor.abft.overhead_frac: gemm_checked vs gemm over the four stage "
       "GEMM shapes: %.3f ms vs %.3f ms per 16 calls each",
       1e3 * sum(checked_s), 1e3 * sum(plain_s));
}

/// Golden eval forward percentiles and each top-level layer's forward on the
/// previous layer's golden activation.
void nn_probes(nn::Network& net, const tensor::Tensor& x, Report& report,
               Spans& spans) {
  Spans::Scope span(spans, "nn");
  const std::vector<double> t =
      time_reps([&] { net.forward_view(0, x); }, 20, 0.6);
  report.add_percentiles("nn.forward", t, 1e3, "ms");
  note("nn.forward: golden eval forward over a [%s] batch: p50 %.4f ms, p90 "
       "%.4f ms (n=%zu)",
       x.shape().to_string().c_str(), 1e3 * quantile(t, 0.5),
       1e3 * quantile(t, 0.9), t.size());

  std::vector<tensor::Tensor> acts;
  net.forward(x, false, [&](std::size_t, tensor::Tensor& a) { acts.push_back(a); });
  std::vector<std::string> seen;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    const tensor::Tensor& in = i == 0 ? x : acts[i - 1];
    nn::Layer& layer = net.layer(i);
    const std::vector<double> tl =
        time_reps([&] { layer.forward(in, false); }, 5, 0.05);
    report.add("nn.layer." + net.layer_name(i) + ".ms", 1e3 * median(tl), "ms");
    seen.push_back(net.layer_name(i));
    note("nn.layer.%s (%s): median %.4f ms over %zu calls", net.layer_name(i).c_str(),
         net.layer_kind(i).c_str(), 1e3 * median(tl), tl.size());
  }
  for (const char* name : kLayerNames) {
    if (std::find(seen.begin(), seen.end(), name) == seen.end()) {
      report.add(std::string("nn.layer.") + name + ".ms", 0.0, "ms");
    }
  }
}

void bayes_and_fault_probes(Workload& workload, Report& report, Spans& spans) {
  const std::vector<ProbeTarget> targets = workload.probe_targets();
  {
    Spans::Scope span(spans, "bayes.construct");
    const std::vector<double> t = time_reps([&] { workload.construct_one(); }, 3, 0.3);
    report.add("bayes.construct_ms", 1e3 * median(t), "ms");
    note("bayes.construct_ms: median %.4f ms over %zu constructions", 1e3 * median(t),
         t.size());
  }
  {
    Spans::Scope span(spans, "bayes.replicate");
    std::size_t i = 0;
    const std::vector<double> t = time_reps(
        [&] { targets[i++ % targets.size()].net->replicate(); }, 5, 0.2);
    report.add("bayes.replicate_ms", 1e3 * median(t), "ms");
    note("bayes.replicate_ms: median %.4f ms over %zu replications", 1e3 * median(t),
         t.size());
  }

  // evaluate({masks, 8}) vs evaluate({masks, 1}) on the same 8 prior masks,
  // cycling over the campaign's (network, p) targets.
  constexpr std::size_t kMasks = 8;
  std::vector<double> k8, k1;
  std::size_t batched = 0, evaluated = 0;
  std::uint64_t corrected_rows = 0;
  {
    Spans::Scope span(spans, "bayes.evaluate");
    util::Rng rng{99};
    const double start = now_s();
    for (std::size_t i = 0; k8.size() < targets.size() || now_s() - start < 2.0; ++i) {
      const ProbeTarget& tg = targets[i % targets.size()];
      std::vector<fault::FaultMask> masks;
      for (std::size_t m = 0; m < kMasks; ++m) {
        masks.push_back(tg.net->sample_prior_mask(tg.p, rng));
      }
      const std::uint64_t rows0 = tg.net->network().abft_stats().corrected_rows;
      k8.push_back(time_once([&] { batched += tg.net->evaluate({masks, kMasks}).batched; }));
      k1.push_back(time_once([&] { tg.net->evaluate({masks, 1}); }));
      evaluated += 2 * kMasks;
      corrected_rows += tg.net->network().abft_stats().corrected_rows - rows0;
    }
  }
  report.add_percentiles("bayes.evaluate.k8", k8, 1e3, "ms");
  report.add_percentiles("bayes.evaluate.k1", k1, 1e3, "ms");
  report.add("bayes.batched_frac",
             ratio(static_cast<double>(batched), static_cast<double>(kMasks * k8.size())),
             "ratio");
  report.add("tensor.abft.corrected_rows_per_eval",
             ratio(static_cast<double>(corrected_rows), static_cast<double>(evaluated)),
             "rows/eval");
  note("bayes.evaluate: %zu masks per call; k8 p50 %.3f ms p90 %.3f ms, k1 p50 "
       "%.3f ms p90 %.3f ms (n=%zu calls each); %zu of %zu k8 masks batched; "
       "%llu ABFT rows corrected over %zu evals",
       kMasks, 1e3 * quantile(k8, 0.5), 1e3 * quantile(k8, 0.9),
       1e3 * quantile(k1, 0.5), 1e3 * quantile(k1, 0.9), k8.size(), batched,
       kMasks * k8.size(), static_cast<unsigned long long>(corrected_rows),
       evaluated);

  // Mask sampling and MCMC state transitions: an equal number of calls at
  // every target, so the mean is the campaign's mix of densities.
  Spans::Scope span(spans, "fault");
  constexpr std::size_t kDraws = 64;
  util::Rng rng{5};
  double sample_s = 0.0, transition_s = 0.0, flips = 0.0;
  std::size_t draws = 0, transitions = 0;
  for (const ProbeTarget& tg : targets) {
    const fault::BernoulliSampler sampler(tg.net->profile(), tg.p);
    const fault::FaultMask empty;
    for (std::size_t d = 0; d < kDraws; ++d) {
      double t0 = now_s();
      const fault::FaultMask m = sampler.sample(tg.net->space(), rng);
      sample_s += now_s() - t0;
      flips += static_cast<double>(m.num_flips());
      ++draws;
      if (!workload.param_sites()) continue;
      t0 = now_s();
      tg.net->transition(empty, m);
      tg.net->transition(m, empty);
      transition_s += now_s() - t0;
      ++transitions;
    }
  }
  report.add("fault.flips_per_mask", ratio(flips, static_cast<double>(draws)), "flips");
  report.add("fault.sample_us", 1e6 * ratio(sample_s, static_cast<double>(draws)), "us");
  report.add("fault.transition_us",
             1e6 * ratio(transition_s, static_cast<double>(transitions)), "us");
  note("fault: %zu draws over %zu targets, %.4g flips/mask, sample %.3f us, "
       "transition apply+revert %.3f us (%zu pairs)",
       draws, targets.size(), ratio(flips, static_cast<double>(draws)),
       1e6 * ratio(sample_s, static_cast<double>(draws)),
       1e6 * ratio(transition_s, static_cast<double>(transitions)), transitions);
}

}  // namespace

void run_probes(Workload& workload, Report& report, Spans& spans) {
  Spans::Scope span(spans, "probes");
  const double peak = gemm_peak(spans);
  report.add("tensor.gemm_peak_gflops", peak, "GFLOP/s");
  nn::Network& net = workload.golden();
  bool has_conv = false;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    has_conv |= net.layer_kind(i) == "block";
  }
  if (has_conv) {
    conv_probes(net, workload.eval_inputs(), peak, report, spans);
  } else {
    for (const char* st : {"stage1", "stage2", "stage3", "stage4"}) {
      report.add(std::string("tensor.conv.") + st + ".gflops", 0.0, "GFLOP/s");
      report.add(std::string("tensor.conv_multi.") + st + ".gflops", 0.0, "GFLOP/s");
    }
    report.add("tensor.conv.stage4.peak_frac", 0.0, "ratio");
    report.add("tensor.abft.overhead_frac", 0.0, "ratio");
  }
  nn_probes(net, workload.eval_inputs(), report, spans);
  bayes_and_fault_probes(workload, report, spans);
}

}  // namespace perfbench
