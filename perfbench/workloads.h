// The benchmark's two workloads, each an offline batch campaign driven
// through the library's public campaign API (see NOTES.md for why each was
// chosen and how it is sized).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bayes/fault_network.h"
#include "measure.h"
#include "nn/network.h"

namespace perfbench {

/// Wall time of the set-up phases, seconds; setup_s is their sum, which
/// leaves out the benchmark's own bookkeeping (FLOP tables, layer lists).
struct SetupTimes {
  double data_s = 0.0;       // dataset generation + split
  double train_s = 0.0;      // train::fit of the golden network
  double construct_s = 0.0;  // golden BayesianFaultNetwork, where one is built
  double total() const { return data_s + train_s + construct_s; }
};

/// What one campaign call produced, in workload-independent terms.
struct CallStats {
  std::size_t evals = 0;     // mask evaluations (network evals / injections)
  double ess = 0.0;          // pooled effective samples (injections for FI)
  std::size_t rounds = 0;    // MCMC rounds run (0 for random FI)
  double acceptance = 0.0;   // mean MH acceptance over campaign points
  std::size_t masked = 0, sdc = 0, detected = 0, corrected = 0;
  /// Multiply-add FLOPs of GEMM-bearing layers actually executed, computed
  /// from layer shapes and the replay start of each eval.
  double flops = 0.0;
  /// Empty when the call succeeded; otherwise why it counts as failed.
  std::vector<std::string> failures;
};

/// A (fault network, flip probability) pair the probes draw masks from.
struct ProbeTarget {
  bdlfi::bayes::BayesianFaultNetwork* net = nullptr;
  double p = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// How many times set-up runs before the first campaign call, and again
  /// after each call (setup_s is the median over all of them). Repeats
  /// between calls spread a cheap set-up over the whole run, so its median
  /// sees the same host phases as the calls do.
  virtual std::size_t setup_repeats() const = 0;
  virtual std::size_t setup_repeats_between_calls() const { return 0; }
  /// (Re)builds dataset, golden network and golden fault network, each
  /// phase under its own span.
  virtual SetupTimes setup(Spans& spans) = 0;
  /// Golden test accuracy and the floor it must stay above.
  virtual double golden_accuracy() const = 0;
  virtual double accuracy_floor() const = 0;
  /// Pool-level parallel width of one campaign (chains or FI workers).
  virtual std::size_t width() const = 0;

  /// One complete campaign with MCMC/FI seed `seed`, each public library
  /// call under its own span. The first call's results are kept for the
  /// oracle.
  virtual CallStats campaign(std::uint64_t seed, Spans& spans) = 0;
  /// Re-checks the first campaign call (made with `seed`) on fresh replicas
  /// with truncated replay off and mask_batch = 1. Returns the mismatches.
  virtual std::vector<std::string> oracle(std::uint64_t seed) = 0;

  // Inputs of the traced run's layer probes.
  virtual bdlfi::nn::Network& golden() = 0;
  virtual const bdlfi::tensor::Tensor& eval_inputs() const = 0;
  /// The golden fault network paired with each p the campaign runs at.
  virtual std::vector<ProbeTarget> probe_targets() = 0;
  /// Builds one fault network of the kind the campaign builds (timed by the
  /// bayes.construct_ms probe).
  virtual std::unique_ptr<bdlfi::bayes::BayesianFaultNetwork>
  construct_one() = 0;
  /// True when campaign masks address parameters (MCMC transitions apply).
  virtual bool param_sites() const = 0;
};

/// Creates a workload by name (mlp_sweep, resnet_abft_fi); nullptr for an
/// unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
