// Campaign benchmark program: one workload per process, run as
//
//   campaign_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out-dir <dir>]
//
// Set-up (data, training, golden fault network) is repeated and timed, then
// campaign calls with seeds derived from --seed run in a closed loop until
// --seconds have passed, each under a deadline. A cheap set-up is repeated
// between calls as well. After the timed phase a
// correctness oracle re-checks the first call on fresh replicas. The last
// stdout line is the JSON result; "# " lines before it are details.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
// traced calls (library trace recorder and metrics registry on), runs the
// kernel/layer probes and reports the per-layer metrics.
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "measure.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "probes.h"
#include "tensor/backend/backend.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

using namespace perfbench;
using namespace bdlfi;

namespace {

// Fixed pool width so the configuration does not depend on the host.
constexpr std::size_t kPoolWorkers = 4;
// A campaign call that runs longer than this is declared hung.
constexpr double kCallDeadlineS = 60.0;
// No new campaign call starts after this much of the run has passed, which
// keeps a run inside its 180 s limit even when calls slow down.
constexpr double kLastCallStartS = 100.0;

// Registry counters read around traced calls.
const char* const kCounters[] = {"pool.tasks_completed", "mcmc.proposals",
                                 "eval.full",           "eval.truncated",
                                 "eval.layers_run",     "eval.layers_total"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") a.workload = v;
    else if (key == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (key == "--seconds") a.seconds = std::atof(v);
    else if (key == "--trace") a.trace = std::atoi(v) != 0;
    else if (key == "--out-dir") a.out_dir = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

std::uint64_t call_seed(std::uint64_t seed, std::size_t call) {
  std::uint64_t s = seed ^ (0x9e3779b97f4a7c15ULL * (call + 1));
  return util::splitmix64(s);
}

/// FNV-1a over the golden network's persistent state bits.
std::uint64_t fingerprint(nn::Network& net) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const nn::ParamRef& r : net.state()) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(r.value->data());
    for (std::int64_t i = 0; i < r.value->numel() * 4; ++i) {
      h = (h ^ bytes[i]) * 1099511628211ULL;
    }
  }
  return h;
}

struct Call {
  std::uint64_t seed = 0;
  bool traced = false;
  double wall_s = 0.0, cpu_s = 0.0;
  long switches = 0;
  CallStats stats;
};

class Run {
 public:
  explicit Run(Args args) : args_(std::move(args)) {}

  int main() {
    workload_ = make_workload(args_.workload);
    if (workload_ == nullptr) {
      std::fprintf(stderr, "unknown workload '%s'\n", args_.workload.c_str());
      return 2;
    }
    util::ThreadPool::reinit_after_fork(kPoolWorkers);
    util::set_log_level(util::LogLevel::kWarn);  // per-layer INFO lines
    const tensor::backend::Resolution backend = tensor::backend::resolve("auto");
    if (!backend.ok) {
      std::fprintf(stderr, "backend: %s\n", backend.error.c_str());
      return 2;
    }
    note("workload %s, seed %llu, %.0f s, trace %d, backend %s, pool %zu workers, "
         "campaign width %zu",
         args_.workload.c_str(), static_cast<unsigned long long>(args_.seed),
         args_.seconds, args_.trace ? 1 : 0, backend.name.c_str(), kPoolWorkers,
         workload_->width());

    setup();
    campaign();
    {
      Spans::Scope span(spans_, "oracle");
      check_oracle();
    }
    if (args_.trace) run_probes(*workload_, report_, spans_);
    finish(false);
    return 0;
  }

 private:
  void setup() {
    Spans::Scope span(spans_, "setup");
    for (std::size_t r = 0; r < workload_->setup_repeats(); ++r) setup_once();
    note("setup: median %.4f s over %zu repeats (data %.4f s, train %.4f s); "
         "golden accuracy %.4f (floor %.2f); peak rss %.1f MB",
         median(setup_s_), setup_s_.size(), median(data_s_), median(train_s_),
         workload_->golden_accuracy(), workload_->accuracy_floor(), peak_rss_mb());
    if (workload_->golden_accuracy() < workload_->accuracy_floor()) {
      problem("golden accuracy below its floor");
    }
  }

  /// One timed set-up; the golden weights must match the first set-up's.
  void setup_once() {
    const int id = spans_.open("setup.repeat");
    const SetupTimes t = workload_->setup(spans_);
    spans_.close(id);
    setup_s_.push_back(t.total());
    data_s_.push_back(t.data_s);
    train_s_.push_back(t.train_s);
    const std::uint64_t fp = fingerprint(workload_->golden());
    if (setup_s_.size() == 1) golden_fp_ = fp;
    if (fp != golden_fp_) problem("set-up is not deterministic: golden weights differ");
  }

  void campaign() {
    Spans::Scope span(spans_, "campaign");
    obs::Counter* counters[std::size(kCounters)];
    for (std::size_t i = 0; i < std::size(kCounters); ++i) {
      counters[i] = &obs::MetricsRegistry::global().counter(kCounters[i]);
    }
    const double start = now_s();
    const std::size_t min_calls = args_.trace ? 2 : 1;
    for (std::size_t i = 0;; ++i) {
      if (calls_.size() >= min_calls &&
          (now_s() - start >= args_.seconds || now_s() > kLastCallStartS)) {
        break;
      }
      Call call;
      call.seed = call_seed(args_.seed, i);
      call.traced = args_.trace && i % 2 == 1;
      std::uint64_t before[std::size(kCounters)];
      for (std::size_t c = 0; c < std::size(kCounters); ++c) before[c] = counters[c]->value();
      if (call.traced) {
        obs::set_enabled(true);
        obs::TraceRecorder::global().set_enabled(true);
      }
      const Usage u0 = usage_now();
      const int id = spans_.open(call.traced ? "campaign.call.traced" : "campaign.call");
      const std::string error =
          run_with_deadline([&] { call.stats = workload_->campaign(call.seed, spans_); });
      call.wall_s = spans_.close(id);
      if (!error.empty()) call.stats.failures.push_back("exception: " + error);
      const Usage u1 = usage_now();
      obs::TraceRecorder::global().set_enabled(false);
      obs::set_enabled(false);
      for (std::size_t c = 0; c < std::size(kCounters); ++c) {
        if (call.traced) counter_delta_[kCounters[c]] += counters[c]->value() - before[c];
      }
      call.cpu_s = u1.cpu_s - u0.cpu_s;
      call.switches = u1.voluntary_switches - u0.voluntary_switches;
      for (const std::string& f : call.stats.failures) {
        note("call %zu FAILED: %s", i, f.c_str());
      }
      note("call %zu%s: %.4f s wall, %.4f s cpu, %zu evals, ess %.1f, %zu rounds, "
           "peak rss %.1f MB",
           i, call.traced ? " (traced)" : "", call.wall_s, call.cpu_s,
           call.stats.evals, call.stats.ess, call.stats.rounds, peak_rss_mb());
      calls_.push_back(std::move(call));
      // Memory of a process that sets up and runs one campaign; later calls
      // in the same process only add allocator fragmentation, and their
      // number depends on host speed.
      if (calls_.size() == 1) rss_mb_ = peak_rss_mb();
      for (std::size_t r = 0; r < workload_->setup_repeats_between_calls(); ++r) {
        setup_once();
      }
    }
  }

  /// Runs `fn` on a helper thread and returns the message of any exception
  /// it threw. If it does not return within the deadline, the pool is taken
  /// to be deadlocked: the run reports what it has, counts the call as
  /// failed and ends the process (a deadlocked pool cannot be joined). The
  /// helper may still be recording spans then, so the report leaves them
  /// out.
  template <class Fn>
  std::string run_with_deadline(Fn fn) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::string error;
    std::thread worker([&] {
      try {
        fn();
      } catch (const std::exception& e) {
        error = e.what();
      }
      std::lock_guard<std::mutex> lock(mu);
      done = true;
      cv.notify_all();
    });
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::duration<double>(kCallDeadlineS),
                     [&] { return done; })) {
      note("HANG: campaign call %zu did not return within %.0f s; pool presumed "
           "deadlocked, reporting partial results",
           calls_.size(), kCallDeadlineS);
      finish(true);
      std::_Exit(0);
    }
    lock.unlock();
    worker.join();
    return error;
  }

  void check_oracle() {
    if (calls_.empty()) return;
    const std::vector<std::string> bad = workload_->oracle(calls_[0].seed);
    for (const std::string& b : bad) problem("oracle: " + b);
    if (!bad.empty()) calls_[0].stats.failures.push_back("oracle mismatch");
    note("oracle: %s (first call, seed %llu)", bad.empty() ? "pass" : "FAIL",
         static_cast<unsigned long long>(calls_[0].seed));
  }

  void problem(const std::string& what) {
    correct_ = false;
    note("CHECK FAILED: %s", what.c_str());
  }

  void finish(bool hung) {
    std::size_t failed = hung ? 1 : 0;
    for (const Call& c : calls_) failed += c.stats.failures.empty() ? 0 : 1;
    const std::size_t attempted = calls_.size() + (hung ? 1 : 0);
    // Every failed call (hang, exception, library failure, non-convergence,
    // ABFT leak, oracle mismatch) makes the run incorrect.
    if (failed > 0) correct_ = false;
    if (args_.trace) {
      per_layer(failed, attempted);
      if (!hung) write_traces();
    } else {
      end_to_end();
    }
    report_.print(correct_, std::max<std::size_t>(1, attempted), failed);
  }

  void end_to_end() {
    std::vector<double> wall;
    double wall_sum = 0.0, cpu = 0.0, ess = 0.0;
    std::size_t evals = 0;
    for (const Call& c : calls_) {
      wall.push_back(c.wall_s);
      wall_sum += c.wall_s;
      cpu += c.cpu_s;
      evals += c.stats.evals;
      ess += c.stats.ess;
    }
    const double n = static_cast<double>(evals);
    report_.add("setup_s", median(setup_s_), "s");
    report_.add("campaign_s", median(wall), "s");
    report_.add("evals_per_s", ratio(n, wall_sum), "1/s");
    report_.add("ess_per_s", ratio(ess, wall_sum), "1/s");
    report_.add("cpu_ms_per_eval", 1e3 * ratio(cpu, n), "ms");
    report_.add("peak_rss_mb", rss_mb_ > 0.0 ? rss_mb_ : peak_rss_mb(), "MB");
    note("campaign: %zu calls, median %.4f s (quartiles %.4f..%.4f), %zu evals "
         "in %.3f s; setup median %.4f s over %zu repeats (quartiles %.4f..%.4f)",
         calls_.size(), median(wall), quantile(wall, 0.25), quantile(wall, 0.75),
         evals, wall_sum, median(setup_s_), setup_s_.size(),
         quantile(setup_s_, 0.25), quantile(setup_s_, 0.75));
  }

  void per_layer(std::size_t failed, std::size_t attempted) {
    std::vector<double> plain, traced;
    double plain_wall = 0.0, plain_cpu = 0.0, traced_evals = 0.0;
    double evals = 0.0, ess = 0.0, flops = 0.0, acceptance = 0.0, rounds = 0.0;
    long switches = 0;
    double plain_evals = 0.0;
    for (const Call& c : calls_) {
      const double e = static_cast<double>(c.stats.evals);
      evals += e;
      ess += c.stats.ess;
      flops += c.stats.flops;
      acceptance += c.stats.acceptance;
      rounds += static_cast<double>(c.stats.rounds);
      if (c.traced) {
        traced.push_back(c.wall_s);
        traced_evals += e;
      } else {
        plain.push_back(c.wall_s);
        plain_wall += c.wall_s;
        plain_cpu += c.cpu_s;
        plain_evals += e;
        switches += c.switches;
      }
    }
    const double calls = static_cast<double>(std::max<std::size_t>(1, calls_.size()));
    const bool mcmc = rounds > 0.0;

    report_.add("failed_frac", ratio(static_cast<double>(failed),
                                     static_cast<double>(attempted)), "ratio");
    report_.add("util.cpu_busy_frac",
                ratio(plain_cpu, plain_wall * static_cast<double>(kPoolWorkers)), "ratio");
    report_.add("util.ctx_switches_per_eval",
                ratio(static_cast<double>(switches), plain_evals), "count");
    report_.add("util.pool_tasks_per_eval",
                ratio(delta("pool.tasks_completed"), traced_evals), "count");
    report_.add("tensor.flops_per_eval", ratio(flops, evals), "FLOP");

    const double full = delta("eval.full"), truncated = delta("eval.truncated");
    report_.add("bayes.truncated_frac", ratio(truncated, full + truncated), "ratio");
    report_.add("bayes.layers_run_per_eval",
                ratio(delta("eval.layers_run"), full + truncated), "count");
    report_.add("bayes.layers_saved_pct",
                100.0 * (1.0 - ratio(delta("eval.layers_run"), delta("eval.layers_total"))),
                "%");

    report_.add("mcmc.rounds", rounds / calls, "count");
    report_.add("mcmc.acceptance", acceptance / calls, "ratio");
    report_.add("mcmc.ess_per_eval", mcmc ? ratio(ess, evals) : 0.0, "ratio");
    report_.add("mcmc.proposals_per_eval", ratio(delta("mcmc.proposals"), traced_evals),
                "count");
    mcmc_spans();

    const CallStats& first = calls_.empty() ? CallStats{} : calls_[0].stats;
    report_.add("inject.outcome.masked", static_cast<double>(first.masked), "count");
    report_.add("inject.outcome.sdc", static_cast<double>(first.sdc), "count");
    report_.add("inject.outcome.detected", static_cast<double>(first.detected), "count");
    report_.add("inject.outcome.corrected", static_cast<double>(first.corrected), "count");

    report_.add("train.fit_s", median(train_s_), "s");
    report_.add("data.gen_s", median(data_s_), "s");
    report_.add("obs.trace_overhead_frac",
                traced.empty() || plain.empty() ? 0.0 : median(traced) / median(plain) - 1.0,
                "ratio");
    note("calls: %zu untraced (median %.4f s), %zu traced (median %.4f s); "
         "%.0f evals",
         plain.size(), median(plain), traced.size(), median(traced), evals);
  }

  double delta(const char* counter) const {
    const auto it = counter_delta_.find(counter);
    return it == counter_delta_.end() ? 0.0 : static_cast<double>(it->second);
  }

  /// mcmc.round / mcmc.chain statistics from the library's own trace spans.
  void mcmc_spans() {
    struct Event {
      double ts, dur;
    };
    std::vector<Event> rounds, chains;
    if (const auto doc = obs::json_parse(obs::TraceRecorder::global().to_chrome_json())) {
      if (const obs::JsonValue* events = doc->find("traceEvents")) {
        for (const obs::JsonValue& e : events->as_array()) {
          const std::string& name = e.find("name")->as_string();
          const Event ev{e.find("ts")->as_number(), e.find("dur")->as_number()};
          if (name == "mcmc.round") rounds.push_back(ev);
          if (name == "mcmc.chain") chains.push_back(ev);
        }
      }
    }
    std::vector<double> round_s, imbalance;
    for (const Event& r : rounds) {
      round_s.push_back(1e-6 * r.dur);
      double max = 0.0, total = 0.0;
      std::size_t n = 0;
      for (const Event& c : chains) {
        if (c.ts >= r.ts && c.ts + c.dur <= r.ts + r.dur) {
          max = std::max(max, c.dur);
          total += c.dur;
          ++n;
        }
      }
      if (n > 0 && total > 0.0) imbalance.push_back(max / (total / static_cast<double>(n)));
    }
    double traced_s = 0.0;
    for (const Call& c : calls_) traced_s += c.traced ? c.wall_s : 0.0;
    note("traced calls: %.4f s, of which %.4f s inside mcmc.round spans and "
         "%.4f s outside (MCMC workloads: pooling, diagnostics, fault-network "
         "construction)",
         traced_s, sum(round_s), traced_s - sum(round_s));
    report_.add_percentiles("mcmc.round", round_s, 1.0, "s");
    report_.add("mcmc.chain_imbalance", imbalance.empty() ? 0.0 : sum(imbalance) /
                static_cast<double>(imbalance.size()), "ratio");
    note("mcmc.round: %zu traced rounds, p50 %.4f s, p90 %.4f s; chain imbalance "
         "(slowest / mean chain) mean %.4f, max %.4f over %zu rounds",
         round_s.size(), quantile(round_s, 0.5), quantile(round_s, 0.9),
         imbalance.empty() ? 0.0 : sum(imbalance) / static_cast<double>(imbalance.size()),
         imbalance.empty() ? 0.0 : *std::max_element(imbalance.begin(), imbalance.end()),
         imbalance.size());
  }

  /// Writes the benchmark's spans and the library's trace, and prints the
  /// self time of each span name.
  void write_traces() {
    std::map<std::string, std::pair<double, double>> by_name;  // total, self
    const auto& all = spans_.all();
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (all[i].end <= 0.0) continue;  // left open by a call that threw
      auto& [total, self] = by_name[all[i].name];
      total += all[i].end - all[i].start;
      self += spans_.self_seconds(i);
    }
    for (const auto& [name, ts] : by_name) {
      note("span %-22s total %9.4f s  self %9.4f s", name.c_str(), ts.first, ts.second);
    }
    if (args_.out_dir.empty()) return;
    const std::string stem = args_.out_dir + "/" + args_.workload + "-seed" +
                             std::to_string(args_.seed);
    if (!spans_.write(stem + "-spans.json") ||
        !obs::TraceRecorder::global().write(stem + "-library-trace.json")) {
      note("could not write traces under %s", args_.out_dir.c_str());
    }
  }

  Args args_;
  std::unique_ptr<Workload> workload_;
  Spans spans_;
  Report report_;
  std::vector<double> setup_s_, data_s_, train_s_;
  std::vector<Call> calls_;
  std::map<std::string, std::uint64_t> counter_delta_;
  std::uint64_t golden_fp_ = 0;
  double rss_mb_ = 0.0;
  bool correct_ = true;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: campaign_bench --workload <mlp_sweep|resnet_abft_fi> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  return Run(std::move(args)).main();
}
