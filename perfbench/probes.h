// Kernel and layer probes of the traced run: each times a public library
// call at the workload's real shapes and reports operation counts next to
// the times.
#pragma once

#include "measure.h"
#include "workloads.h"

namespace perfbench {

/// Runs the tensor, nn, bayes and fault probes for `workload` and adds their
/// per-layer metrics to `report`. Metrics of layers the workload does not run
/// (conv kernels on the MLP, transitions on compute-fault masks) read 0.
void run_probes(Workload& workload, Report& report, Spans& spans);

}  // namespace perfbench
