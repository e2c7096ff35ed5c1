// ExecutionPlan: pre-sized, allocation-free eval-mode forward execution.
//
// At first eval-mode forward the network walks its layer graph once (a probe
// forward) to size every intermediate activation, allocates all of them from
// a single 64-byte-aligned Arena, and compiles a step list referencing arena
// offsets. Steady-state evaluations then reuse the same buffers — zero heap
// allocations per forward — which is what lets a fault-injection campaign run
// millions of truncated replays without churning the allocator.
//
// The plan mirrors the legacy layer-by-layer forward exactly:
//   * There is one lowering per layer: a plain layer is one forward_into
//     step; a BasicBlock is the step list of BasicBlock::forward (conv1, bn1,
//     relu, conv2, bn2, optional projection conv + BN, residual add, relu).
//     Execution is bit-exact with Network's legacy eval path: every step
//     calls the same kernels in the same order on the same values.
//   * Activation hooks fire once per *top-level* layer index with a borrowed
//     view of the arena slot — the same indices, values, and mutation
//     semantics as the legacy path (BasicBlock internals are never exposed,
//     exactly as before).
//   * ABFT checking and compute-fault plans run through the plan with the
//     same per-layer OpContext (Network::op_context) the legacy path
//     installs (block-inner convs get the flip-stripped context, matching
//     BasicBlock::forward).
//
// Thread safety: a plan owns one arena; run() is single-threaded per network
// instance, like the legacy forward (kernels still parallelize internally).
// Cloned networks compile their own plans — independent arenas by design.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "nn/arena.h"
#include "nn/network.h"

namespace bdlfi::nn {

class BasicBlock;

class ExecutionPlan {
 public:
  /// Compiles a plan for `net` by probing one eval forward with
  /// `probe_input` on per-layer clones (shapes are recorded; no live layer
  /// state is perturbed).
  static std::unique_ptr<ExecutionPlan> compile(Network& net,
                                                const Tensor& probe_input);

  /// True when this plan can execute layers [first_layer, end) on an
  /// activation of shape `shape` (shape must equal the probe activation
  /// entering that layer).
  bool covers(std::size_t first_layer, const Shape& shape) const;

  /// Runs layers [first_layer, end). `input` is the activation entering
  /// `first_layer`. Returns a borrowed view of the logits arena slot — valid
  /// until the next run() or plan destruction; copy to keep.
  const Tensor& run(Network& net, std::size_t first_layer, const Tensor& input,
                    const Network::ActivationHook& hook);

  /// Arena capacity in floats — the planned high-water mark.
  std::size_t arena_floats() const { return arena_.size(); }
  /// Number of distinct rotating activation buffers the plan uses.
  std::size_t num_buffers() const { return buffer_sizes_.size(); }

 private:
  ExecutionPlan() = default;

  struct Step {
    enum class Op {
      kForwardInto,  // layer->forward_into(in, out)
      kAdd,          // out += in (residual join; in may be the group input)
      kRelu,         // relu in place on out
    };
    Op op = Op::kForwardInto;
    Layer* layer = nullptr;    // kForwardInto only
    bool block_inner = false;  // lowered from inside a BasicBlock
    int in_buf = -1;           // -1: the group's input activation
    int out_buf = 0;
    Shape in_shape, out_shape;
    Tensor in_view, out_view;  // borrowed arena views (in_view unused if in_buf < 0)
  };

  struct Group {
    std::size_t layer = 0;  // top-level layer index (hook index)
    Shape in_shape, out_shape;
    int out_buf = 0;
    Tensor out_view;  // borrowed arena view handed to hooks
    std::vector<Step> steps;
  };

  void lower_layer(Network& net, std::size_t index, const Shape& in_shape,
                   const Shape& out_shape, int in_buf);
  void lower_block(BasicBlock& blk, Group& grp, int in_buf);
  int fresh_buffer(std::initializer_list<int> avoid);
  void note_use(int buf, std::int64_t numel);
  void finalize();
  void exec_step(Step& step, const Tensor& group_in, bool checked,
                 const tensor::abft::OpContext* ctx,
                 const tensor::abft::OpContext* inner_ctx);

  std::vector<Group> groups_;
  std::vector<std::int64_t> buffer_sizes_;  // floats, high-water per buffer
  std::vector<std::size_t> buffer_offsets_;
  Arena arena_;
};

}  // namespace bdlfi::nn
