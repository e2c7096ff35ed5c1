#include "nn/plan.h"

#include <algorithm>

#include "nn/resblock.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace bdlfi::nn {

std::unique_ptr<ExecutionPlan> ExecutionPlan::compile(Network& net,
                                                      const Tensor& probe) {
  BDLFI_CHECK_MSG(net.num_layers() > 0, "plan compile on empty network");
  std::unique_ptr<ExecutionPlan> plan(new ExecutionPlan);

  // Probe: one eval forward records every layer-boundary shape. This works
  // for any Layer subclass (custom layers included) without requiring a
  // shape-inference virtual. Each layer runs as a throwaway clone, so the
  // probe draws from no live RNG stream and moves no live calibration range
  // or counter; one layer is cloned at a time to keep the peak footprint.
  std::vector<Shape> shapes;  // shapes[i] = activation entering layer i
  shapes.reserve(net.num_layers() + 1);
  Tensor act = probe;
  shapes.push_back(act.shape());
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    act = net.layer(i).clone()->forward(act, /*training=*/false);
    shapes.push_back(act.shape());
  }

  int in_buf = -1;  // group 0's input is always the external tensor
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    plan->lower_layer(net, i, shapes[i], shapes[i + 1], in_buf);
    in_buf = plan->groups_.back().out_buf;
  }

  plan->finalize();
  return plan;
}

void ExecutionPlan::lower_layer(Network& net, std::size_t index,
                                const Shape& in_shape, const Shape& out_shape,
                                int in_buf) {
  Group grp;
  grp.layer = index;
  grp.in_shape = in_shape;
  grp.out_shape = out_shape;
  Layer& layer = net.layer(index);
  if (auto* blk = dynamic_cast<BasicBlock*>(&layer)) {
    lower_block(*blk, grp, in_buf);
  } else {
    Step s;
    s.op = Step::Op::kForwardInto;
    s.layer = &layer;
    s.in_buf = -1;
    s.in_shape = in_shape;
    s.out_shape = out_shape;
    if (layer.inplace_capable() && in_buf >= 0) {
      // Elementwise: overwrite the producer's slot (legacy semantics — the
      // hook for the producing layer has already fired by the time this
      // group runs).
      s.out_buf = in_buf;
    } else {
      s.out_buf = fresh_buffer({in_buf});
    }
    note_use(s.out_buf, out_shape.numel());
    grp.out_buf = s.out_buf;
    grp.steps.push_back(std::move(s));
  }
  groups_.push_back(std::move(grp));
}

void ExecutionPlan::lower_block(BasicBlock& blk, Group& grp, int in_buf) {
  const Shape& x = grp.in_shape;
  const Shape& out = grp.out_shape;  // conv2/proj output geometry
  const Shape mid{x[0], blk.conv1().out_channels(),
                  blk.conv1().spec().out_h(x[2]),
                  blk.conv1().spec().out_w(x[3])};
  const int t1 = fresh_buffer({in_buf});
  const int t2 = fresh_buffer({in_buf, t1});
  const int t3 = blk.has_projection() ? fresh_buffer({in_buf, t1, t2}) : -1;
  note_use(t1, mid.numel());
  note_use(t2, out.numel());
  if (t3 >= 0) note_use(t3, out.numel());
  grp.out_buf = t2;

  const auto mk = [](Step::Op op, Layer* l, int in, int ob, const Shape& is,
                     const Shape& os) {
    Step s;
    s.op = op;
    s.layer = l;
    s.block_inner = true;
    s.in_buf = in;
    s.out_buf = ob;
    s.in_shape = is;
    s.out_shape = os;
    return s;
  };

  // Mirrors BasicBlock::forward step for step (the main branch, then the
  // shortcut, then join + relu). Bit-exact by construction.
  grp.steps.push_back(mk(Step::Op::kForwardInto, &blk.conv1(), -1, t1, x, mid));
  grp.steps.push_back(mk(Step::Op::kForwardInto, &blk.bn1(), t1, t1, mid, mid));
  grp.steps.push_back(mk(Step::Op::kRelu, nullptr, t1, t1, mid, mid));
  grp.steps.push_back(
      mk(Step::Op::kForwardInto, &blk.conv2(), t1, t2, mid, out));
  grp.steps.push_back(mk(Step::Op::kForwardInto, &blk.bn2(), t2, t2, out, out));
  if (blk.has_projection()) {
    grp.steps.push_back(
        mk(Step::Op::kForwardInto, blk.proj_conv(), -1, t3, x, out));
    grp.steps.push_back(
        mk(Step::Op::kForwardInto, blk.proj_bn(), t3, t3, out, out));
    grp.steps.push_back(mk(Step::Op::kAdd, nullptr, t3, t2, out, out));
  } else {
    grp.steps.push_back(mk(Step::Op::kAdd, nullptr, -1, t2, x, out));
  }
  grp.steps.push_back(mk(Step::Op::kRelu, nullptr, t2, t2, out, out));
}

int ExecutionPlan::fresh_buffer(std::initializer_list<int> avoid) {
  int b = 0;
  for (;; ++b) {
    bool clash = false;
    for (const int a : avoid) clash = clash || (a == b);
    if (!clash) break;
  }
  while (static_cast<int>(buffer_sizes_.size()) <= b) {
    buffer_sizes_.push_back(0);
  }
  return b;
}

void ExecutionPlan::note_use(int buf, std::int64_t numel) {
  buffer_sizes_[static_cast<std::size_t>(buf)] =
      std::max(buffer_sizes_[static_cast<std::size_t>(buf)], numel);
}

void ExecutionPlan::finalize() {
  buffer_offsets_.resize(buffer_sizes_.size());
  std::size_t off = 0;
  for (std::size_t b = 0; b < buffer_sizes_.size(); ++b) {
    buffer_offsets_[b] = off;
    // 64-byte slot alignment: 16-float granularity on a 64-byte-aligned base.
    off += (static_cast<std::size_t>(buffer_sizes_[b]) + 15u) &
           ~static_cast<std::size_t>(15u);
  }
  arena_.reserve(off);
  const auto bind = [&](Step& s) {
    if (s.in_buf >= 0) {
      s.in_view = Tensor::view(
          s.in_shape, arena_.at(buffer_offsets_[static_cast<std::size_t>(
                          s.in_buf)]));
    }
    s.out_view = Tensor::view(
        s.out_shape,
        arena_.at(buffer_offsets_[static_cast<std::size_t>(s.out_buf)]));
  };
  for (Group& g : groups_) {
    for (Step& s : g.steps) bind(s);
    g.out_view = Tensor::view(
        g.out_shape,
        arena_.at(buffer_offsets_[static_cast<std::size_t>(g.out_buf)]));
  }
}

bool ExecutionPlan::covers(std::size_t first_layer, const Shape& shape) const {
  // Groups are 1:1 with top-level layers, in order.
  if (first_layer >= groups_.size()) return false;
  return groups_[first_layer].in_shape == shape;
}

void ExecutionPlan::exec_step(Step& s, const Tensor& group_in, bool checked,
                              const tensor::abft::OpContext* ctx,
                              const tensor::abft::OpContext* inner_ctx) {
  const Tensor& in = s.in_buf < 0 ? group_in : s.in_view;
  switch (s.op) {
    case Step::Op::kForwardInto:
      if (checked) {
        // Block-inner layers inherit the deployment minus the flip list,
        // matching BasicBlock::forward's inner-context handoff.
        s.layer->set_compute_context(s.block_inner ? inner_ctx : ctx);
        s.layer->forward_into(in, s.out_view);
        s.layer->set_compute_context(nullptr);
      } else {
        s.layer->forward_into(in, s.out_view);
      }
      break;
    case Step::Op::kAdd:
      tensor::add_inplace(s.out_view, in);
      break;
    case Step::Op::kRelu:
      tensor::relu_inplace(s.out_view);
      break;
  }
}

const Tensor& ExecutionPlan::run(Network& net, std::size_t first_layer,
                                 const Tensor& input,
                                 const Network::ActivationHook& hook) {
  BDLFI_CHECK(covers(first_layer, input.shape()));
  const bool checked = net.checked();
  for (std::size_t g = first_layer; g < groups_.size(); ++g) {
    Group& grp = groups_[g];
    const Tensor& gin = (g == first_layer) ? input : groups_[g - 1].out_view;

    tensor::abft::OpContext ctx, inner;
    const tensor::abft::OpContext* inner_ptr = nullptr;
    if (checked) {
      ctx = net.op_context(grp.layer);
      inner = ctx;
      inner.flips = nullptr;  // flips address top-level output geometry
      inner_ptr = &inner;
    }

    for (Step& s : grp.steps) exec_step(s, gin, checked, &ctx, inner_ptr);
    if (hook) hook(grp.layer, grp.out_view);
  }
  return groups_.back().out_view;
}

}  // namespace bdlfi::nn
