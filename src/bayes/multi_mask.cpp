#include "bayes/multi_mask.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bayes/mask_split.h"
#include "nn/conv.h"
#include "nn/layers.h"
#include "nn/resblock.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace bdlfi::bayes {
namespace {

using tensor::Shape;
using tensor::Tensor;

// One bit flip resolved to its live parameter tensor.
struct ParamFlip {
  Tensor* t = nullptr;
  std::int64_t elem = 0;
  int bit = 0;
};

// Per-variant flip lists for the layer being executed; nullptr = clean.
using LayerFlips = std::vector<const std::vector<ParamFlip>*>;

Shape with_batch(const Shape& s, std::int64_t n0) {
  switch (s.rank()) {
    case 1: return Shape{n0};
    case 2: return Shape{n0, s[1]};
    case 3: return Shape{n0, s[1], s[2]};
    default: return Shape{n0, s[1], s[2], s[3]};
  }
}

// Grow-once storage behind the widened forward: four ping-pong activation
// slots (two for the main panel, two for the block shortcut) plus per-variant
// corrupted weight/bias copies, acquired in deterministic order per chunk.
// Everything amortizes — a steady-state campaign stops allocating panel or
// weight-copy storage entirely (only small per-call bookkeeping vectors
// remain). Tensors handed out are borrowed views of the pool.
struct PanelPool {
  std::vector<float> act[4];
  std::vector<std::vector<float>> wcopies;
  std::size_t wcopy_next = 0;

  Tensor view(int slot, const Shape& shape) {
    std::vector<float>& buf = act[slot];
    const auto n = static_cast<std::size_t>(shape.numel());
    if (buf.size() < n) buf.resize(n);
    return Tensor::view(shape, buf.data());
  }
  /// Copy of `src` in reusable storage (stable pointer until the pool grows a
  /// brand-new entry, which only happens the first time an acquisition
  /// ordinal is reached).
  Tensor wcopy(const Tensor& src) {
    if (wcopy_next == wcopies.size()) wcopies.emplace_back();
    std::vector<float>& buf = wcopies[wcopy_next++];
    const auto n = static_cast<std::size_t>(src.numel());
    if (buf.size() < n) buf.resize(n);
    std::copy_n(src.data(), n, buf.data());
    return Tensor::view(src.shape(), buf.data());
  }
  void begin_chunk() { wcopy_next = 0; }
};

// The activation panel riding through the widened forward. While every
// variant's slice is still bit-identical (`uniform`), only one [N, ...] copy
// is carried; the first variant-dependent step widens it to [K*N, ...] with
// variant v owning rows [v*N, (v+1)*N). The panel ping-pongs between its two
// pool slots; `cur` tracks which slot `act` occupies (-1: owned storage from
// a dirty-slice fallback, which never aliases a slot).
struct Panel {
  Tensor act;
  bool uniform = true;
  std::size_t k = 1;
  PanelPool* pool = nullptr;
  int slot0 = 0, slot1 = 1;
  int cur = -1;

  std::int64_t rows() const { return act.shape()[0]; }
  std::int64_t per_variant() const {
    return act.numel() / static_cast<std::int64_t>(k);
  }
  /// A view of the *other* slot, pre-sized for `shape`; never aliases `act`.
  Tensor next(const Shape& shape) {
    cur = (cur == slot0) ? slot1 : slot0;
    return pool->view(cur, shape);
  }
  void diverge() {
    if (!uniform) return;
    const std::int64_t per = act.numel();
    Tensor wide =
        next(with_batch(act.shape(), rows() * static_cast<std::int64_t>(k)));
    for (std::size_t v = 0; v < k; ++v) {
      std::copy_n(act.data(), per,
                  wide.data() + static_cast<std::int64_t>(v) * per);
    }
    act = std::move(wide);
    uniform = false;
  }
};

// XOR toggle — self-inverse, so the same call applies and reverts.
void toggle(const std::vector<ParamFlip>& flips) {
  for (const ParamFlip& f : flips) {
    (*f.t)[f.elem] = fault::flip_bit((*f.t)[f.elem], f.bit);
  }
}

// Convolution step. Every live sample funnels through the wide multi-variant
// GEMM path whether or not any variant corrupts this conv — the fused
// [patch, T*OH*OW] panels are where the batched speedup comes from (late
// ResNet convs have per-sample panels as narrow as 4 columns). Dirty
// variants run against corrupted deep copies of the weight/bias; clean ones
// share the golden pointers.
void run_conv(nn::Conv2d& conv, Panel& p, const LayerFlips& flips) {
  const Shape& in = p.act.shape();
  const std::int64_t c = in[1], h = in[2], w = in[3];
  const tensor::Conv2dSpec& spec = conv.spec();
  const std::int64_t o = conv.out_channels();
  const std::int64_t oh = spec.out_h(h), ow = spec.out_w(w);

  std::vector<Tensor> store;
  store.reserve(2 * p.k);  // pointers into store must stay stable below
  std::vector<const float*> wv(p.k, conv.weight().data());
  std::vector<const float*> bv(
      p.k, conv.bias().empty() ? nullptr : conv.bias().data());
  bool dirty = false;
  for (std::size_t v = 0; v < p.k; ++v) {
    if (flips[v] == nullptr) continue;
    Tensor* wc = nullptr;
    Tensor* bc = nullptr;
    for (const ParamFlip& f : *flips[v]) {
      Tensor** copy;
      const float** slot;
      if (f.t == &conv.weight()) {
        copy = &wc;
        slot = &wv[v];
      } else if (f.t == &conv.bias()) {
        copy = &bc;
        slot = &bv[v];
      } else {
        continue;  // flip on another sub-tensor of the same top-level layer
      }
      if (*copy == nullptr) {
        // Pooled corrupted copy — storage reused across chunks, since copies
        // are acquired in deterministic (variant, tensor) order.
        store.push_back(p.pool->wcopy(*f.t));
        *copy = &store.back();
        *slot = (*copy)->data();
      }
      (**copy)[f.elem] = fault::flip_bit((**copy)[f.elem], f.bit);
      dirty = true;
    }
  }

  if (!dirty) {
    // One "variant" spanning every live sample, golden kernel.
    Tensor out = p.next(Shape{p.rows(), o, oh, ow});
    const float* ws[1] = {conv.weight().data()};
    const float* bs[1] = {bv[0]};
    tensor::conv2d_forward_multi(p.act.data(), /*shared_input=*/false, 1,
                                 p.rows(), c, h, w, ws, bs, o, spec,
                                 out.data());
    p.act = std::move(out);
    return;
  }
  if (p.uniform) {
    // Divergence point: all variants read the same [N, ...] block, so the
    // im2col panel is unfolded once and shared across every variant's GEMM.
    const std::int64_t n = p.rows();
    Tensor out = p.next(Shape{static_cast<std::int64_t>(p.k) * n, o, oh, ow});
    tensor::conv2d_forward_multi(p.act.data(), /*shared_input=*/true, p.k, n,
                                 c, h, w, wv.data(), bv.data(), o, spec,
                                 out.data());
    p.act = std::move(out);
    p.uniform = false;
    return;
  }
  const std::int64_t n = p.rows() / static_cast<std::int64_t>(p.k);
  Tensor out = p.next(Shape{p.rows(), o, oh, ow});
  tensor::conv2d_forward_multi(p.act.data(), /*shared_input=*/false, p.k, n,
                               c, h, w, wv.data(), bv.data(), o, spec,
                               out.data());
  p.act = std::move(out);
}

// Output shape of one widened step for the supported per-sample-pure layer
// kinds; rank-0 means "unknown — use the allocating forward".
Shape widened_out_shape(nn::Layer& layer, const Shape& in) {
  const std::string kind = layer.kind();
  if (kind == "bn" || kind == "relu" || kind == "dropout") return in;
  if (kind == "flatten") return Shape{in[0], in.numel() / in[0]};
  if (kind == "avgpool") return Shape{in[0], in[1]};
  if (kind == "maxpool") {
    const auto k = static_cast<nn::MaxPool2d&>(layer).kernel();
    return Shape{in[0], in[1], in[2] / k, in[3] / k};
  }
  if (kind == "dense") {
    return Shape{in[0], static_cast<nn::Dense&>(layer).out_features()};
  }
  return Shape{};
}

// Clean widened forward of one supported layer, pooled via forward_into.
// Unknown shapes have no pooled recipe — they fall back to the allocating
// forward, and `cur = -1` records that the panel left the pool's slots.
void run_clean(nn::Layer& layer, Panel& p) {
  const Shape out_shape = widened_out_shape(layer, p.act.shape());
  if (out_shape.rank() == 0) {
    p.act = layer.forward(p.act, /*training=*/false);
    p.cur = -1;
    return;
  }
  Tensor out = p.next(out_shape);
  layer.forward_into(p.act, out);
  p.act = std::move(out);
}

// Any other layer. Clean: one widened forward — eval-mode layers are
// per-sample pure functions, so the stacked result is bit-exact per slice.
// Dirty: per-variant flip-in-place / forward-slice / revert against the live
// tensors — fully general, and the only bit-exact option for Dense, whose
// scalar GEMM zero-skips on the *activation* operand (backend.h), so a
// transposed variant kernel would change which products are elided.
void run_generic(nn::Layer& layer, Panel& p, const LayerFlips& flips) {
  std::vector<nn::ParamRef> refs;
  layer.collect_params("", refs);
  layer.collect_buffers("", refs);
  std::vector<std::vector<ParamFlip>> owned(p.k);
  bool dirty = false;
  for (std::size_t v = 0; v < p.k; ++v) {
    if (flips[v] == nullptr) continue;
    for (const ParamFlip& f : *flips[v]) {
      for (const nn::ParamRef& r : refs) {
        if (r.value == f.t) {
          owned[v].push_back(f);
          dirty = true;
          break;
        }
      }
    }
  }
  if (!dirty) {
    run_clean(layer, p);
    return;
  }
  p.diverge();
  const std::int64_t n = p.rows() / static_cast<std::int64_t>(p.k);
  const std::int64_t per = p.per_variant();
  Tensor out;
  for (std::size_t v = 0; v < p.k; ++v) {
    toggle(owned[v]);
    Tensor slice{with_batch(p.act.shape(), n)};
    std::copy_n(p.act.data() + static_cast<std::int64_t>(v) * per, per,
                slice.data());
    Tensor res = layer.forward(slice, /*training=*/false);
    toggle(owned[v]);
    if (out.empty()) {
      out = Tensor{with_batch(res.shape(),
                              res.shape()[0] * static_cast<std::int64_t>(p.k))};
    }
    std::copy_n(res.data(), res.numel(),
                out.data() + static_cast<std::int64_t>(v) * res.numel());
  }
  p.act = std::move(out);
  p.cur = -1;  // panel left the pool slots; next() must not alias `out`
}

// BasicBlock, always decomposed so the inner convs ride the fused panels
// even when the block is clean. Mirrors BasicBlock::forward step for step:
// conv1 → bn1 → relu → conv2 → bn2, shortcut (projection or identity),
// residual add, relu. Flip lists pass through unfiltered — run_conv and
// run_generic match flips to sub-tensors by pointer.
void run_block(nn::BasicBlock& block, Panel& p, const LayerFlips& flips) {
  // Shortcut branch rides its own slot pair (2/3) so the main panel can
  // ping-pong 0/1 freely; it starts from a pooled copy of the block input.
  Panel shortcut;
  shortcut.uniform = p.uniform;
  shortcut.k = p.k;
  shortcut.pool = p.pool;
  shortcut.slot0 = 2;
  shortcut.slot1 = 3;
  {
    Tensor copy = shortcut.next(p.act.shape());
    std::copy_n(p.act.data(), p.act.numel(), copy.data());
    shortcut.act = std::move(copy);
  }
  run_conv(block.conv1(), p, flips);
  run_generic(block.bn1(), p, flips);
  tensor::relu_inplace(p.act);
  run_conv(block.conv2(), p, flips);
  run_generic(block.bn2(), p, flips);
  if (block.has_projection()) {
    run_conv(*block.proj_conv(), shortcut, flips);
    run_generic(*block.proj_bn(), shortcut, flips);
  }
  // The branches may have diverged independently; reconcile widths before
  // the residual add.
  if (p.uniform != shortcut.uniform) {
    p.diverge();
    shortcut.diverge();
  }
  tensor::add_inplace(p.act, shortcut.act);
  tensor::relu_inplace(p.act);
}

// Layer kinds whose eval-mode forward is a per-sample pure function, the
// property the widened panel rests on. Anything else (e.g. quantized
// rebuilds) sends the whole batch down the sequential path.
bool kind_supported(const std::string& kind) {
  return kind == "conv" || kind == "bn" || kind == "relu" ||
         kind == "maxpool" || kind == "avgpool" || kind == "flatten" ||
         kind == "dense" || kind == "block" || kind == "dropout";
}

}  // namespace

// One mask prepared for the widened forward: its split by site kind plus its
// parameter flips resolved to (live tensor, element, bit) per owning layer.
struct MultiMaskEvaluator::Variant {
  std::size_t index = 0;        // position in the input span
  std::size_t flips_total = 0;  // mask.num_flips()
  detail::SplitMask split;
  std::map<std::int64_t, std::vector<ParamFlip>> layer_flips;
};

// Grow-once storage (panel slots, weight copies) persisted for the
// evaluator's lifetime.
struct MultiMaskEvaluator::Pool {
  PanelPool p;
};

MultiMaskEvaluator::MultiMaskEvaluator(BayesianFaultNetwork& net)
    : net_(net), pool_(std::make_unique<Pool>()) {
  kinds_ok_ = true;
  for (std::size_t i = 0; i < net_.net_.num_layers(); ++i) {
    if (!kind_supported(net_.net_.layer_kind(i))) {
      kinds_ok_ = false;
      break;
    }
  }
}

MultiMaskEvaluator::~MultiMaskEvaluator() = default;

bool MultiMaskEvaluator::batchable() const {
  return kinds_ok_ && !net_.has_guards_ &&
         net_.net_.abft().mode == tensor::abft::Mode::kOff;
}

EvalOutcome MultiMaskEvaluator::evaluate(std::span<const FaultMask> masks,
                                         std::size_t max_batch) {
  EvalOutcome result;
  result.outcomes.resize(masks.size());
  std::vector<MaskOutcome>& out = result.outcomes;
  if (!batchable() || max_batch <= 1 || masks.size() <= 1) {
    for (std::size_t i = 0; i < masks.size(); ++i) {
      out[i] = net_.evaluate_mask(masks[i]);
    }
    result.sequential = masks.size();
    return result;
  }

  const auto cached = static_cast<std::int64_t>(net_.cache_.cached_layers());
  std::map<std::int64_t, std::vector<Variant>> groups;
  std::vector<std::size_t> sequential;
  for (std::size_t i = 0; i < masks.size(); ++i) {
    Variant var;
    var.index = i;
    var.flips_total = masks[i].num_flips();
    var.split = detail::split_mask(*net_.space_, masks[i]);
    if (!var.split.compute_flips.empty()) {
      // Mid-kernel flips need the per-sample checked-GEMM addressing of the
      // sequential path.
      sequential.push_back(i);
      continue;
    }
    for (std::int64_t flat : var.split.param_bits) {
      const fault::FaultSite site = fault::FaultSite::from_flat(flat);
      const InjectionSpace::Entry& entry = net_.space_->entry_of(site.element);
      var.layer_flips[entry.layer].push_back(
          {entry.value, site.element - entry.offset, site.bit});
    }
    // Same replay-start rule as the sequential path, so the per-mask
    // truncated/full accounting matches it exactly.
    const std::int64_t begin =
        cached == 0
            ? 0
            : std::min(net_.space_->first_replay_layer(masks[i]), cached);
    groups[begin].push_back(std::move(var));
  }

  for (auto& [begin, vars] : groups) {
    for (std::size_t lo = 0; lo < vars.size(); lo += max_batch) {
      const std::size_t len = std::min(max_batch, vars.size() - lo);
      evaluate_chunk(std::span<Variant>(vars.data() + lo, len), begin, out);
    }
  }
  for (std::size_t i : sequential) out[i] = net_.evaluate_mask(masks[i]);
  result.sequential = sequential.size();
  result.batched = masks.size() - result.sequential;
  return result;
}

void MultiMaskEvaluator::evaluate_chunk(std::span<Variant> chunk,
                                        std::int64_t begin,
                                        std::vector<MaskOutcome>& out) {
  const std::size_t k = chunk.size();
  const std::size_t depth = net_.net_.num_layers();
  const auto n_eval = static_cast<std::int64_t>(net_.eval_labels_.size());

  Panel p;
  p.k = k;
  p.pool = &pool_->p;
  p.pool->begin_chunk();
  {
    // Pooled copy of the replay-start tensor (the pre-start flips below
    // mutate it, so the cache/input must never be handed out directly).
    const Tensor& start =
        begin > 0
            ? net_.cache_.activation(static_cast<std::size_t>(begin) - 1)
            : net_.eval_inputs_;
    Tensor copy = p.next(start.shape());
    std::copy_n(start.data(), start.numel(), copy.data());
    p.act = std::move(copy);
  }

  // Pre-start corruption: input bits (begin == 0) or stored-activation bits
  // of layer begin-1 — both flip the tensor the replay starts from, exactly
  // where the sequential path applies them.
  bool pre = false;
  for (const Variant& v : chunk) {
    if (begin == 0 ? !v.split.input_flips.empty()
                   : v.split.act_flips.count(begin - 1) > 0) {
      pre = true;
      break;
    }
  }
  if (pre) {
    p.diverge();
    const std::int64_t per = p.per_variant();
    for (std::size_t v = 0; v < k; ++v) {
      const std::vector<std::pair<std::int64_t, int>>* flips = nullptr;
      if (begin == 0) {
        if (!chunk[v].split.input_flips.empty()) {
          flips = &chunk[v].split.input_flips;
        }
      } else {
        const auto it = chunk[v].split.act_flips.find(begin - 1);
        if (it != chunk[v].split.act_flips.end()) flips = &it->second;
      }
      if (flips == nullptr) continue;
      float* base = p.act.data() + static_cast<std::int64_t>(v) * per;
      for (const auto& [elem, bit] : *flips) {
        base[elem] = fault::flip_bit(base[elem], bit);
      }
    }
  }

  LayerFlips flips(k, nullptr);
  for (std::size_t j = static_cast<std::size_t>(begin); j < depth; ++j) {
    bool any = false;
    for (std::size_t v = 0; v < k; ++v) {
      const auto it = chunk[v].layer_flips.find(static_cast<std::int64_t>(j));
      flips[v] = it == chunk[v].layer_flips.end() ? nullptr : &it->second;
      any |= flips[v] != nullptr;
    }
    nn::Layer& layer = net_.net_.layer(j);
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
      run_conv(*conv, p, flips);
    } else if (auto* block = dynamic_cast<nn::BasicBlock*>(&layer)) {
      run_block(*block, p, flips);
    } else if (any) {
      run_generic(layer, p, flips);
    } else {
      run_clean(layer, p);
    }
    // Post-layer activation corruption (where the sequential hook fires).
    bool any_act = false;
    for (const Variant& v : chunk) {
      if (v.split.act_flips.count(static_cast<std::int64_t>(j)) > 0) {
        any_act = true;
        break;
      }
    }
    if (any_act) {
      p.diverge();
      const std::int64_t per = p.per_variant();
      for (std::size_t v = 0; v < k; ++v) {
        const auto it =
            chunk[v].split.act_flips.find(static_cast<std::int64_t>(j));
        if (it == chunk[v].split.act_flips.end()) continue;
        float* base = p.act.data() + static_cast<std::int64_t>(v) * per;
        for (const auto& [elem, bit] : it->second) {
          base[elem] = fault::flip_bit(base[elem], bit);
        }
      }
    }
  }

  // Per-variant outcome through the sequential path's classifier. ABFT is
  // off and guards are absent on this path (batchable()), so the
  // self-checking deltas stay zero and kCorrected cannot occur.
  BDLFI_CHECK(p.act.shape().rank() == 2);
  const std::int64_t classes = p.act.shape()[1];
  for (std::size_t v = 0; v < k; ++v) {
    const std::int64_t row0 =
        p.uniform ? 0 : static_cast<std::int64_t>(v) * n_eval;
    MaskOutcome& o = out[chunk[v].index];
    o.flipped_bits = chunk[v].flips_total;
    net_.classify(p.act.data() + row0 * classes, classes, o);
  }
  // Truncated-replay accounting: one entry per mask, as if evaluated alone.
  net_.record_evals(begin, k);
}

}  // namespace bdlfi::bayes
