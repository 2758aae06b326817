#include "nn/optimizer.hpp"

namespace gaudi::nn {

using graph::Graph;
using graph::OpAttrs;
using graph::OpKind;
using graph::ValueId;

const char* optimizer_kind_name(OptimizerKind k) {
  switch (k) {
    case OptimizerKind::kSgd: return "sgd";
    case OptimizerKind::kSgdMomentum: return "sgd_momentum";
    case OptimizerKind::kAdam: return "adam";
  }
  return "?";
}

namespace {

/// Emits the update op for one slot whose `param`/`grad` are already set,
/// creating any state inputs; marks new param and state as graph outputs.
void append_update_op(Graph& g, OptimizerSlot& slot, const OptimizerConfig& cfg,
                      const tensor::Shape& shape, const std::string& pname) {
  OpAttrs attrs;
  attrs.lr = cfg.lr;
  switch (cfg.kind) {
    case OptimizerKind::kSgd: {
      const auto outs = g.add_op(OpKind::kSgdUpdate, {slot.param, slot.grad},
                                 attrs, pname + ".sgd");
      slot.new_param = outs[0];
      break;
    }
    case OptimizerKind::kSgdMomentum: {
      attrs.beta1 = cfg.momentum;
      slot.vel_in = g.input(shape, tensor::DType::F32, pname + ".velocity");
      const auto outs =
          g.add_op(OpKind::kSgdUpdate, {slot.param, slot.grad, slot.vel_in},
                   attrs, pname + ".sgd_m");
      slot.new_param = outs[0];
      slot.vel_out = outs[1];
      g.mark_output(slot.vel_out);
      break;
    }
    case OptimizerKind::kAdam: {
      attrs.beta1 = cfg.beta1;
      attrs.beta2 = cfg.beta2;
      attrs.eps = cfg.eps;
      attrs.step = cfg.step;
      slot.m_in = g.input(shape, tensor::DType::F32, pname + ".adam_m");
      slot.v_in = g.input(shape, tensor::DType::F32, pname + ".adam_v");
      const auto outs = g.add_op(
          OpKind::kAdamUpdate, {slot.param, slot.grad, slot.m_in, slot.v_in},
          attrs, pname + ".adam");
      slot.new_param = outs[0];
      slot.m_out = outs[1];
      slot.v_out = outs[2];
      g.mark_output(slot.m_out);
      g.mark_output(slot.v_out);
      break;
    }
  }
  g.mark_output(slot.new_param);
}

}  // namespace

OptimizerState append_optimizer(Graph& g, const LanguageModel& model,
                                const OptimizerConfig& cfg) {
  GAUDI_CHECK(model.config.training,
              "optimizer requires a training graph (gradients present)");
  const std::vector<ValueId> trainable = model.params.trainable();
  GAUDI_CHECK(trainable.size() == model.grad_values.size(),
              "gradient list does not match trainable parameters");

  OptimizerState state;
  state.config = cfg;
  state.slots.reserve(trainable.size());

  for (std::size_t i = 0; i < trainable.size(); ++i) {
    OptimizerSlot slot;
    slot.param = trainable[i];
    slot.grad = model.grad_values[i];
    // By value: adding state inputs below reallocates the graph's value
    // table, so references into it dangle.
    const tensor::Shape shape = g.value(slot.param).shape;
    const std::string pname = g.value(slot.param).name;
    append_update_op(g, slot, cfg, shape, pname);
    state.slots.push_back(slot);
  }
  return state;
}

OptimizerState build_update_graph(Graph& g, const graph::Graph& model_graph,
                                  const LanguageModel& model,
                                  const OptimizerConfig& cfg) {
  GAUDI_CHECK(model.config.training,
              "optimizer requires a training graph (gradients present)");
  const std::vector<ValueId> trainable = model.params.trainable();
  GAUDI_CHECK(trainable.size() == model.grad_values.size(),
              "gradient list does not match trainable parameters");

  OptimizerState state;
  state.config = cfg;
  state.slots.reserve(trainable.size());

  for (const ValueId p : trainable) {
    OptimizerSlot slot;
    const tensor::Shape shape = model_graph.value(p).shape;
    const std::string pname = model_graph.value(p).name;
    slot.param = g.input(shape, tensor::DType::F32, pname);
    slot.grad = g.input(shape, tensor::DType::F32, pname + ".grad");
    append_update_op(g, slot, cfg, shape, pname);
    state.slots.push_back(slot);
  }
  return state;
}

std::unordered_map<ValueId, tensor::Tensor> OptimizerState::initial_state(
    const graph::Graph& g) const {
  std::unordered_map<ValueId, tensor::Tensor> feeds;
  for (const OptimizerSlot& slot : slots) {
    for (const ValueId v : {slot.vel_in, slot.m_in, slot.v_in}) {
      if (v != graph::kInvalidValue) {
        feeds.emplace(v, tensor::Tensor::zeros(g.value(v).shape));
      }
    }
  }
  return feeds;
}

std::vector<OptimizerState::StateRef> OptimizerState::state_refs(
    const graph::Graph& g) const {
  std::vector<StateRef> refs;
  for (const OptimizerSlot& slot : slots) {
    for (const auto& [in, out] : {std::pair{slot.vel_in, slot.vel_out},
                                  std::pair{slot.m_in, slot.m_out},
                                  std::pair{slot.v_in, slot.v_out}}) {
      if (in != graph::kInvalidValue) {
        refs.push_back(StateRef{g.value(in).name, in, out});
      }
    }
  }
  return refs;
}

}  // namespace gaudi::nn
