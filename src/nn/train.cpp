#include "nn/train.hpp"

#include <bit>
#include <cmath>
#include <utility>

#include "scaleout/snapshot.hpp"
#include "tensor/ops.hpp"

namespace gaudi::nn {

using graph::ValueId;
using tensor::Tensor;

namespace {

std::uint64_t f_bits(float v) { return std::bit_cast<std::uint32_t>(v); }
float bits_f(std::uint64_t v) {
  return std::bit_cast<float>(static_cast<std::uint32_t>(v));
}

}  // namespace

bool GradScaler::update(bool overflow) {
  if (overflow) {
    ++skipped_;
    streak_ = 0;
    scale_ = std::max(cfg_.min_scale, scale_ * cfg_.backoff_factor);
    return false;
  }
  if (++streak_ >= cfg_.growth_interval) {
    streak_ = 0;
    scale_ = std::min(cfg_.max_scale, scale_ * cfg_.growth_factor);
  }
  return true;
}

void GradScaler::restore(float scale, std::int32_t streak,
                         std::int64_t skipped) {
  GAUDI_CHECK(std::isfinite(scale) && scale >= cfg_.min_scale &&
                  scale <= cfg_.max_scale,
              "restored loss scale outside the configured [min, max] range");
  GAUDI_CHECK(streak >= 0 && streak < std::max(1, cfg_.growth_interval),
              "restored clean streak outside [0, growth_interval)");
  GAUDI_CHECK(skipped >= 0, "restored skipped-step count is negative");
  scale_ = scale;
  streak_ = streak;
  skipped_ = skipped;
}

TrainResult train_language_model(const TrainOptions& opts,
                                 const sim::ChipConfig& chip) {
  GAUDI_CHECK(opts.steps > 0, "training needs at least one step");
  LmConfig mcfg = opts.model;
  mcfg.training = true;
  mcfg.scaled_loss = opts.loss_scaling;

  graph::Graph g;
  const LanguageModel model = build_language_model(g, mcfg, opts.seed);
  graph::Graph ug;
  const OptimizerState ostate =
      build_update_graph(ug, g, model, opts.optimizer);
  const std::vector<ValueId> trainable = model.params.trainable();
  const std::vector<OptimizerState::StateRef> srefs = ostate.state_refs(ug);

  graph::Runtime rt(chip);
  const graph::CompiledGraph cg = rt.compile(g);
  const graph::CompiledGraph cug = rt.compile(ug);

  // Model feeds: parameters (updated in place across steps), token batches,
  // and the loss-scale scalar rewritten before every run.
  std::unordered_map<ValueId, Tensor> feeds = model.params.init_feeds(g);
  sim::CounterRng data_rng{opts.seed ^ 0xDA7Au};
  if (!opts.resample_data) {
    // One fixed batch for the whole run (the historical loop).
    feeds.emplace(model.token_ids,
                  Tensor::random_tokens(
                      tensor::Shape{{mcfg.batch, mcfg.seq_len}},
                      data_rng.stream(1), mcfg.vocab));
    feeds.emplace(model.targets,
                  Tensor::random_tokens(tensor::Shape{{mcfg.tokens()}},
                                        data_rng.stream(2), mcfg.vocab));
  }
  if (model.causal_mask != graph::kInvalidValue) {
    feeds.emplace(model.causal_mask, make_causal_mask(mcfg.seq_len));
  }
  Tensor scale_feed = Tensor::zeros(tensor::Shape{{1}});
  if (model.loss_scale != graph::kInvalidValue) {
    feeds.emplace(model.loss_scale, scale_feed);
  }

  // Optimizer state, zero on the first step and fed back thereafter.
  std::unordered_map<ValueId, Tensor> state_feeds = ostate.initial_state(ug);

  GradScaler scaler(opts.scaler);
  TrainResult result;

  // Configuration fingerprint: every knob that must match for a resumed run
  // to be bitwise-identical to the uninterrupted one.  Floats ride as bit
  // patterns so the comparison is exact.
  const std::vector<std::pair<std::string, std::uint64_t>> fingerprint = [&] {
    const OptimizerConfig& oc = opts.optimizer;
    std::vector<std::pair<std::string, std::uint64_t>> fp;
    fp.emplace_back("model.arch", static_cast<std::uint64_t>(mcfg.arch));
    fp.emplace_back("model.vocab", static_cast<std::uint64_t>(mcfg.vocab));
    fp.emplace_back("model.batch", static_cast<std::uint64_t>(mcfg.batch));
    fp.emplace_back("model.seq_len", static_cast<std::uint64_t>(mcfg.seq_len));
    fp.emplace_back("model.layers", static_cast<std::uint64_t>(mcfg.n_layers));
    fp.emplace_back("model.heads", static_cast<std::uint64_t>(mcfg.heads));
    fp.emplace_back("model.head_dim",
                    static_cast<std::uint64_t>(mcfg.head_dim));
    fp.emplace_back("model.ffn_dim", static_cast<std::uint64_t>(mcfg.ffn_dim));
    fp.emplace_back("opt.kind", static_cast<std::uint64_t>(oc.kind));
    fp.emplace_back("opt.step", static_cast<std::uint64_t>(oc.step));
    fp.emplace_back("opt.lr_bits", f_bits(oc.lr));
    fp.emplace_back("opt.momentum_bits", f_bits(oc.momentum));
    fp.emplace_back("opt.beta1_bits", f_bits(oc.beta1));
    fp.emplace_back("opt.beta2_bits", f_bits(oc.beta2));
    fp.emplace_back("opt.eps_bits", f_bits(oc.eps));
    fp.emplace_back("scaler.init_scale_bits", f_bits(opts.scaler.init_scale));
    fp.emplace_back("scaler.growth_factor_bits",
                    f_bits(opts.scaler.growth_factor));
    fp.emplace_back("scaler.backoff_factor_bits",
                    f_bits(opts.scaler.backoff_factor));
    fp.emplace_back("scaler.growth_interval",
                    static_cast<std::uint64_t>(opts.scaler.growth_interval));
    fp.emplace_back("train.seed", opts.seed);
    fp.emplace_back("train.loss_scaling", opts.loss_scaling ? 1u : 0u);
    fp.emplace_back("train.bf16_grads", opts.bf16_grads ? 1u : 0u);
    fp.emplace_back("train.resample_data", opts.resample_data ? 1u : 0u);
    fp.emplace_back("rng.data_seed", data_rng.seed());
    fp.emplace_back("rng.data_stream", data_rng.stream_id());
    return fp;
  }();

  // Complete training state at `completed` finished steps, as a snapshot.
  // Sections share storage with the live feeds; the snapshot is serialized
  // (or sized) immediately, before the next step mutates them.
  const auto make_snapshot = [&](std::uint64_t completed) {
    scaleout::Snapshot snap;
    snap.step = completed;
    for (const auto& [key, value] : fingerprint) snap.add_meta(key, value);
    snap.add_meta("scaler.scale_bits", f_bits(scaler.scale()));
    snap.add_meta("scaler.streak",
                  static_cast<std::uint64_t>(scaler.clean_streak()));
    snap.add_meta("scaler.skipped",
                  static_cast<std::uint64_t>(scaler.skipped_steps()));
    snap.add_meta("train.data_cursor", completed);
    snap.add_meta("train.sdc_injections", result.sdc_injections);
    snap.add_meta("train.anomalies", result.anomalies);
    for (const ValueId p : trainable) snap.add(g.value(p).name, feeds.at(p));
    for (const OptimizerState::StateRef& ref : srefs) {
      snap.add(ref.name, state_feeds.at(ref.in));
    }
    return snap;
  };

  // Resume: restore the newest valid snapshot, or start fresh when the
  // directory holds none (noted in the report, never an error).
  std::int32_t start_step = 0;
  if (!opts.checkpoint_dir.empty() && opts.resume) {
    scaleout::SnapshotScan scan = scaleout::scan_snapshots(opts.checkpoint_dir);
    result.resume_report = scaleout::to_string(scan);
    if (!scan.found()) {
      result.resume_report += "resume: no valid snapshot, starting fresh\n";
    } else {
      const scaleout::Snapshot& snap = *scan.snapshot;
      for (const auto& [key, expected] : fingerprint) {
        const std::uint64_t got = snap.require_meta(key);
        if (got != expected) {
          throw sim::CheckpointShapeMismatch(
              "snapshot fingerprint mismatch for '" + key +
              "': snapshot has " + std::to_string(got) +
              ", this run expects " + std::to_string(expected));
        }
      }
      if (snap.step >= static_cast<std::uint64_t>(opts.steps)) {
        throw sim::InvalidArgument(
            "--steps " + std::to_string(opts.steps) +
            " is already covered: the newest snapshot is at step " +
            std::to_string(snap.step) + "; pass a larger --steps to resume");
      }
      const auto restore_tensor = [&](const graph::Graph& owner, ValueId v,
                                      std::unordered_map<ValueId, Tensor>& dst) {
        const graph::ValueInfo& info = owner.value(v);
        const Tensor& t = snap.require(info.name);
        if (!(t.shape() == info.shape) || t.dtype() != info.dtype) {
          throw sim::CheckpointShapeMismatch(
              "snapshot section '" + info.name + "' is " +
              t.shape().to_string() + " " +
              std::string(tensor::dtype_name(t.dtype())) +
              " but the model expects " + info.shape.to_string() + " " +
              std::string(tensor::dtype_name(info.dtype)));
        }
        dst[v] = t.clone();
      };
      for (const ValueId p : trainable) restore_tensor(g, p, feeds);
      for (const OptimizerState::StateRef& ref : srefs) {
        restore_tensor(ug, ref.in, state_feeds);
      }
      scaler.restore(
          bits_f(snap.require_meta("scaler.scale_bits")),
          static_cast<std::int32_t>(snap.require_meta("scaler.streak")),
          static_cast<std::int64_t>(snap.require_meta("scaler.skipped")));
      result.sdc_injections =
          static_cast<std::size_t>(snap.require_meta("train.sdc_injections"));
      result.anomalies =
          static_cast<std::size_t>(snap.require_meta("train.anomalies"));
      result.resumed_from_step = static_cast<std::int64_t>(snap.step);
      start_step = static_cast<std::int32_t>(snap.step);
    }
  }

  const bool checkpointing = !opts.checkpoint_dir.empty();
  GAUDI_CHECK(!checkpointing || opts.checkpoint_every > 0,
              "checkpoint_every must be positive");
  const auto interval = static_cast<std::uint64_t>(opts.checkpoint_every);

  result.steps.reserve(static_cast<std::size_t>(opts.steps - start_step));

  for (std::int32_t step = start_step; step < opts.steps; ++step) {
    if (opts.resample_data) {
      // Fresh batch per step, keyed by the step index so the data order is
      // a pure function of (seed, step) — the checkpointed cursor suffices.
      const std::uint64_t cursor = static_cast<std::uint64_t>(step) + 1;
      feeds[model.token_ids] = Tensor::random_tokens(
          tensor::Shape{{mcfg.batch, mcfg.seq_len}},
          data_rng.stream(1).stream(cursor), mcfg.vocab);
      feeds[model.targets] = Tensor::random_tokens(
          tensor::Shape{{mcfg.tokens()}}, data_rng.stream(2).stream(cursor),
          mcfg.vocab);
    }
    const float scale = opts.loss_scaling ? scaler.scale() : 1.0f;
    if (model.loss_scale != graph::kInvalidValue) {
      scale_feed.f32()[0] = scale;
    }

    graph::RunOptions ro = opts.run;
    ro.mode = tpc::ExecMode::kFunctional;
    // Even steps of the epoch counter belong to the model graph, odd to the
    // update graph, so SDC sites never collide across the two.
    ro.fault_epoch = static_cast<std::uint64_t>(step) * 2;
    ro.corrupt_value = (step == opts.corrupt_grad_step &&
                        !model.grad_values.empty())
                           ? model.grad_values.front()
                           : graph::kInvalidValue;
    graph::ProfileResult r = rt.run(cg, feeds, ro);
    result.sdc_injections += r.sdc_injections.size();
    result.anomalies += r.anomalies.size();

    TrainStepInfo info;
    info.loss = r.outputs.at(model.loss).f32()[0];
    info.scale = scale;

    // Host-side gradient audit: one sweep over every (optionally
    // bf16-stored) gradient decides overflow before any update applies.
    std::vector<Tensor> grads;
    grads.reserve(trainable.size());
    for (const ValueId gv : model.grad_values) {
      Tensor t = r.outputs.at(gv).clone();
      if (opts.bf16_grads) {
        for (float& x : t.f32()) x = tensor::round_bf16(x);
      }
      info.grad_stats.merge(tensor::ops::numerics_sweep(t));
      grads.push_back(std::move(t));
    }
    const bool overflow = info.grad_stats.anomalous();
    info.applied = opts.loss_scaling ? scaler.update(overflow) : true;

    if (info.applied) {
      // Unscale into the f32 master gradients and run the update graph.
      const float inv = 1.0f / scale;
      std::unordered_map<ValueId, Tensor> ufeeds = state_feeds;
      for (std::size_t i = 0; i < ostate.slots.size(); ++i) {
        const OptimizerSlot& slot = ostate.slots[i];
        if (scale != 1.0f) {
          for (float& x : grads[i].f32()) x *= inv;
        }
        ufeeds.emplace(slot.param, feeds.at(trainable[i]));
        ufeeds.emplace(slot.grad, std::move(grads[i]));
      }
      graph::RunOptions uro = opts.run;
      uro.mode = tpc::ExecMode::kFunctional;
      uro.fault_epoch = static_cast<std::uint64_t>(step) * 2 + 1;
      uro.corrupt_value = graph::kInvalidValue;
      graph::ProfileResult ur = rt.run(cug, ufeeds, uro);
      result.sdc_injections += ur.sdc_injections.size();
      result.anomalies += ur.anomalies.size();
      for (std::size_t i = 0; i < ostate.slots.size(); ++i) {
        const OptimizerSlot& slot = ostate.slots[i];
        feeds[trainable[i]] = ur.outputs.at(slot.new_param);
        for (const auto& [in, outv] :
             {std::pair{slot.vel_in, slot.vel_out},
              std::pair{slot.m_in, slot.m_out},
              std::pair{slot.v_in, slot.v_out}}) {
          if (in != graph::kInvalidValue) {
            state_feeds[in] = ur.outputs.at(outv);
          }
        }
      }
    }
    result.steps.push_back(info);

    if (checkpointing) {
      const std::uint64_t done = static_cast<std::uint64_t>(step) + 1;
      if (done % interval == 0 ||
          done == static_cast<std::uint64_t>(opts.steps)) {
        scaleout::SaveOptions sopts;
        sopts.faults = opts.run.faults;
        sopts.site = done;
        result.last_checkpoint =
            scaleout::save_snapshot(opts.checkpoint_dir, make_snapshot(done),
                                    sopts);
        ++result.checkpoints_saved;
      }
    }
  }

  result.skipped_steps = scaler.skipped_steps();
  result.final_scale = opts.loss_scaling ? scaler.scale() : 1.0f;
  result.final_loss = result.steps.back().loss;
  result.finite = std::isfinite(result.final_loss);
  return result;
}

}  // namespace gaudi::nn
