#include "nn/decode.hpp"

#include <cmath>
#include <string>

#include "nn/layers.hpp"
#include "sim/error.hpp"

namespace gaudi::nn {

using graph::Graph;
using graph::ValueId;

DecodeConfig DecodeConfig::gpt2_paper() { return DecodeConfig{}; }

DecodeConfig DecodeConfig::tiny() {
  DecodeConfig cfg;
  cfg.vocab = 53;
  cfg.batch = 2;
  cfg.heads = 2;
  cfg.head_dim = 4;
  cfg.n_layers = 2;
  cfg.ffn_dim = 8;
  cfg.max_seq = 16;
  return cfg;
}

namespace {

/// Parameters of one decoder layer; creation order is shared by the prefill
/// and decode builders so that equal seeds give equal tensors.
struct LayerParams {
  Linear q_proj, k_proj, v_proj, out_proj, ffn_in, ffn_out;
  LayerNorm ln1, ln2;

  LayerParams(Graph& g, ParamStore& params, const DecodeConfig& cfg,
              const std::string& name)
      : q_proj(g, params, cfg.d_model(), cfg.d_model(), name + ".q_proj"),
        k_proj(g, params, cfg.d_model(), cfg.d_model(), name + ".k_proj"),
        v_proj(g, params, cfg.d_model(), cfg.d_model(), name + ".v_proj"),
        out_proj(g, params, cfg.d_model(), cfg.d_model(), name + ".out_proj"),
        ffn_in(g, params, cfg.d_model(), cfg.ffn_dim, name + ".ffn_in"),
        ffn_out(g, params, cfg.ffn_dim, cfg.d_model(), name + ".ffn_out"),
        ln1(g, params, cfg.d_model(), name + ".ln1"),
        ln2(g, params, cfg.d_model(), name + ".ln2") {}
};

struct GptParams {
  Embedding wte;
  ValueId wpe;
  std::vector<LayerParams> layers;
  LayerNorm ln_f;
  Linear lm_head;

  GptParams(Graph& g, ParamStore& params, const DecodeConfig& cfg)
      : wte(g, params, cfg.vocab, cfg.d_model(), "gpt.wte"),
        wpe(params.create(g, tensor::Shape{{cfg.max_seq, cfg.d_model()}},
                          "gpt.wpe", Init::kNormal, 0.01f)),
        layers([&] {
          std::vector<LayerParams> ls;
          ls.reserve(static_cast<std::size_t>(cfg.n_layers));
          for (std::int64_t l = 0; l < cfg.n_layers; ++l) {
            ls.emplace_back(g, params, cfg,
                            "gpt.layer" + std::to_string(l));
          }
          return ls;
        }()),
        ln_f(g, params, cfg.d_model(), "gpt.ln_f"),
        lm_head(g, params, cfg.d_model(), cfg.vocab, "gpt.lm_head",
                /*bias=*/false) {}
};

/// Post-attention tail shared by both builders: out-proj, residual, LN,
/// FFN, residual, LN.  `x` and `attn_out` are [T, D].
ValueId layer_tail(Graph& g, const LayerParams& lp, ValueId x, ValueId attn_out,
                   const std::string& name) {
  const ValueId h = lp.ln1(g, g.add(x, lp.out_proj(g, attn_out),
                                    name + ".residual1"));
  ValueId f = lp.ffn_in(g, h);
  f = g.gelu(f);
  f = lp.ffn_out(g, f);
  return lp.ln2(g, g.add(h, f, name + ".residual2"));
}

}  // namespace

PrefillGraph build_gpt_prefill(Graph& g, const DecodeConfig& cfg,
                               std::int64_t seq_len, std::uint64_t seed) {
  GAUDI_CHECK(seq_len >= 1 && seq_len <= cfg.max_seq,
              "prefill seq_len " + std::to_string(seq_len) +
                  " is outside [1, max_seq=" + std::to_string(cfg.max_seq) +
                  "]: the prompt must fit the position-embedding table");
  PrefillGraph out;
  out.config = cfg;
  out.params = ParamStore(seed);
  const std::int64_t d = cfg.d_model();
  const std::int64_t tokens = cfg.batch * seq_len;

  out.token_ids = g.input(tensor::Shape{{cfg.batch, seq_len}},
                          tensor::DType::I32, "prefill.token_ids");
  out.causal_mask = g.input(tensor::Shape{{seq_len, seq_len}},
                            tensor::DType::F32, "prefill.causal_mask");

  GptParams p(g, out.params, cfg);

  const ValueId ids_flat =
      g.reshape(out.token_ids, tensor::Shape{{tokens}}, "prefill.flatten");
  const ValueId tok = p.wte(g, ids_flat);
  const ValueId tok3 =
      g.reshape(tok, tensor::Shape{{cfg.batch, seq_len, d}}, "prefill.to_bnd");
  const ValueId pos = g.slice_rows(p.wpe, 0, seq_len, "prefill.pos");
  const ValueId embedded =
      g.add_op(graph::OpKind::kAddMask2D, {tok3, pos}, {}, "prefill.pos_add")[0];
  ValueId x = g.reshape(embedded, tensor::Shape{{tokens, d}}, "prefill.to_td");

  for (std::int64_t l = 0; l < cfg.n_layers; ++l) {
    const LayerParams& lp = p.layers[static_cast<std::size_t>(l)];
    const std::string name = "gpt.layer" + std::to_string(l);
    auto heads4 = [&](ValueId t, const char* what) {
      const ValueId r = g.reshape(
          t, tensor::Shape{{cfg.batch, seq_len, cfg.heads, cfg.head_dim}},
          name + "." + what + ".split");
      return g.swap_axes12(r, name + "." + what + ".to_heads");
    };
    const ValueId q = heads4(lp.q_proj(g, x), "q");
    const ValueId k = heads4(lp.k_proj(g, x), "k");
    const ValueId v = heads4(lp.v_proj(g, x), "v");
    g.mark_output(k);
    g.mark_output(v);
    out.caches.push_back(KvCache{k, v});

    const ValueId q_scaled = g.mul_scalar(
        q, 1.0f / std::sqrt(static_cast<float>(cfg.head_dim)), name + ".scale");
    ValueId scores = g.matmul(q_scaled, k, false, true, name + ".qk_t");
    scores = g.add_op(graph::OpKind::kAddMask2D, {scores, out.causal_mask}, {},
                      name + ".mask")[0];
    const ValueId probs = g.softmax(scores, name + ".softmax");
    const ValueId ctx = g.matmul(probs, v, false, false, name + ".av");
    const ValueId merged = g.reshape(
        g.swap_axes12(ctx, name + ".from_heads"),
        tensor::Shape{{tokens, d}}, name + ".merge");
    x = layer_tail(g, lp, x, merged, name);
  }

  x = p.ln_f(g, x);
  const ValueId x3 = g.reshape(x, tensor::Shape{{cfg.batch, seq_len, d}},
                               "prefill.to_b_s_d");
  const ValueId last = g.reshape(
      g.slice_rows(x3, seq_len - 1, 1, "prefill.last_token"),
      tensor::Shape{{cfg.batch, d}}, "prefill.last_flat");
  out.last_logits = p.lm_head(g, last);
  g.mark_output(out.last_logits);
  return out;
}

DecodeStepGraph build_gpt_decode_step(Graph& g, const DecodeConfig& cfg,
                                      std::int64_t context_len,
                                      std::uint64_t seed) {
  GAUDI_CHECK(context_len >= 1 && context_len < cfg.max_seq,
              "decode context_len " + std::to_string(context_len) +
                  " is outside [1, max_seq=" + std::to_string(cfg.max_seq) +
                  "): the appended token at position context_len must fit "
                  "the position-embedding table");
  DecodeStepGraph out;
  out.config = cfg;
  out.params = ParamStore(seed);
  out.context_len = context_len;
  const std::int64_t d = cfg.d_model();
  const std::int64_t b = cfg.batch;

  out.token_ids =
      g.input(tensor::Shape{{b, 1}}, tensor::DType::I32, "decode.token_id");

  GptParams p(g, out.params, cfg);

  for (std::int64_t l = 0; l < cfg.n_layers; ++l) {
    KvCache cache;
    cache.k = g.input(
        tensor::Shape{{b, cfg.heads, context_len, cfg.head_dim}},
        tensor::DType::F32, "decode.cache_k" + std::to_string(l));
    cache.v = g.input(
        tensor::Shape{{b, cfg.heads, context_len, cfg.head_dim}},
        tensor::DType::F32, "decode.cache_v" + std::to_string(l));
    out.cache_inputs.push_back(cache);
  }

  const ValueId ids_flat =
      g.reshape(out.token_ids, tensor::Shape{{b}}, "decode.flatten");
  const ValueId tok = p.wte(g, ids_flat);  // [B, D]
  const ValueId tok3 = g.reshape(tok, tensor::Shape{{b, 1, d}}, "decode.to_b1d");
  // The new token sits at position `context_len`.
  const ValueId pos = g.slice_rows(p.wpe, context_len, 1, "decode.pos");
  const ValueId embedded =
      g.add_op(graph::OpKind::kAddMask2D, {tok3, pos}, {}, "decode.pos_add")[0];
  ValueId x = g.reshape(embedded, tensor::Shape{{b, d}}, "decode.to_td");

  for (std::int64_t l = 0; l < cfg.n_layers; ++l) {
    const LayerParams& lp = p.layers[static_cast<std::size_t>(l)];
    const std::string name = "gpt.layer" + std::to_string(l);
    auto heads4 = [&](ValueId t, const char* what) {
      const ValueId r =
          g.reshape(t, tensor::Shape{{b, 1, cfg.heads, cfg.head_dim}},
                    name + "." + what + ".split");
      return g.swap_axes12(r, name + "." + what + ".to_heads");
    };
    const ValueId q = heads4(lp.q_proj(g, x), "q");
    const ValueId k_new = heads4(lp.k_proj(g, x), "k");
    const ValueId v_new = heads4(lp.v_proj(g, x), "v");

    // Cache append: the heart of the decode step.
    const KvCache& in_cache = out.cache_inputs[static_cast<std::size_t>(l)];
    KvCache new_cache;
    new_cache.k = g.concat_rows(in_cache.k, k_new, name + ".cache_k_append");
    new_cache.v = g.concat_rows(in_cache.v, v_new, name + ".cache_v_append");
    g.mark_output(new_cache.k);
    g.mark_output(new_cache.v);
    out.cache_outputs.push_back(new_cache);

    // One query attends to all cached positions plus itself; causality is
    // structural — no mask needed.
    const ValueId q_scaled = g.mul_scalar(
        q, 1.0f / std::sqrt(static_cast<float>(cfg.head_dim)), name + ".scale");
    const ValueId scores =
        g.matmul(q_scaled, new_cache.k, false, true, name + ".qk_t");
    const ValueId probs = g.softmax(scores, name + ".softmax");
    const ValueId ctx = g.matmul(probs, new_cache.v, false, false, name + ".av");
    const ValueId merged =
        g.reshape(g.swap_axes12(ctx, name + ".from_heads"),
                  tensor::Shape{{b, d}}, name + ".merge");
    x = layer_tail(g, lp, x, merged, name);
  }

  x = p.ln_f(g, x);
  out.logits = p.lm_head(g, x);
  g.mark_output(out.logits);
  return out;
}

}  // namespace gaudi::nn
