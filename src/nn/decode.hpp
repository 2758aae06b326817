// Autoregressive decoding with KV caches.
//
// The paper profiles training; this extends the library to the inference
// regime a deployed GPT runs in: a *prefill* pass materializes per-layer
// key/value caches for the prompt, then each generated token runs a
// *decode step* — projections for one token, a cache append
// (`concat_rows`), and attention of a single query against the cached
// keys/values.  Decode exposes a very different hardware profile (m = 1
// GEMMs sit at the MME's packing floor; TPC work is proportionally larger),
// which the decode-latency bench quantifies.
//
// Prefill and decode are built as separate graphs; constructing them with
// the same seed yields identical parameter tensors (creation order is
// shared), so caches produced by one feed the other — asserted by the
// prefill/decode consistency test.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "nn/module.hpp"

namespace gaudi::nn {

struct DecodeConfig {
  std::int64_t vocab = 50257;
  std::int64_t batch = 1;
  std::int64_t heads = 8;
  std::int64_t head_dim = 64;
  std::int64_t n_layers = 2;
  std::int64_t ffn_dim = 2048;
  /// Position-embedding capacity (prompt + generated tokens must fit).
  std::int64_t max_seq = 8192;

  [[nodiscard]] std::int64_t d_model() const { return heads * head_dim; }

  [[nodiscard]] static DecodeConfig gpt2_paper();
  [[nodiscard]] static DecodeConfig tiny();
};

/// Per-layer cache handles (key, value), each [B, H, rows, head_dim].
struct KvCache {
  graph::ValueId k = graph::kInvalidValue;
  graph::ValueId v = graph::kInvalidValue;
};

struct PrefillGraph {
  DecodeConfig config;
  ParamStore params;
  graph::ValueId token_ids = graph::kInvalidValue;    ///< [B, S] i32
  graph::ValueId causal_mask = graph::kInvalidValue;  ///< [S, S]
  graph::ValueId last_logits = graph::kInvalidValue;  ///< [B, V]
  std::vector<KvCache> caches;                        ///< outputs, rows = S
};

struct DecodeStepGraph {
  DecodeConfig config;
  ParamStore params;
  std::int64_t context_len = 0;
  graph::ValueId token_ids = graph::kInvalidValue;  ///< [B, 1] i32
  std::vector<KvCache> cache_inputs;                ///< rows = context_len
  std::vector<KvCache> cache_outputs;               ///< rows = context_len + 1
  graph::ValueId logits = graph::kInvalidValue;     ///< [B, V]
};

/// Builds the prompt pass over `seq_len` tokens, exposing the KV caches.
/// Throws sim::InvalidArgument (naming `seq_len` and the `max_seq` limit)
/// when the prompt would overrun the position-embedding table — reachable
/// from serving when a preempted request re-prefills prompt + generated
/// tokens.
[[nodiscard]] PrefillGraph build_gpt_prefill(graph::Graph& g,
                                             const DecodeConfig& cfg,
                                             std::int64_t seq_len,
                                             std::uint64_t seed = 0xDEC0DE);

/// Builds one decode step against caches of length `context_len`.  Throws
/// sim::InvalidArgument (naming `context_len` and the `max_seq` limit) when
/// the appended token at position `context_len` would not fit the position
/// table (`context_len + 1 > max_seq`).
[[nodiscard]] DecodeStepGraph build_gpt_decode_step(graph::Graph& g,
                                                    const DecodeConfig& cfg,
                                                    std::int64_t context_len,
                                                    std::uint64_t seed = 0xDEC0DE);

}  // namespace gaudi::nn
