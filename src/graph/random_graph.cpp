#include "graph/random_graph.hpp"

#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "tpc/kernels.hpp"

namespace gaudi::graph {

namespace {

/// Seeded builder state: a pool of rank-2 f32 values the next op can draw
/// operands from, plus a draw counter so generation is a pure function of
/// the seed.
struct DagBuilder {
  Graph g;
  sim::CounterRng rng;
  std::uint64_t counter = 0;
  std::vector<ValueId> pool;

  explicit DagBuilder(std::uint64_t seed) : rng(seed) {}

  std::uint64_t draw(std::uint64_t n) { return rng.below(counter++, n); }
  std::int64_t dim() { return std::int64_t{4} << draw(3); }  // 4, 8, or 16

  ValueId fresh_input(std::int64_t rows, std::int64_t cols) {
    const ValueId v =
        g.input(tensor::Shape{{rows, cols}}, tensor::DType::F32,
                "in" + std::to_string(g.num_values()));
    pool.push_back(v);
    return v;
  }

  ValueId pick() { return pool[draw(pool.size())]; }

  /// A pool value with the exact shape, or a fresh input of that shape.
  ValueId pick_shape(std::int64_t rows, std::int64_t cols) {
    std::vector<ValueId> matches;
    for (const ValueId v : pool) {
      const tensor::Shape& s = g.value(v).shape;
      if (s.rank() == 2 && s[0] == rows && s[1] == cols) matches.push_back(v);
    }
    if (matches.empty()) return fresh_input(rows, cols);
    return matches[draw(matches.size())];
  }

  /// A pool value whose trailing dim is `cols` (any row count), or fresh.
  ValueId pick_cols(std::int64_t cols) {
    std::vector<ValueId> matches;
    for (const ValueId v : pool) {
      const tensor::Shape& s = g.value(v).shape;
      if (s.rank() == 2 && s[1] == cols) matches.push_back(v);
    }
    if (matches.empty()) return fresh_input(dim(), cols);
    return matches[draw(matches.size())];
  }

  std::int64_t rows_of(ValueId v) const { return g.value(v).shape[0]; }
  std::int64_t cols_of(ValueId v) const { return g.value(v).shape[1]; }
};

}  // namespace

RandomDag random_dag(std::uint64_t seed, const RandomDagOptions& opts) {
  DagBuilder b(seed);

  const int n_inputs = 2 + static_cast<int>(b.draw(2));
  for (int i = 0; i < n_inputs; ++i) b.fresh_input(b.dim(), b.dim());

  const int n_nodes =
      opts.min_nodes +
      static_cast<int>(b.draw(static_cast<std::uint64_t>(
          opts.max_nodes - opts.min_nodes + 1)));
  bool recompile_used = false;

  for (int i = 0; i < n_nodes; ++i) {
    const std::string tag = std::string("n").append(std::to_string(i));
    // The first node is always a matmul so every DAG exercises the MME (and
    // the MME<->TPC DMA edges the validator exists for).
    const std::uint64_t op = i == 0 ? 0 : b.draw(14);
    switch (op) {
      case 0:
      case 1: {  // matmul: [m,k] x [k,n]
        const ValueId a = b.pick();
        const ValueId w = b.pick_shape(b.cols_of(a), b.dim());
        b.pool.push_back(b.g.matmul(a, w, false, false, tag + ".matmul"));
        break;
      }
      case 2: {  // element-wise binary
        const ValueId a = b.pick();
        const ValueId c = b.pick_shape(b.rows_of(a), b.cols_of(a));
        const std::uint64_t which = b.draw(3);
        const ValueId y = which == 0 ? b.g.add(a, c, tag + ".add")
                          : which == 1 ? b.g.mul(a, c, tag + ".mul")
                                       : b.g.sub(a, c, tag + ".sub");
        b.pool.push_back(y);
        break;
      }
      case 3: {  // scalar immediate
        const ValueId a = b.pick();
        const float s = b.rng.uniform(b.counter++, -2.0f, 2.0f);
        b.pool.push_back(b.draw(2) == 0
                             ? b.g.add_scalar(a, s, tag + ".add_scalar")
                             : b.g.mul_scalar(a, s, tag + ".mul_scalar"));
        break;
      }
      case 4: {  // unary
        constexpr tpc::UnaryKind kinds[] = {
            tpc::UnaryKind::kRelu, tpc::UnaryKind::kGelu, tpc::UnaryKind::kExp,
            tpc::UnaryKind::kSigmoid};
        const tpc::UnaryKind kind = kinds[b.draw(4)];
        b.pool.push_back(b.g.unary(kind, b.pick(), 1.0f, tag + ".unary"));
        break;
      }
      case 5:
        b.pool.push_back(b.g.softmax(b.pick(), tag + ".softmax"));
        break;
      case 6: {  // reduction to [r, 1], often re-broadcast
        const ValueId a = b.pick();
        const ValueId r = b.draw(2) == 0 ? b.g.reduce_sum(a, tag + ".reduce_sum")
                                         : b.g.reduce_mean(a, tag + ".reduce_mean");
        if (b.draw(2) == 0) {
          b.pool.push_back(
              b.g.broadcast_last(r, b.cols_of(a), tag + ".broadcast"));
        } else {
          b.pool.push_back(r);
        }
        break;
      }
      case 7:
        b.pool.push_back(b.g.transpose(b.pick(), tag + ".transpose"));
        break;
      case 8: {  // metadata reshape [m,n] -> [n,m]
        const ValueId a = b.pick();
        b.pool.push_back(b.g.reshape(
            a, tensor::Shape{{b.cols_of(a), b.rows_of(a)}}, tag + ".reshape"));
        break;
      }
      case 9: {  // concat along rows
        const ValueId a = b.pick();
        const ValueId c = b.pick_cols(b.cols_of(a));
        b.pool.push_back(b.g.concat_rows(a, c, tag + ".concat"));
        break;
      }
      case 10: {  // slice rows
        const ValueId a = b.pick();
        const std::int64_t rows = b.rows_of(a);
        if (rows < 2) {
          b.pool.push_back(b.g.relu(a));
          break;
        }
        b.pool.push_back(
            b.g.slice_rows(a, 0, rows / 2, tag + ".slice"));
        break;
      }
      case 11: {  // layernorm (multi-output node; params feed the run)
        const ValueId a = b.pick();
        const std::int64_t d = b.cols_of(a);
        const ValueId gamma = b.g.param(tensor::Shape{{d}}, tag + ".gamma");
        const ValueId beta = b.g.param(tensor::Shape{{d}}, tag + ".beta");
        const auto outs = b.g.layernorm(a, gamma, beta, 1e-5f, tag + ".layernorm");
        b.pool.push_back(outs[0]);
        break;
      }
      case 12:
        b.pool.push_back(b.g.dropout(b.pick(), 0.25f, seed + i, tag + ".dropout"));
        break;
      case 13: {  // glu (optionally with the recompile stall) or a fill
        const ValueId a = b.pick();
        if (opts.allow_recompile && !recompile_used && b.cols_of(a) % 2 == 0 &&
            b.cols_of(a) >= 4) {
          recompile_used = true;
          b.pool.push_back(b.g.glu(a, /*requires_recompile=*/true, tag + ".glu"));
        } else {
          b.pool.push_back(
              b.g.fill(tensor::Shape{{b.dim(), b.dim()}},
                       b.rng.uniform(b.counter++, -1.0f, 1.0f), tag + ".fill"));
        }
        break;
      }
      default:
        b.pool.push_back(b.g.relu(b.pick()));
        break;
    }
  }

  // Every dead-end intermediate becomes a graph output so nothing is
  // trivially eliminated and functional runs return comparable tensors.
  for (ValueId v = 0; v < static_cast<ValueId>(b.g.num_values()); ++v) {
    const ValueInfo& info = b.g.value(v);
    if (info.role == ValueRole::kIntermediate && info.consumers.empty()) {
      b.g.mark_output(v);
    }
  }

  RandomDag result;
  result.graph = std::move(b.g);
  return result;
}

std::unordered_map<ValueId, tensor::Tensor> random_feeds(const Graph& g,
                                                         std::uint64_t seed) {
  std::unordered_map<ValueId, tensor::Tensor> feeds;
  for (ValueId v = 0; v < static_cast<ValueId>(g.num_values()); ++v) {
    const ValueInfo& info = g.value(v);
    if (info.role == ValueRole::kIntermediate) continue;
    const sim::CounterRng rng(seed, static_cast<std::uint64_t>(v) + 1);
    tensor::Tensor t = tensor::Tensor::zeros(info.shape, info.dtype);
    if (info.dtype == tensor::DType::I32) {
      auto span = t.i32_mut();
      for (std::size_t i = 0; i < span.size(); ++i) {
        span[i] = static_cast<std::int32_t>(rng.below(i, 4));
      }
    } else {
      auto span = t.f32_mut();
      for (std::size_t i = 0; i < span.size(); ++i) {
        span[i] = rng.uniform(i, -1.0f, 1.0f);
      }
    }
    feeds.emplace(v, std::move(t));
  }
  return feeds;
}

ValueId pick_corruption_target(const Graph& g, std::uint64_t seed) {
  std::vector<ValueId> candidates;
  for (ValueId v = 0; v < static_cast<ValueId>(g.num_values()); ++v) {
    const ValueInfo& info = g.value(v);
    if (info.producer < 0) continue;  // feeds are checksummed, not corrupted
    if (!tensor::is_floating(info.dtype)) continue;
    if (info.consumers.empty()) continue;  // must be read for blame to land
    candidates.push_back(v);
  }
  if (candidates.empty()) return kInvalidValue;
  const sim::CounterRng rng(seed ^ 0xC0881u);
  return candidates[rng.below(0, candidates.size())];
}

std::vector<ValueId> contamination_cone(const Graph& g, ValueId v) {
  std::vector<char> in_cone(g.num_values(), 0);
  std::vector<ValueId> stack{v};
  in_cone[static_cast<std::size_t>(v)] = 1;
  while (!stack.empty()) {
    const ValueId cur = stack.back();
    stack.pop_back();
    for (const NodeId nid : g.value(cur).consumers) {
      for (const ValueId out : g.node(nid).outputs) {
        if (!in_cone[static_cast<std::size_t>(out)]) {
          in_cone[static_cast<std::size_t>(out)] = 1;
          stack.push_back(out);
        }
      }
    }
  }
  std::vector<ValueId> cone;
  for (ValueId u = 0; u < static_cast<ValueId>(g.num_values()); ++u) {
    if (in_cone[static_cast<std::size_t>(u)]) cone.push_back(u);
  }
  return cone;
}

}  // namespace gaudi::graph
