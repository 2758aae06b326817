// train-functional: nn::train_language_model on a small GPT (larger than
// LmConfig::tiny) with Adam, bf16 gradients and dynamic loss scaling, on
// one fixed batch drawn from the benchmark's seed.  The only workload where
// TPC kernels execute every index-space member with real numerics on the
// thread pool.
//
// Known defect: sim::ThreadPool::parallel_for_chunks can return while the
// worker that finished the last chunk is still about to lock the caller's
// stack-local done_mutex; that worker then locks a destroyed mutex, which
// aborts the process (glibc's "___pthread_mutex_lock: Assertion
// `mutex->__data.__owner == 0' failed") or hangs it.  Each pass therefore
// runs in a forked child process: a pass that dies or hangs is reported
// with its cause and its steps count as failed operations, never skipped.
// The parent never touches the thread pool, so every child starts its own.
//
// The child is pinned to the CPU it starts on: its pool still runs nproc
// workers, but a barrier across all cores of a shared 4-core VM made pass
// times spread 46% (IQR/median) from run to run, against 18% pinned.
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "graph/runtime.hpp"
#include "harness.hpp"
#include "nn/models.hpp"
#include "nn/train.hpp"
#include "sim/rng.hpp"

namespace perfbench {
namespace {

using gaudi::tensor::Tensor;

constexpr std::int32_t kSteps = 12;
/// A pass takes about half a second; a child still running after this hung.
constexpr int kPassTimeoutMs = 30000;

/// 80% of a pass is the reference GEMM of tensor::ops, which streams one
/// B panel per k-block.  Vocab 256 and FFN 128 keep those panels small;
/// at vocab 1024 and FFN 256 the 1 MiB panels left the pass time at the
/// mercy of the shared host's cache contention (spread over runs, relative
/// to paper-sweep runs alongside, 0.24 against 0.09).
gaudi::nn::LmConfig model_config() {
  gaudi::nn::LmConfig cfg = gaudi::nn::LmConfig::tiny(gaudi::nn::LmArch::kGpt2);
  cfg.vocab = 256;
  cfg.batch = 2;
  cfg.seq_len = 64;
  cfg.heads = 4;
  cfg.head_dim = 16;
  cfg.ffn_dim = 128;
  return cfg;
}

/// What one pass reports.
struct PassResult {
  bool ok = false;
  std::string error;  ///< why the pass did not complete
  std::vector<std::uint32_t> loss_bits;
  std::vector<bool> applied;
  std::int64_t skipped = 0;
  double flops = 0.0, bytes = 0.0;  ///< of the functional step-graph run
};

PassResult failed_pass(std::string why) {
  PassResult r;
  r.error = std::move(why);
  return r;
}

/// The pass itself, in the child: the training loop, then one functional
/// run of the same training-step graph on the same fixed batch, whose node
/// executions give the FLOPs and bytes per step.
PassResult train_pass(const gaudi::nn::TrainOptions& opts,
                      const std::string& tag) {
  gaudi::graph::Runtime rt;
  PassResult out;
  gaudi::nn::TrainResult trained;
  {
    const Tracer::Scope span("nn.train.train_language_model", tag);
    trained = gaudi::nn::train_language_model(opts, rt.config());
  }
  for (const auto& step : trained.steps) {
    out.loss_bits.push_back(std::bit_cast<std::uint32_t>(step.loss));
    out.applied.push_back(step.applied);
  }
  out.skipped = trained.skipped_steps;

  gaudi::nn::LmConfig mcfg = opts.model;
  mcfg.training = true;
  mcfg.scaled_loss = true;
  gaudi::graph::Graph g;
  const gaudi::nn::LanguageModel model =
      gaudi::nn::build_language_model(g, mcfg, opts.seed);
  auto feeds = model.params.init_feeds(g);
  const gaudi::sim::CounterRng data(opts.seed ^ 0xDA7Au);
  feeds.emplace(model.token_ids,
                Tensor::random_tokens(
                    gaudi::tensor::Shape{{mcfg.batch, mcfg.seq_len}},
                    data.stream(1), mcfg.vocab));
  feeds.emplace(model.targets,
                Tensor::random_tokens(gaudi::tensor::Shape{{mcfg.tokens()}},
                                      data.stream(2), mcfg.vocab));
  feeds.emplace(model.causal_mask, gaudi::nn::make_causal_mask(mcfg.seq_len));
  Tensor scale = Tensor::zeros(gaudi::tensor::Shape{{1}});
  scale.f32()[0] = opts.scaler.init_scale;
  feeds.emplace(model.loss_scale, scale);
  const gaudi::graph::CompiledGraph cg = rt.compile(g);
  gaudi::graph::RunOptions run;
  run.mode = gaudi::tpc::ExecMode::kFunctional;
  run.seed = opts.seed;
  gaudi::graph::ProfileResult res;
  {
    const Tracer::Scope span("graph.runtime.run", tag + " functional");
    res = rt.run(cg, feeds, run);
  }
  for (const auto& e : res.node_execs) {
    out.flops += static_cast<double>(e.flops);
    out.bytes += static_cast<double>(e.bytes);
  }
  out.ok = true;
  return out;
}

// Child-to-parent wire format: one record per line, tab-separated; floats
// in hex so they round-trip exactly.
std::string encode(const PassResult& r, const std::vector<Span>& spans) {
  std::ostringstream os;
  os << std::hexfloat;
  if (!r.ok) os << "error\t" << r.error << "\n";
  for (std::size_t i = 0; i < r.loss_bits.size(); ++i) {
    os << "step\t" << r.loss_bits[i] << "\t" << r.applied[i] << "\n";
  }
  os << "totals\t" << r.skipped << "\t" << r.flops << "\t" << r.bytes << "\n";
  for (const Span& s : spans) {
    os << "span\t" << s.start_s << "\t" << s.end_s << "\t" << s.parent << "\t"
       << s.name << "\t" << s.tag << "\n";
  }
  return os.str();
}

PassResult decode(const std::string& text, std::vector<Span>* spans) {
  PassResult r;
  r.ok = true;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> f;
    std::istringstream fs(line);
    for (std::string x; std::getline(fs, x, '\t');) f.push_back(x);
    if (f.empty()) continue;
    if (f[0] == "error") {
      r.ok = false;
      r.error = f.size() > 1 ? f[1] : "";
    } else if (f[0] == "step" && f.size() == 3) {
      r.loss_bits.push_back(static_cast<std::uint32_t>(std::stoul(f[1])));
      r.applied.push_back(f[2] == "1");
    } else if (f[0] == "totals" && f.size() == 4) {
      r.skipped = std::stoll(f[1]);
      r.flops = std::strtod(f[2].c_str(), nullptr);
      r.bytes = std::strtod(f[3].c_str(), nullptr);
    } else if (f[0] == "span" && f.size() >= 5) {
      spans->push_back(Span{f[4], f.size() > 5 ? f[5] : "",
                            std::strtod(f[1].c_str(), nullptr),
                            std::strtod(f[2].c_str(), nullptr),
                            static_cast<std::int32_t>(std::stol(f[3]))});
    }
  }
  return r;
}

/// Runs train_pass in a forked child; the child's spans join this
/// process's recorder.  A child that dies, hangs or throws yields !ok.
PassResult run_in_child(const gaudi::nn::TrainOptions& opts,
                        const std::string& tag) {
  int fds[2];
  if (pipe(fds) != 0) return failed_pass(std::strerror(errno));
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return failed_pass(std::strerror(errno));
  }
  if (pid == 0) {
    close(fds[0]);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(sched_getcpu(), &one);
    sched_setaffinity(0, sizeof one, &one);
    const std::size_t first = tracer().spans().size();
    PassResult r;
    try {
      r = train_pass(opts, tag);
    } catch (const std::exception& e) {
      r.error = e.what();
    }
    const std::vector<Span> spans(tracer().spans().begin() +
                                      static_cast<std::ptrdiff_t>(first),
                                  tracer().spans().end());
    const std::string msg = encode(r, spans);
    for (std::size_t off = 0; off < msg.size();) {
      const ssize_t n = write(fds[1], msg.data() + off, msg.size() - off);
      if (n <= 0) _exit(1);
      off += static_cast<std::size_t>(n);
    }
    _exit(0);
  }

  close(fds[1]);
  std::string text;
  bool timed_out = false;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(kPassTimeoutMs);
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    pollfd p{fds[0], POLLIN, 0};
    const int ready =
        poll(&p, 1, static_cast<int>(std::max<std::int64_t>(left.count(), 0)));
    if (ready == 0) {
      timed_out = true;
      kill(pid, SIGKILL);
      break;
    }
    if (ready < 0 && errno == EINTR) continue;
    char buf[4096];
    const ssize_t n = ready > 0 ? read(fds[0], buf, sizeof buf) : -1;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }

  std::vector<Span> spans;
  PassResult r = decode(text, &spans);
  if (timed_out) {
    r = failed_pass("hung: no result within " +
                    std::to_string(kPassTimeoutMs / 1000) + " s, killed");
  } else if (WIFSIGNALED(status)) {
    r = failed_pass(std::string("killed by signal ") +
                    strsignal(WTERMSIG(status)));
  } else if (WEXITSTATUS(status) != 0) {
    r = failed_pass("exited with status " +
                    std::to_string(WEXITSTATUS(status)));
  } else if (tracer().enabled()) {
    tracer().append(spans);
  }
  return r;
}

class TrainFunctional final : public Workload {
 public:
  explicit TrainFunctional(std::uint64_t seed) {
    opts_.model = model_config();
    opts_.optimizer.kind = gaudi::nn::OptimizerKind::kAdam;
    opts_.steps = kSteps;
    opts_.loss_scaling = true;
    opts_.bf16_grads = true;
    opts_.seed = seed;
  }

  bool pass(const std::string& tag) override {
    ++passes_;
    PassResult r = run_in_child(opts_, tag);
    if (!r.ok) {
      failures_.push_back(tag + ": " + r.error);
      return false;
    }
    last_ = std::move(r);
    if (first_.loss_bits.empty()) first_ = last_;
    return true;
  }

  void after_cold_pass(Metrics& m) override {
    (void)m;
    first_ = {};
  }

  void check(CheckLog& log) override {
    log.attempted += passes_ * kSteps;
    for (const std::string& f : failures_) {
      // The known thread-pool defect: the pass's steps count as failed.
      log.failed += kSteps;
      std::printf("train-functional pass failed (known thread-pool defect): "
                  "%s\n",
                  f.c_str());
    }
    log.expect(last_.loss_bits.size() == static_cast<std::size_t>(kSteps),
               "training ran " + std::to_string(last_.loss_bits.size()) +
                   " steps",
               kSteps);
    if (!last_.loss_bits.empty()) {
      std::printf("train-functional loss %.4f -> %.4f over %zu steps\n",
                  std::bit_cast<float>(last_.loss_bits.front()),
                  std::bit_cast<float>(last_.loss_bits.back()),
                  last_.loss_bits.size());
    }
    for (std::size_t i = 0; i < last_.loss_bits.size(); ++i) {
      const std::string step = "step " + std::to_string(i);
      const float loss = std::bit_cast<float>(last_.loss_bits[i]);
      log.expect(std::isfinite(loss), step + ": loss is not finite");
      log.expect(last_.applied[i], step + ": update skipped");
      if (i > 0) {
        log.expect(loss < std::bit_cast<float>(last_.loss_bits[i - 1]),
                   step + ": loss did not fall on the fixed batch");
      }
      log.expect(i < first_.loss_bits.size() &&
                     last_.loss_bits[i] == first_.loss_bits[i],
                 step + ": loss differs bitwise between two runs");
    }
    log.expect(last_.skipped == 0, "skipped steps reported");
  }

  void end_to_end(Metrics& m) const override { (void)m; }

  void per_layer(Metrics& m,
                 const std::map<std::string, double>& self_s) const override {
    const auto self = [&](const char* name) {
      return self_s.count(name) ? self_s.at(name) : 0.0;
    };
    const double step_s = self("nn.train.train_language_model") / kSteps;
    m.set("nn.train.host_ms_per_step", step_s * 1e3, "ms");
    m.set("nn.train.gflop_per_step", last_.flops * 1e-9, "GFLOP");
    m.set("nn.train.gbyte_per_step", last_.bytes * 1e-9, "GB");
    m.set("nn.train.host_gflops",
          step_s > 0 ? last_.flops * 1e-9 / step_s : 0.0, "GFLOP/s");
    m.set("nn.train.skipped_steps", static_cast<double>(last_.skipped),
          "count");
    m.set("graph.runtime.functional_run_s", self("graph.runtime.run"), "s");
  }

 private:
  gaudi::nn::TrainOptions opts_;
  PassResult last_, first_;
  std::int64_t passes_ = 0;
  std::vector<std::string> failures_;
};

}  // namespace

WorkloadPtr make_train_functional(std::uint64_t seed) {
  return std::make_unique<TrainFunctional>(seed);
}

}  // namespace perfbench
