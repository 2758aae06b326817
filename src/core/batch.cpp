#include "core/batch.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/options.hpp"
#include "sim/chip_config.hpp"
#include "sim/error.hpp"
#include "sim/thread_pool.hpp"

namespace gaudi::core {

namespace {

// -- Config parsing ---------------------------------------------------------

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line.substr(0, line.find('#')));
  for (std::string t; is >> t;) tokens.push_back(t);
  return tokens;
}

[[noreturn]] void fail(int line_no, const std::string& what) {
  throw sim::InvalidArgument("batch config line " + std::to_string(line_no) +
                             ": " + what);
}

std::uint64_t parse_seed(const std::string& text, int line_no) {
  // strtoull with base 0 accepts decimal and 0x... hex spellings.
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(text.c_str(), &end, 0);
  if (end == text.c_str() || *end != '\0') {
    fail(line_no, "seeds expects integers, got '" + text + "'");
  }
  return v;
}

bool known_command(const std::string& c) {
  return c == "serve" || c == "serve-cluster" || c == "profile-layer" ||
         c == "profile-model" ||
         c == "mme-vs-tpc";
}

/// A key is set once per experiment, and never when a directive owns it.
void check_key(const BatchExperiment& e, const std::string& key, int line_no) {
  if (key == "seed" || key == "timing-only") {
    fail(line_no, "'" + key + "' is set by the '" +
                      (key == "seed" ? "seeds" : key) + "' directive");
  }
  for (const auto& [k, v] : e.fixed) {
    if (k == key) fail(line_no, "key '" + key + "' already set");
  }
  for (const auto& [k, vs] : e.sweeps) {
    if (k == key) fail(line_no, "key '" + key + "' already swept");
  }
}

// -- Grid expansion ---------------------------------------------------------

using Params = std::vector<std::pair<std::string, std::string>>;

/// One point of an experiment's sweep grid.
struct Cell {
  const BatchExperiment* exp = nullptr;
  Params params;      ///< fixed + this point's sweep assignment
  std::string label;  ///< "rate=8 max-batch=4" in axis order ("-" if none)
};

std::vector<Cell> expand_cells(const BatchExperiment& e) {
  std::vector<Cell> cells;
  std::vector<std::size_t> idx(e.sweeps.size(), 0);
  while (true) {
    Cell c;
    c.exp = &e;
    c.params = e.fixed;
    std::ostringstream label;
    for (std::size_t a = 0; a < e.sweeps.size(); ++a) {
      const auto& [key, values] = e.sweeps[a];
      c.params.emplace_back(key, values[idx[a]]);
      if (a > 0) label << ' ';
      label << key << '=' << values[idx[a]];
    }
    c.label = e.sweeps.empty() ? "-" : label.str();
    cells.push_back(std::move(c));
    // Odometer increment over the axes, last axis fastest.
    std::size_t a = e.sweeps.size();
    while (a > 0) {
      --a;
      if (++idx[a] < e.sweeps[a].second.size()) break;
      idx[a] = 0;
      if (a == 0) return cells;
    }
    if (e.sweeps.empty()) return cells;
  }
}

// -- Command executors ------------------------------------------------------
//
// Every cell option is read through core/options.*, the parse sites the CLI
// commands share; `seed` and `timing-only` come from the directives.

using Metrics = std::vector<std::pair<std::string, double>>;

double availability_or_zero(double availability) {
  return std::isfinite(availability) ? availability : 0.0;
}

Metrics run_serve_cell(const ArgParser& args, std::uint64_t seed,
                       std::optional<bool> timing_only) {
  ServeOptions o = parse_serve_options(args);
  args.check_unused();
  o.stream.seed = seed;
  o.config.timing_only = timing_only;

  graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ContinuousBatchScheduler sched(rt, o.config);
  const serve::ServeReport r = sched.run(o.requests());
  return {{"throughput_tok_s", r.summary.throughput_tok_s},
          {"goodput_tok_s", r.summary.goodput_tok_s},
          {"ttft_p99_ms", r.summary.ttft_p99_ms},
          {"itl_p99_ms", r.summary.itl_p99_ms},
          {"completed", static_cast<double>(r.summary.completed)},
          {"dropped", static_cast<double>(r.summary.dropped)},
          {"shed", static_cast<double>(r.summary.shed)},
          {"failed", static_cast<double>(r.summary.failed)},
          {"timed_out", static_cast<double>(r.summary.timed_out)},
          {"availability", availability_or_zero(r.summary.availability)},
          {"fault_retries", static_cast<double>(r.summary.fault_retries)},
          {"wasted_tokens", static_cast<double>(r.summary.wasted_tokens)},
          {"preemptions", static_cast<double>(r.summary.preemptions)},
          {"makespan_ms", r.summary.makespan.ms()}};
}

Metrics run_serve_cluster_cell(const ArgParser& args, std::uint64_t seed,
                               std::optional<bool> timing_only) {
  ServeClusterOptions o = parse_serve_cluster_options(args);
  args.check_unused();
  o.stream.seed = seed;
  o.config.replica.timing_only = timing_only;

  graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ClusterRouter router(rt, o.config);
  const serve::ClusterReport r = router.run(o.requests());
  Metrics m = {{"throughput_tok_s", r.summary.throughput_tok_s},
               {"goodput_tok_s", r.summary.goodput_tok_s},
               {"ttft_p99_ms", r.summary.ttft_p99_ms},
               {"itl_p99_ms", r.summary.itl_p99_ms},
               {"completed", static_cast<double>(r.summary.completed)},
               {"failed", static_cast<double>(r.summary.failed)},
               {"timed_out", static_cast<double>(r.summary.timed_out)},
               {"availability", availability_or_zero(r.summary.availability)},
               {"chip_failures", static_cast<double>(r.chip_failures)},
               {"failovers", static_cast<double>(r.failovers)},
               {"hedges_launched", static_cast<double>(r.hedges_launched)},
               {"hedge_wins", static_cast<double>(r.hedge_wins)},
               {"breaker_opens", static_cast<double>(r.breaker_opens)},
               {"wasted_tokens", static_cast<double>(r.summary.wasted_tokens)}};
  // Migration/drain metrics render only when the feature ran — a
  // migration-off cell stays byte-identical to the pre-migration CSV.
  if (r.migration_enabled || r.drain_enabled) {
    m.emplace_back("migrations", static_cast<double>(r.migrations_completed));
    m.emplace_back("migrations_aborted",
                   static_cast<double>(r.migrations_aborted));
    m.emplace_back("migrated_rows", static_cast<double>(r.migrated_rows));
    m.emplace_back("evac_requeues", static_cast<double>(r.evac_requeues));
    m.emplace_back("drain_completed", r.drain_completed ? 1.0 : 0.0);
  }
  m.emplace_back("makespan_ms", r.summary.makespan.ms());
  return m;
}

Metrics run_profile_layer_cell(const ArgParser& args) {
  const LayerExperiment exp = parse_layer_experiment(args);
  args.check_unused();
  const LayerProfile prof = run_layer_profile(exp, sim::ChipConfig::hls1());
  return {{"makespan_ms", prof.summary.makespan.ms()},
          {"mme_utilization", prof.summary.mme_utilization},
          {"tpc_utilization", prof.summary.tpc_utilization},
          {"mme_idle_fraction", prof.summary.mme_idle_fraction}};
}

Metrics run_profile_model_cell(const ArgParser& args) {
  const ModelExperiment exp = parse_model_experiment(args);
  args.check_unused();
  const LlmProfile prof =
      run_llm_profile(exp.model, exp.policy, sim::ChipConfig::hls1());
  return {{"makespan_ms", prof.summary.makespan.ms()},
          {"mme_utilization", prof.summary.mme_utilization},
          {"tpc_utilization", prof.summary.tpc_utilization},
          {"params", static_cast<double>(prof.param_count)}};
}

/// The CLI takes a list of sizes (--sizes); a cell probes one `size`, so a
/// grid sweeps it as an axis.
Metrics run_mme_vs_tpc_cell(const ArgParser& args) {
  const std::int64_t size = args.get_int("size", 512);
  const std::int64_t batch = args.get_int("batch", 64);
  args.check_unused();
  const std::vector<MmeVsTpcRow> rows =
      run_mme_vs_tpc(sim::ChipConfig::hls1(), {size}, batch);
  GAUDI_ASSERT(rows.size() == 1, "one size probes one row");
  return {{"t_mme_ms", rows[0].t_mme_ms},
          {"t_tpc_ms", rows[0].t_tpc_ms},
          {"speedup", rows[0].speedup}};
}

Metrics run_cell_once(const Cell& cell, std::uint64_t seed,
                      std::optional<bool> timing_only_default) {
  const ArgParser args = ArgParser::from_pairs(cell.params);
  const std::optional<bool> timing_only = cell.exp->timing_only.has_value()
                                              ? cell.exp->timing_only
                                              : timing_only_default;
  const std::string& cmd = cell.exp->command;
  if (cmd == "serve") return run_serve_cell(args, seed, timing_only);
  if (cmd == "serve-cluster") {
    return run_serve_cluster_cell(args, seed, timing_only);
  }
  if (cmd == "profile-layer") return run_profile_layer_cell(args);
  if (cmd == "profile-model") return run_profile_model_cell(args);
  if (cmd == "mme-vs-tpc") return run_mme_vs_tpc_cell(args);
  throw sim::InvalidArgument("unknown batch command: " + cmd);
}

}  // namespace

BatchConfig parse_batch_config(std::istream& in) {
  BatchConfig cfg;
  BatchExperiment* cur = nullptr;
  bool seeds_set = false;
  int timing_only_line = 0;  // cur's timing-only directive, 0 if none
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::vector<std::string> t = tokenize(line);
    if (t.empty()) continue;
    const std::string& d = t[0];
    if (d == "experiment") {
      if (cur != nullptr) fail(line_no, "nested experiment (missing 'end')");
      if (t.size() != 2) fail(line_no, "experiment expects exactly one name");
      for (const BatchExperiment& e : cfg.experiments) {
        if (e.name == t[1]) fail(line_no, "duplicate experiment '" + t[1] + "'");
      }
      cfg.experiments.emplace_back();
      cur = &cfg.experiments.back();
      cur->name = t[1];
      seeds_set = false;
      timing_only_line = 0;
      continue;
    }
    if (cur == nullptr) fail(line_no, "'" + d + "' outside an experiment");
    if (d == "end") {
      if (t.size() != 1) fail(line_no, "end takes nothing");
      if (cur->command.empty()) fail(line_no, "experiment has no command");
      // Only serving cells price steps, so only they read the directive.
      if (timing_only_line > 0 && cur->command != "serve" &&
          cur->command != "serve-cluster") {
        fail(timing_only_line,
             "timing-only applies to serve and serve-cluster only, not '" +
                 cur->command + "'");
      }
      cur = nullptr;
    } else if (d == "command") {
      if (t.size() != 2) fail(line_no, "command expects exactly one word");
      if (!known_command(t[1])) fail(line_no, "unknown command '" + t[1] + "'");
      cur->command = t[1];
    } else if (d == "set") {
      if (t.size() != 3) fail(line_no, "set expects a key and one value");
      check_key(*cur, t[1], line_no);
      cur->fixed.emplace_back(t[1], t[2]);
    } else if (d == "sweep") {
      if (t.size() < 3) fail(line_no, "sweep expects a key and >= 1 value");
      check_key(*cur, t[1], line_no);
      cur->sweeps.emplace_back(
          t[1], std::vector<std::string>(t.begin() + 2, t.end()));
    } else if (d == "seeds") {
      if (t.size() < 2) fail(line_no, "seeds expects >= 1 value");
      if (seeds_set) fail(line_no, "seeds already given");
      seeds_set = true;
      cur->seeds.clear();
      for (std::size_t i = 1; i < t.size(); ++i) {
        cur->seeds.push_back(parse_seed(t[i], line_no));
      }
    } else if (d == "repeats") {
      if (t.size() != 2) fail(line_no, "repeats expects exactly one count");
      cur->repeats = parse_i64(t[1], "repeats");
      if (cur->repeats < 1) fail(line_no, "repeats must be >= 1");
    } else if (d == "timing-only") {
      if (t.size() != 2 || (t[1] != "on" && t[1] != "off")) {
        fail(line_no, "timing-only expects on|off");
      }
      timing_only_line = line_no;
      cur->timing_only = t[1] == "on";
    } else {
      fail(line_no, "unknown directive '" + d + "'");
    }
  }
  if (cur != nullptr) {
    fail(line_no, "unterminated experiment '" + cur->name + "'");
  }
  if (cfg.experiments.empty()) fail(line_no, "config defines no experiments");
  return cfg;
}

BatchConfig load_batch_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw sim::InvalidArgument("cannot read batch config: " + path);
  }
  return parse_batch_config(in);
}

BatchRunResult run_batch(const BatchConfig& cfg, const BatchOptions& opts) {
  struct Unit {
    const Cell* cell = nullptr;
    std::uint64_t seed = 0;
  };
  // Expand every experiment's grid up front; units carry stable pointers
  // into this list.
  std::vector<std::vector<Cell>> grids;
  grids.reserve(cfg.experiments.size());
  for (const BatchExperiment& e : cfg.experiments) {
    grids.push_back(expand_cells(e));
  }
  std::vector<Unit> units;
  std::size_t cells = 0;
  for (const std::vector<Cell>& grid : grids) {
    for (const Cell& c : grid) {
      ++cells;
      for (const std::uint64_t s : c.exp->seeds) {
        for (std::int64_t r = 0; r < c.exp->repeats; ++r) {
          units.push_back(Unit{&c, s + static_cast<std::uint64_t>(r)});
        }
      }
    }
  }

  // Parallel replicas: every unit writes only its own result slot, and the
  // merge below walks the slots in unit order — the sink never observes the
  // execution interleaving, so thread count cannot change a byte of output.
  std::vector<Metrics> results(units.size());
  sim::ThreadPool pool(opts.threads);
  pool.parallel_for(units.size(), [&](std::size_t i) {
    results[i] = run_cell_once(*units[i].cell, units[i].seed,
                               opts.timing_only);
  });

  StatsSink sink;
  for (std::size_t i = 0; i < units.size(); ++i) {
    for (const auto& [metric, value] : results[i]) {
      sink.add(units[i].cell->exp->name, units[i].cell->label, metric, value);
    }
  }

  BatchRunResult out;
  out.csv = sink.csv();
  out.table = sink.table();
  out.cells = cells;
  out.runs = units.size();
  return out;
}

}  // namespace gaudi::core
