// CLI tests: the option parser's contract, end-to-end command dispatch, and
// agreement between the CLI and batch-cell front-ends.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/batch.hpp"
#include "core/cli.hpp"
#include "sim/error.hpp"

namespace gaudi::core {
namespace {

int run(std::initializer_list<const char*> args, std::string* out = nullptr) {
  std::vector<std::string> v{"gaudisim_cli"};
  v.insert(v.end(), args.begin(), args.end());
  std::ostringstream os;
  const int rc = run_cli(v, os);
  if (out) *out = os.str();
  return rc;
}

TEST(ArgParser, KeyValueAndFlags) {
  ArgParser p({"--seq", "1024", "--fuse", "--policy", "overlap"});
  EXPECT_EQ(p.get_int("seq", 0), 1024);
  EXPECT_TRUE(p.has("fuse"));
  EXPECT_EQ(p.get("policy", "barrier"), "overlap");
  EXPECT_EQ(p.get("missing", "fallback"), "fallback");
  EXPECT_EQ(p.get_int("missing", 7), 7);
  EXPECT_TRUE(p.unused().empty());
}

TEST(ArgParser, TracksUnusedKeys) {
  ArgParser p({"--typo", "3"});
  EXPECT_EQ(p.unused().size(), 1u);
  EXPECT_EQ(p.unused()[0], "typo");
  (void)p.get("typo", "");
  EXPECT_TRUE(p.unused().empty());
}

TEST(ArgParser, RejectsMalformedTokens) {
  EXPECT_THROW(ArgParser({"seq", "1024"}), sim::InvalidArgument);
  ArgParser p({"--seq", "abc"});
  EXPECT_THROW((void)p.get_int("seq", 0), sim::InvalidArgument);
}

TEST(ArgParser, BooleansShareOneGrammar) {
  ArgParser p({"--a", "--b", "on", "--c", "1", "--d", "off", "--e", "0",
               "--f", "maybe"});
  EXPECT_TRUE(p.get_bool("a", false));  // bare flag
  EXPECT_TRUE(p.get_bool("b", false));
  EXPECT_TRUE(p.get_bool("c", false));
  EXPECT_FALSE(p.get_bool("d", true));
  EXPECT_FALSE(p.get_bool("e", true));
  EXPECT_TRUE(p.get_bool("missing", true));
  EXPECT_FALSE(p.get_bool("missing").has_value());
  try {
    (void)p.get_bool("f", false);
    FAIL() << "'maybe' accepted";
  } catch (const sim::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--f"), std::string::npos);
  }
}

TEST(ArgParser, FromPairsReadsLikeArgv) {
  const ArgParser p = ArgParser::from_pairs({{"rate", "2.5"}, {"lb", "jsq"}});
  EXPECT_DOUBLE_EQ(p.get_f64("rate", 0.0), 2.5);
  EXPECT_EQ(p.get_choice("lb", {"round-robin", "jsq"}), 1u);
  EXPECT_EQ(p.get_choice("policy", {"barrier", "overlap"}), 0u);  // absent
  EXPECT_NO_THROW(p.check_unused());
  EXPECT_THROW((void)p.get_choice("lb", {"round-robin"}), sim::InvalidArgument);
}

TEST(Cli, HelpAndUnknownCommand) {
  std::string out;
  EXPECT_EQ(run({"help"}, &out), 0);
  EXPECT_NE(out.find("usage:"), std::string::npos);
  EXPECT_EQ(run({"frobnicate"}, &out), 1);
  EXPECT_NE(out.find("unknown command"), std::string::npos);
  EXPECT_EQ(run({}, &out), 1);
}

TEST(Cli, OpMappingPrintsTable1) {
  std::string out;
  EXPECT_EQ(run({"op-mapping"}, &out), 0);
  EXPECT_NE(out.find("torch.matmul"), std::string::npos);
  EXPECT_NE(out.find("MME"), std::string::npos);
}

TEST(Cli, MmeVsTpcWithCustomSizes) {
  std::string out;
  EXPECT_EQ(run({"mme-vs-tpc", "--sizes", "128,256"}, &out), 0);
  EXPECT_NE(out.find("128"), std::string::npos);
  EXPECT_NE(out.find("256"), std::string::npos);
  EXPECT_EQ(out.find("512"), std::string::npos);
}

TEST(Cli, ProfileLayerSmallConfig) {
  std::string out;
  EXPECT_EQ(run({"profile-layer", "--attention", "linear", "--seq", "128",
                 "--batch", "4", "--policy", "overlap", "--fuse"},
                &out),
            0);
  EXPECT_NE(out.find("layer / linear"), std::string::npos);
  EXPECT_NE(out.find("MME busy"), std::string::npos);
}

TEST(Cli, ProfileModelSmallConfig) {
  std::string out;
  EXPECT_EQ(run({"profile-model", "--arch", "bert", "--seq", "128", "--batch",
                 "2", "--layers", "1", "--optimizer", "sgd"},
                &out),
            0);
  EXPECT_NE(out.find("bert training step"), std::string::npos);
  EXPECT_NE(out.find("parameters"), std::string::npos);
}

TEST(Cli, BadOptionValuesFailCleanly) {
  std::string out;
  EXPECT_EQ(run({"profile-layer", "--attention", "quantum"}, &out), 1);
  EXPECT_NE(out.find("error:"), std::string::npos);
  EXPECT_EQ(run({"profile-model", "--arch", "t5"}, &out), 1);
  EXPECT_EQ(run({"profile-layer", "--nonsense", "1"}, &out), 1);
  EXPECT_NE(out.find("unknown option"), std::string::npos);
  EXPECT_EQ(run({"profile-model", "--optimizer", "rmsprop"}, &out), 1);
}

TEST(Cli, ProfileLayerAcceptsFaultFlags) {
  std::string out;
  EXPECT_EQ(run({"profile-layer", "--seq", "128", "--batch", "2", "--faults",
                 "--fault-seed", "7", "--validate"},
                &out),
            0);
  EXPECT_NE(out.find("layer /"), std::string::npos);
  // Same seed, same flags: the fault-injected profile is deterministic.
  std::string again;
  EXPECT_EQ(run({"profile-layer", "--seq", "128", "--batch", "2", "--faults",
                 "--fault-seed", "7", "--validate"},
                &again),
            0);
  EXPECT_EQ(out, again);
}

TEST(Cli, TrainResilientReportsGoodputDeterministically) {
  std::string out;
  EXPECT_EQ(run({"train-resilient", "--steps", "300", "--mtbf", "50",
                 "--recovery", "young-daly"},
                &out),
            0);
  EXPECT_NE(out.find("policy young-daly"), std::string::npos);
  EXPECT_NE(out.find("goodput"), std::string::npos);
  std::string again;
  EXPECT_EQ(run({"train-resilient", "--steps", "300", "--mtbf", "50",
                 "--recovery", "young-daly"},
                &again),
            0);
  EXPECT_EQ(out, again);

  EXPECT_EQ(run({"train-resilient", "--steps", "300", "--mtbf", "50",
                 "--recovery", "fixed", "--interval", "25"},
                &out),
            0);
  EXPECT_NE(out.find("policy fixed-interval"), std::string::npos);
}

TEST(Cli, TrainResilientRejectsBadFlags) {
  std::string out;
  EXPECT_EQ(run({"train-resilient", "--recovery", "hope"}, &out), 1);
  EXPECT_NE(out.find("unknown recovery policy"), std::string::npos);
  EXPECT_EQ(run({"train-resilient", "--mtbf", "-5"}, &out), 1);
  EXPECT_EQ(run({"train-resilient", "--nonsense", "1"}, &out), 1);
}

TEST(Cli, TrainResilientErrorsNameTheOption) {
  // --interval is checked under every policy but only `fixed` uses it.
  std::string with_interval;
  EXPECT_EQ(run({"train-resilient", "--steps", "50", "--interval", "10",
                 "--recovery", "young-daly"},
                &with_interval),
            0)
      << with_interval;
  std::string plain;
  EXPECT_EQ(run({"train-resilient", "--steps", "50", "--recovery",
                 "young-daly"},
                &plain),
            0);
  EXPECT_EQ(with_interval, plain);

  const std::vector<std::pair<const char*, const char*>> bad = {
      {"--chips", "0"}, {"--steps", "0"},   {"--step-ms", "-5"},
      {"--mtbf", "0"},  {"--interval", "0"}};
  for (const auto& [flag, value] : bad) {
    std::string out;
    EXPECT_EQ(run({"train-resilient", flag, value}, &out), 1) << flag;
    EXPECT_NE(out.find(flag), std::string::npos) << out;
    EXPECT_EQ(out.find("check failed"), std::string::npos) << out;
  }
}

TEST(Cli, TrainErrorsNameTheOption) {
  const std::vector<std::pair<const char*, const char*>> bad = {
      {"--steps", "0"},           {"--steps", "-3"},
      {"--checkpoint-every", "0"}, {"--growth-interval", "0"},
      {"--init-scale", "0"},      {"--corrupt-step", "-2"}};
  for (const auto& [flag, value] : bad) {
    std::string out;
    EXPECT_EQ(run({"train", flag, value}, &out), 1) << flag;
    EXPECT_NE(out.find(flag), std::string::npos) << out;
    EXPECT_EQ(out.find("check failed"), std::string::npos) << out;
  }
}

TEST(Cli, TrainResumePastTheLastStepNamesTheOption) {
  // Resuming a finished run asks for no step the snapshot lacks: the error
  // names --steps and the snapshot's step, not a source line.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("gaudisim-cli-resume-past-end-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  std::string out;
  ASSERT_EQ(run({"train", "--steps", "3", "--checkpoint-dir", dir.c_str()}, &out),
            0)
      << out;
  EXPECT_EQ(run({"train", "--steps", "3", "--checkpoint-dir", dir.c_str(),
                 "--resume"},
                &out),
            1);
  EXPECT_NE(out.find("--steps 3"), std::string::npos) << out;
  EXPECT_NE(out.find("step 3"), std::string::npos) << out;
  EXPECT_EQ(out.find("check failed"), std::string::npos) << out;
  std::filesystem::remove_all(dir);
}

TEST(Cli, UsageMentionsFaultTooling) {
  std::string out;
  run({"help"}, &out);
  EXPECT_NE(out.find("train-resilient"), std::string::npos);
  EXPECT_NE(out.find("--faults"), std::string::npos);
  EXPECT_NE(out.find("GAUDI_FAULTS"), std::string::npos);
  EXPECT_NE(out.find("--guard"), std::string::npos);
  EXPECT_NE(out.find("--sdc-rate"), std::string::npos);
}

TEST(Cli, ProfileLayerGuardReportsSweepCoverage) {
  std::string out;
  EXPECT_EQ(run({"profile-layer", "--seq", "128", "--batch", "2", "--guard",
                 "warn", "--validate"},
                &out),
            0);
  EXPECT_NE(out.find("guard: warn, swept"), std::string::npos);
  // Guard off: no guard line at all.
  std::string plain;
  EXPECT_EQ(run({"profile-layer", "--seq", "128", "--batch", "2", "--guard",
                 "off"},
                &plain),
            0);
  EXPECT_EQ(plain.find("guard:"), std::string::npos);
  EXPECT_EQ(run({"profile-layer", "--guard", "paranoid"}, &out), 1);
  EXPECT_NE(out.find("unknown guard policy"), std::string::npos);
}

TEST(Cli, TrainWithLossScalingSurvivesCorruptedGradient) {
  // The acceptance scenario: a NaN'd gradient without loss scaling ruins
  // the parameters (non-finite final loss, exit 1); with the GradScaler the
  // step is skipped, the scale backs off, and training finishes finite.
  std::string unprotected;
  EXPECT_EQ(run({"train", "--steps", "3", "--corrupt-step", "1",
                 "--no-loss-scaling"},
                &unprotected),
            1);
  EXPECT_NE(unprotected.find("NOT finite"), std::string::npos);

  std::string protected_out;
  EXPECT_EQ(run({"train", "--steps", "3", "--corrupt-step", "1"},
                &protected_out),
            0);
  EXPECT_NE(protected_out.find("skipped (overflow)"), std::string::npos);
  EXPECT_NE(protected_out.find("skipped steps: 1"), std::string::npos);
  EXPECT_NE(protected_out.find("final scale: 32768"), std::string::npos);
  EXPECT_NE(protected_out.find("(finite)"), std::string::npos);
}

TEST(Cli, TrainGuardedSdcRunIsCaughtAndDeterministic) {
  // Seeded HBM bit flips with the guard warning: the run reports the flips
  // and still finishes finite; identical seeds reproduce identical output.
  std::string out;
  EXPECT_EQ(run({"train", "--steps", "4", "--sdc-rate", "0.02",
                 "--fault-seed", "11", "--guard", "warn"},
                &out),
            0);
  EXPECT_NE(out.find("sdc bit flips:"), std::string::npos);
  EXPECT_EQ(out.find("sdc bit flips: 0 "), std::string::npos);
  EXPECT_NE(out.find("(finite)"), std::string::npos);
  std::string again;
  EXPECT_EQ(run({"train", "--steps", "4", "--sdc-rate", "0.02",
                 "--fault-seed", "11", "--guard", "warn"},
                &again),
            0);
  EXPECT_EQ(out, again);
  EXPECT_EQ(run({"train", "--sdc-rate", "1.5"}, &out), 1);
  EXPECT_EQ(run({"train", "--sdc-rate", "lots"}, &out), 1);
}

// --- Both front-ends -------------------------------------------------------
//
// `gaudisim_cli serve ...` and a batch cell with `command serve` parse every
// option at one shared site, so they must accept, reject and run a setting
// the same way.

using Options = std::vector<std::pair<std::string, std::string>>;

/// A tiny-model stream small enough that accepted settings run in
/// milliseconds.
const Options& tiny_stream() {
  static const Options kOptions = {
      {"model", "tiny"},     {"requests", "6"},      {"rate", "100"},
      {"prompt-min", "2"},   {"prompt-max", "6"},    {"output-min", "2"},
      {"output-max", "4"},   {"max-batch", "2"},     {"prefill-chunk", "4"},
      {"ctx-bucket", "4"},   {"block-tokens", "4"},  {"kv-mb", "1"}};
  return kOptions;
}

/// `base` with `overrides` replacing or extending it, in order.
Options with(Options base, const Options& overrides) {
  for (const auto& [key, value] : overrides) {
    const auto it = std::find_if(
        base.begin(), base.end(), [&](const auto& kv) { return kv.first == key; });
    if (it != base.end()) {
      it->second = value;
    } else {
      base.emplace_back(key, value);
    }
  }
  return base;
}

/// Runs `command` through the CLI; returns its output ("error: ..." on
/// failure, with exit code 1).
std::string via_cli(const std::string& command, const Options& options) {
  std::vector<std::string> argv{"gaudisim_cli", command, "--timing-only", "on"};
  for (const auto& [key, value] : options) {
    argv.push_back("--" + key);
    argv.push_back(value);
  }
  std::ostringstream out;
  const int rc = run_cli(argv, out);
  EXPECT_EQ(rc, out.str().rfind("error: ", 0) == 0 ? 1 : 0) << out.str();
  return out.str();
}

/// Runs `command` as a one-cell batch grid (timing-only when it serves);
/// returns its CSV, or "error: ..." as the CLI would print it.
std::string via_batch(const std::string& command, const Options& options) {
  std::ostringstream cfg;
  cfg << "experiment cell\n  command " << command << '\n';
  if (command.starts_with("serve")) cfg << "  timing-only on\n";
  for (const auto& [key, value] : options) {
    cfg << "  set " << key << ' ' << value << '\n';
  }
  cfg << "end\n";
  std::istringstream in(cfg.str());
  try {
    return run_batch(parse_batch_config(in)).csv;
  } catch (const sim::Error& e) {
    return std::string("error: ") + e.what();
  }
}

TEST(FrontEnds, RejectBadValuesNamingTheOption) {
  struct Row {
    const char* command;
    Options options;
    /// Text both errors must contain; nullptr: the setting is accepted and
    /// runs exactly like the same command without it.
    const char* error;
  };
  const std::vector<Row> rows = {
      // Scheduler geometry and robustness knobs.
      {"serve", {{"max-batch", "0"}}, "--max-batch"},
      {"serve", {{"prefill-chunk", "0"}}, "--prefill-chunk"},
      {"serve", {{"ctx-bucket", "0"}}, "--ctx-bucket"},
      {"serve", {{"block-tokens", "-3"}}, "--block-tokens"},
      {"serve", {{"kv-mb", "0"}}, "--kv-mb"},
      // A byte count that does not fit size_t, and a time past SimTime.
      {"serve", {{"kv-mb", "99999999999999"}}, "--kv-mb"},
      {"serve", {{"watchdog-ms", "99999999999999"}}, "--watchdog-ms"},
      {"serve", {{"retry-max", "-1"}}, "--retry-max"},
      {"serve", {{"retry-max", "3x"}}, "--retry-max"},
      {"serve", {{"watchdog-ms", "-5"}}, "--watchdog-ms"},
      {"serve", {{"watchdog-ms", "soon"}}, "--watchdog-ms"},
      {"serve", {{"shed-queue-depth", "-2"}}, "--shed-queue-depth"},
      {"serve", {{"shed-free-blocks", "-1"}}, "--shed-free-blocks"},
      {"serve", {{"retry-backoff-ms", "-1"}}, "--retry-backoff-ms"},
      {"serve", {{"retry-backoff-max-ms", "0"}}, "--retry-backoff-max-ms"},
      {"serve", {{"rate", "fast"}}, "--rate"},
      {"serve", {{"model", "llama"}}, "--model"},
      // Fault keys are checked with --faults off, but have no effect then.
      {"serve", {{"mtbf", "-5"}}, "--mtbf"},
      {"serve", {{"faults", "maybe"}}, "--faults"},
      {"serve", {{"faults", "off"}, {"mtbf", "25"}, {"fault-seed", "9"}},
       nullptr},
      // Serving never queries an SDC injector.
      {"serve", {{"sdc-rate", "0.5"}}, "unknown option: --sdc-rate"},
      // Serving keeps no compiled decode steps, so there is no cap to set.
      {"serve", {{"cache-cap", "4"}}, "unknown option: --cache-cap"},
      {"serve-cluster", {{"cache-cap", "4"}}, "unknown option: --cache-cap"},
      // Router.
      {"serve-cluster", {{"replicas", "0"}}, "--replicas"},
      {"serve-cluster", {{"lb", "fastest"}}, "--lb"},
      {"serve-cluster", {{"suspicion-ms", "0"}}, "--suspicion-ms"},
      {"serve-cluster", {{"hedge-ms", "-1"}}, "--hedge-ms"},
      {"serve-cluster", {{"breaker", "2"}}, "--breaker"},
      {"serve-cluster", {{"breaker-threshold", "2"}}, "--breaker-threshold"},
      {"serve-cluster", {{"breaker-cooldown-ms", "0"}},
       "--breaker-cooldown-ms"},
      {"serve-cluster", {{"retry-backoff-max-ms", "0"}},
       "--retry-backoff-max-ms"},
      {"serve-cluster", {{"nonsense", "1"}}, "unknown option: --nonsense"},
      {"serve-cluster", {{"mtbf", "40"}, {"fault-seed", "99"}}, nullptr},
      // Live migration and draining.
      {"serve-cluster", {{"migration-chunk-blocks", "0"}},
       "--migration-chunk-blocks"},
      {"serve-cluster", {{"replicas", "1"}, {"drain-replica", "0"}},
       "--drain-replica"},
      {"serve-cluster", {{"replicas", "3"}, {"drain-replica", "3"}},
       "--drain-replica"},
      {"serve-cluster", {{"drain-replica", "-5"}, {"drain-at-ms", "20"}},
       "--drain-replica"},
      {"serve-cluster", {{"drain-at-ms", "5"}},
       "--drain-at-ms requires --drain-replica"},
      {"serve-cluster",
       {{"replicas", "2"}, {"drain-replica", "0"}, {"drain-at-ms", "-1"}},
       "--drain-at-ms"},
      {"serve-cluster", {{"migrate", "on"}, {"health-window-ms", "0"}},
       "--health-window-ms"},
      {"serve-cluster", {{"migrate", "on"}, {"degraded-after", "0"}},
       "--degraded-after"},
      {"serve-cluster", {{"migrate", "off"}}, nullptr},
  };
  for (const Row& row : rows) {
    const Options options = with(tiny_stream(), row.options);
    SCOPED_TRACE(std::string(row.command) + " --" + row.options[0].first +
                 " " + row.options[0].second);
    const std::string cli = via_cli(row.command, options);
    const std::string batch = via_batch(row.command, options);
    if (row.error != nullptr) {
      EXPECT_EQ(cli.rfind("error: ", 0), 0u) << cli;
      EXPECT_NE(cli.find(row.error), std::string::npos) << cli;
      EXPECT_EQ(batch.rfind("error: ", 0), 0u) << batch;
      EXPECT_NE(batch.find(row.error), std::string::npos) << batch;
    } else {
      EXPECT_EQ(cli, via_cli(row.command, tiny_stream()));
      EXPECT_EQ(batch, via_batch(row.command, tiny_stream()));
    }
  }
}

TEST(FrontEnds, ProfileShapeErrorsNameTheOption) {
  struct Row {
    const char* command;
    Options options;
    const char* error;
  };
  const std::vector<Row> rows = {
      {"profile-layer", {{"seq", "0"}}, "--seq"},
      {"profile-layer", {{"batch", "-1"}}, "--batch"},
      {"profile-layer", {{"heads", "0"}}, "--heads"},
      {"profile-layer", {{"head-dim", "0"}}, "--head-dim"},
      {"profile-layer", {{"ffn", "-1"}}, "--ffn"},
      // The local window is 256 tokens wide.
      {"profile-layer", {{"attention", "local"}, {"seq", "100"}}, "--seq"},
      {"profile-model", {{"seq", "0"}}, "--seq"},
      {"profile-model", {{"batch", "0"}}, "--batch"},
      {"profile-model", {{"layers", "0"}}, "--layers"},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(std::string(row.command) + " --" + row.options.back().first +
                 " " + row.options.back().second);
    std::vector<std::string> argv{"gaudisim_cli", row.command};
    for (const auto& [key, value] : row.options) {
      argv.push_back("--" + key);
      argv.push_back(value);
    }
    std::ostringstream out;
    EXPECT_EQ(run_cli(argv, out), 1);
    const std::string cli = out.str();
    EXPECT_EQ(cli.rfind("error: ", 0), 0u) << cli;
    EXPECT_NE(cli.find(row.error), std::string::npos) << cli;
    EXPECT_EQ(cli.find("check failed"), std::string::npos) << cli;
    const std::string batch = via_batch(row.command, row.options);
    EXPECT_EQ(batch.rfind("error: ", 0), 0u) << batch;
    EXPECT_NE(batch.find(row.error), std::string::npos) << batch;
  }
}

/// The number that follows `label` in `text`.
double number_after(const std::string& text, const std::string& label) {
  const std::size_t at = text.find(label);
  EXPECT_NE(at, std::string::npos) << label << " missing from:\n" << text;
  return at == std::string::npos ? -1.0
                                 : std::stod(text.substr(at + label.size()));
}

/// The mean of `metric` in a one-cell batch CSV.
double csv_mean(const std::string& csv, const std::string& metric) {
  // Rows read "experiment,cell,metric,n,mean,p50,p99".
  const std::string prefix = "cell,-," + metric + ",1,";
  return number_after(csv, "\n" + prefix);
}

TEST(FrontEnds, ServeClusterCellMatchesTheCommand) {
  // Faults, hedging, live migration and a drain: the CLI report and the
  // batch cell must describe one and the same run.
  const Options options = {
      {"requests", "24"},   {"rate", "120"},     {"replicas", "3"},
      {"lb", "jsq"},        {"faults", "on"},    {"mtbf", "30"},
      {"fault-seed", "7"},  {"hedge-ms", "6"},   {"migrate", "on"},
      {"drain-replica", "0"}, {"drain-at-ms", "20"}};
  const std::string report = via_cli("serve-cluster", options);
  const std::string csv = via_batch("serve-cluster", options);
  ASSERT_EQ(report.find("error:"), std::string::npos) << report;
  ASSERT_EQ(csv.find("error:"), std::string::npos) << csv;
  EXPECT_NE(report.find("faults:"), std::string::npos) << report;

  EXPECT_EQ(number_after(report, " offered, "), csv_mean(csv, "completed"));
  EXPECT_EQ(number_after(report.substr(report.find("\ncluster:")), "(jsq), "),
            csv_mean(csv, "failovers"));
  EXPECT_GT(csv_mean(csv, "failovers"), 0.0);
  // The report prints the makespan to three decimals of its unit:
  // "... over 796.815 ms", or "... over 1.288 s" from one second up.
  const std::string makespan = report.substr(report.find(") over ") + 7);
  const std::string unit = makespan.substr(makespan.find(' '));
  ASSERT_TRUE(unit.starts_with(" ms\n") || unit.starts_with(" s\n")) << report;
  const double ms_per_unit = unit.starts_with(" s\n") ? 1e3 : 1.0;
  EXPECT_NEAR(std::stod(makespan) * ms_per_unit, csv_mean(csv, "makespan_ms"),
              5e-4 * ms_per_unit);
}

}  // namespace
}  // namespace gaudi::core
