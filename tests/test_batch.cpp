// Batch-experiment runner: config grammar, stats aggregation, and
// byte-deterministic parallel execution.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/batch.hpp"
#include "core/stats_sink.hpp"
#include "sim/error.hpp"

namespace gaudi::core {
namespace {

BatchConfig parse(const std::string& text) {
  std::istringstream is(text);
  return parse_batch_config(is);
}

// --- Grammar ---------------------------------------------------------------

TEST(BatchConfig, ParsesExperimentsWithAllDirectives) {
  const BatchConfig cfg = parse(R"(# serving study
experiment sweep
  command serve
  set requests 16        # trailing comment
  sweep rate 4 8 16
  sweep max-batch 2 4
  seeds 0x5E21E 99
  repeats 3
  timing-only on
end

experiment probe
  command mme-vs-tpc
  sweep size 128 512
end
)");
  ASSERT_EQ(cfg.experiments.size(), 2u);
  const BatchExperiment& e = cfg.experiments[0];
  EXPECT_EQ(e.name, "sweep");
  EXPECT_EQ(e.command, "serve");
  ASSERT_EQ(e.fixed.size(), 1u);
  EXPECT_EQ(e.fixed[0], (std::pair<std::string, std::string>{"requests", "16"}));
  ASSERT_EQ(e.sweeps.size(), 2u);
  EXPECT_EQ(e.sweeps[0].second.size(), 3u);
  ASSERT_EQ(e.seeds.size(), 2u);
  EXPECT_EQ(e.seeds[0], 0x5E21Eu);  // hex spelling accepted
  EXPECT_EQ(e.seeds[1], 99u);
  EXPECT_EQ(e.repeats, 3);
  ASSERT_TRUE(e.timing_only.has_value());
  EXPECT_TRUE(*e.timing_only);
  EXPECT_FALSE(cfg.experiments[1].timing_only.has_value());
}

TEST(BatchConfig, RejectsMalformedInput) {
  EXPECT_THROW(parse(""), sim::InvalidArgument);
  EXPECT_THROW(parse("set rate 8\n"), sim::InvalidArgument);  // outside exp
  EXPECT_THROW(parse("experiment a\ncommand serve\n"),
               sim::InvalidArgument);  // missing end
  EXPECT_THROW(parse("experiment a\nend\n"),
               sim::InvalidArgument);  // no command
  EXPECT_THROW(parse("experiment a\ncommand bogus\nend\n"),
               sim::InvalidArgument);
  EXPECT_THROW(parse("experiment a\ncommand serve\nsweep rate\nend\n"),
               sim::InvalidArgument);  // empty sweep
  EXPECT_THROW(
      parse("experiment a\ncommand serve\nset rate 4\nsweep rate 8 16\nend\n"),
      sim::InvalidArgument);  // duplicate key
  EXPECT_THROW(parse("experiment a\ncommand serve\nseeds nope\nend\n"),
               sim::InvalidArgument);
  EXPECT_THROW(parse("experiment a\ncommand serve\nrepeats 0\nend\n"),
               sim::InvalidArgument);
  EXPECT_THROW(
      parse("experiment a\ncommand serve\nend\nexperiment a\ncommand serve\nend\n"),
      sim::InvalidArgument);  // duplicate name
  EXPECT_THROW(parse("experiment a\ncommand serve\nwat 1\nend\n"),
               sim::InvalidArgument);
  // The seed and the timing mode belong to their directives, not to keys.
  EXPECT_THROW(parse("experiment a\ncommand serve\nset seed 4\nend\n"),
               sim::InvalidArgument);
  EXPECT_THROW(
      parse("experiment a\ncommand serve\nsweep timing-only on off\nend\n"),
      sim::InvalidArgument);
}

TEST(BatchConfig, TimingOnlyDirectiveOnlyOnServingCommands) {
  for (const char* cmd : {"serve", "serve-cluster"}) {
    const std::string text = std::string("experiment a\ncommand ") + cmd +
                             "\ntiming-only on\nend\n";
    EXPECT_NO_THROW((void)parse(text)) << cmd;
  }
  // Rejected naming the directive's line, before or after the command.
  for (const char* cmd : {"profile-layer", "profile-model", "mme-vs-tpc"}) {
    for (const bool directive_first : {false, true}) {
      const std::string command = std::string("  command ") + cmd + "\n";
      const std::string text =
          "experiment a\n" +
          (directive_first ? "  timing-only on\n" + command
                           : command + "  timing-only on\n") +
          "end\n";
      const int directive_line = directive_first ? 2 : 3;
      try {
        (void)parse(text);
        ADD_FAILURE() << cmd << " accepted timing-only";
      } catch (const sim::InvalidArgument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line " + std::to_string(directive_line) + ":"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("timing-only"), std::string::npos) << what;
      }
    }
  }
}

// --- StatsSink -------------------------------------------------------------

TEST(StatsSinkTest, AggregatesPerCellWithDeterministicFormatting) {
  StatsSink sink;
  sink.add("e", "rate=8", "tput", 10.0);
  sink.add("e", "rate=8", "tput", 30.0);
  sink.add("e", "rate=8", "tput", 20.0);
  sink.add("e", "rate=16", "tput", 5.0);
  EXPECT_EQ(sink.samples(), 4u);
  EXPECT_EQ(sink.series(), 2u);
  EXPECT_EQ(sink.csv(),
            "experiment,cell,metric,n,mean,p50,p99\n"
            "e,rate=8,tput,3,20,20,30\n"
            "e,rate=16,tput,1,5,5,5\n");
  // The table renders the same rows.
  EXPECT_NE(sink.table().find("rate=8"), std::string::npos);
}

// --- Execution -------------------------------------------------------------

constexpr const char* kTinyServe = R"(
experiment tiny
  command serve
  set model tiny
  set requests 10
  set prompt-min 2
  set prompt-max 6
  set output-min 2
  set output-max 4
  set max-batch 2
  set prefill-chunk 4
  set ctx-bucket 4
  set block-tokens 4
  set kv-mb 1
  sweep rate 50 200
  seeds 0x5E21E 7
  repeats 2
  timing-only on
end
)";

TEST(BatchRun, GridShapeAndReplicaCounts) {
  const BatchConfig cfg = parse(kTinyServe);
  const BatchRunResult r = run_batch(cfg);
  EXPECT_EQ(r.cells, 2u);   // two rates
  EXPECT_EQ(r.runs, 8u);    // 2 cells x 2 seeds x 2 repeats
  // Every metric series carries all four replicas of its cell.
  EXPECT_NE(r.csv.find("tiny,rate=50,throughput_tok_s,4,"), std::string::npos)
      << r.csv;
}

TEST(BatchRun, ByteDeterministicAcrossRunsAndThreadCounts) {
  const BatchConfig cfg = parse(kTinyServe);
  BatchOptions serial;
  serial.threads = 1;
  BatchOptions wide;
  wide.threads = 8;
  const std::string a = run_batch(cfg, serial).csv;
  const std::string b = run_batch(cfg, wide).csv;
  const std::string c = run_batch(cfg, wide).csv;
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);
}

TEST(BatchRun, TimingOnlyOffMatchesOn) {
  // The fast path must not change a single reported number.
  BatchConfig on = parse(kTinyServe);
  BatchConfig off = parse(kTinyServe);
  off.experiments[0].timing_only = false;
  EXPECT_EQ(run_batch(on).csv, run_batch(off).csv);
}

TEST(BatchRun, UnknownKeyFailsLoudly) {
  const BatchConfig cfg = parse(R"(
experiment typo
  command serve
  set model tiny
  set requets 8
  set prompt-min 2
  set prompt-max 4
  set output-min 2
  set output-max 2
  set kv-mb 1
  set block-tokens 4
  timing-only on
end
)");
  EXPECT_THROW((void)run_batch(cfg), sim::InvalidArgument);
}

/// The CSV rows of cell `label`, with the label cut out so cells compare.
std::string cell_rows(const std::string& csv, const std::string& label) {
  std::istringstream in(csv);
  std::string rows;
  for (std::string line; std::getline(in, line);) {
    const std::size_t at = line.find("," + label + ",");
    if (at != std::string::npos) {
      rows += line.substr(0, at) + line.substr(at + label.size() + 1) + "\n";
    }
  }
  return rows;
}

TEST(BatchRun, SweepsMtbfThroughZeroWithAFaultSeed) {
  // `mtbf` sets only the rate and `fault-seed` only the stream; the
  // `faults` switch turns injection on.  Both keys are read either way, so
  // a grid can fix the fault seed while sweeping mtbf through 0.
  const std::string grid = R"(
experiment faults
  command serve
  set model tiny
  set requests 12
  set prompt-min 2
  set prompt-max 6
  set output-min 2
  set output-max 4
  set max-batch 2
  set prefill-chunk 4
  set ctx-bucket 4
  set block-tokens 4
  set kv-mb 1
  set rate 200
  set fault-seed 7
  sweep mtbf 0 8
  timing-only on
end
)";
  const BatchRunResult off = run_batch(parse(grid));
  EXPECT_EQ(off.cells, 2u);
  // Switch off: the rate has no effect, so both cells are the fault-free run.
  EXPECT_EQ(cell_rows(off.csv, "mtbf=0"), cell_rows(off.csv, "mtbf=8"));
  EXPECT_NE(off.csv.find("faults,mtbf=0,fault_retries,1,0,"),
            std::string::npos)
      << off.csv;

  std::string with_faults = grid;
  with_faults.insert(with_faults.find("  set fault-seed"), "  set faults on\n");
  const BatchRunResult on = run_batch(parse(with_faults));
  // Switch on: mtbf 0 is the stress profile, mtbf 8 a calibrated rate.
  EXPECT_NE(cell_rows(on.csv, "mtbf=0"), cell_rows(on.csv, "mtbf=8"));
  EXPECT_NE(cell_rows(on.csv, "mtbf=8"), cell_rows(off.csv, "mtbf=8"));
}

}  // namespace
}  // namespace gaudi::core
