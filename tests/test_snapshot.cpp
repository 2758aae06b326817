// Crash-consistent checkpoint tests: on-disk round trips, the kill-at-every-
// step bitwise resume invariant, fuzzed corruption (bit flips, truncations,
// lost commits) that must never load silently, the simulated torn-write
// window, typed rejection errors, and the state-restore accessors.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "nn/optimizer.hpp"
#include "nn/train.hpp"
#include "scaleout/snapshot.hpp"
#include "sim/error.hpp"
#include "sim/fault.hpp"
#include "sim/numerics.hpp"
#include "tensor/tensor.hpp"

namespace gaudi {
namespace {

namespace fs = std::filesystem;
using scaleout::Snapshot;
using scaleout::SnapshotReject;
using scaleout::SnapshotScan;
using tensor::Tensor;

/// Unique scratch directory, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_((fs::temp_directory_path() /
               ("gaudisim-snap-" + tag + "-" + std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Snapshot sample_snapshot(std::uint64_t step) {
  Snapshot s;
  s.step = step;
  s.add_meta("train.seed", 0x7A11);
  s.add_meta("scale_bits", std::bit_cast<std::uint32_t>(1024.0f));
  s.add("w", Tensor::uniform(tensor::Shape{{4, 3}}, sim::CounterRng{11, step}));
  s.add("b", Tensor::normal(tensor::Shape{{7}}, sim::CounterRng{22, step}));
  s.add("ids", Tensor::random_tokens(tensor::Shape{{5}},
                                     sim::CounterRng{33, step}, 97));
  return s;
}

std::string manifest_of(const std::string& dir, std::uint64_t step) {
  return (fs::path(dir) / (scaleout::snapshot_basename(step) + ".manifest"))
      .string();
}
std::string data_of(const std::string& dir, std::uint64_t step) {
  return (fs::path(dir) / (scaleout::snapshot_basename(step) + ".gsnap"))
      .string();
}

// ---------------------------------------------------------------------------
// Format round trips

TEST(SnapshotFormat, SaveLoadSaveIsByteIdentical) {
  TempDir a("roundtrip-a"), b("roundtrip-b");
  const Snapshot orig = sample_snapshot(7);
  const std::string manifest = scaleout::save_snapshot(a.path(), orig);
  const Snapshot loaded = scaleout::load_snapshot(manifest);

  EXPECT_EQ(loaded.step, 7u);
  EXPECT_EQ(loaded.require_meta("train.seed"), 0x7A11u);
  ASSERT_EQ(loaded.sections.size(), orig.sections.size());
  for (std::size_t i = 0; i < orig.sections.size(); ++i) {
    EXPECT_EQ(loaded.sections[i].name, orig.sections[i].name);
  }

  scaleout::save_snapshot(b.path(), loaded);
  EXPECT_EQ(slurp(data_of(a.path(), 7)), slurp(data_of(b.path(), 7)));
  EXPECT_EQ(slurp(manifest_of(a.path(), 7)), slurp(manifest_of(b.path(), 7)));
}

TEST(SnapshotFormat, PayloadBytesMatchesFileAndBackedConfig) {
  TempDir dir("payload");
  const Snapshot snap = sample_snapshot(1);
  scaleout::save_snapshot(dir.path(), snap);
  EXPECT_EQ(fs::file_size(data_of(dir.path(), 1)), snap.payload_bytes());

  const scaleout::CheckpointConfig cfg =
      scaleout::backed_checkpoint_config(snap);
  EXPECT_EQ(cfg.state_bytes, snap.payload_bytes());
  EXPECT_LT(scaleout::checkpoint_save_time(cfg).seconds(),
            scaleout::checkpoint_save_time(scaleout::CheckpointConfig{})
                .seconds());
}

TEST(SnapshotFormat, RejectsDuplicateOrWhitespaceNames) {
  Snapshot s;
  s.add("w", Tensor::zeros(tensor::Shape{{2}}));
  EXPECT_THROW(s.add("w", Tensor::zeros(tensor::Shape{{2}})), sim::Error);
  EXPECT_THROW(s.add("bad name", Tensor::zeros(tensor::Shape{{2}})),
               sim::Error);
  s.add_meta("k", 1);
  EXPECT_THROW(s.add_meta("k", 2), sim::Error);
  EXPECT_THROW((void)s.require("absent"), sim::CheckpointShapeMismatch);
  EXPECT_THROW((void)s.require_meta("absent"), sim::CheckpointShapeMismatch);
}

// ---------------------------------------------------------------------------
// Typed load errors — each damage class surfaces as its own exception and a
// corrupted checkpoint never loads silently.

TEST(SnapshotErrors, VersionSkewIsTyped) {
  TempDir dir("skew");
  scaleout::SaveOptions opts;
  opts.version = scaleout::kSnapshotFormatVersion + 1;
  const std::string manifest =
      scaleout::save_snapshot(dir.path(), sample_snapshot(3), opts);
  EXPECT_THROW(scaleout::load_snapshot(manifest), sim::CheckpointVersionSkew);

  const SnapshotScan scan = scaleout::scan_snapshots(dir.path());
  EXPECT_FALSE(scan.found());
  ASSERT_EQ(scan.rejected.size(), 1u);
  EXPECT_EQ(scan.rejected[0].reason, SnapshotReject::kVersionSkew);
}

TEST(SnapshotErrors, TruncatedDataIsTyped) {
  TempDir dir("trunc");
  const std::string manifest =
      scaleout::save_snapshot(dir.path(), sample_snapshot(3));
  const std::string data = slurp(data_of(dir.path(), 3));
  spit(data_of(dir.path(), 3), data.substr(0, data.size() / 2));
  EXPECT_THROW(scaleout::load_snapshot(manifest), sim::CheckpointTruncated);
}

TEST(SnapshotErrors, FlippedDataBitIsTyped) {
  TempDir dir("flip");
  const std::string manifest =
      scaleout::save_snapshot(dir.path(), sample_snapshot(3));
  std::string data = slurp(data_of(dir.path(), 3));
  data[data.size() / 3] = static_cast<char>(data[data.size() / 3] ^ 0x10);
  spit(data_of(dir.path(), 3), data);
  EXPECT_THROW(scaleout::load_snapshot(manifest),
               sim::CheckpointChecksumMismatch);
}

TEST(SnapshotErrors, DamagedManifestIsTyped) {
  TempDir dir("manifest");
  const std::string manifest =
      scaleout::save_snapshot(dir.path(), sample_snapshot(3));
  const std::string text = slurp(manifest);

  spit(manifest, text.substr(0, text.size() - 8));  // torn checksum trailer
  EXPECT_THROW(scaleout::load_snapshot(manifest), sim::CheckpointError);

  std::string flipped = text;
  flipped[text.find("step 3") + 5] = '4';  // body edit breaks self-checksum
  spit(manifest, flipped);
  EXPECT_THROW(scaleout::load_snapshot(manifest),
               sim::CheckpointChecksumMismatch);
}

TEST(SnapshotErrors, MissingDataFileIsTyped) {
  TempDir dir("nodata");
  const std::string manifest =
      scaleout::save_snapshot(dir.path(), sample_snapshot(3));
  fs::remove(data_of(dir.path(), 3));
  EXPECT_THROW(scaleout::load_snapshot(manifest), sim::CheckpointTruncated);

  const SnapshotScan scan = scaleout::scan_snapshots(dir.path());
  EXPECT_FALSE(scan.found());
  ASSERT_EQ(scan.rejected.size(), 1u);
  EXPECT_EQ(scan.rejected[0].reason, SnapshotReject::kMissingData);
}

// ---------------------------------------------------------------------------
// Directory scan: fallback to the newest valid snapshot under fuzzed damage.

TEST(SnapshotScan, EmptyOrMissingDirectoryIsCleanNotFound) {
  TempDir dir("empty");
  EXPECT_FALSE(scaleout::scan_snapshots(dir.path()).found());
  EXPECT_FALSE(
      scaleout::scan_snapshots(dir.path() + "/does-not-exist").found());
  EXPECT_FALSE(scaleout::scan_snapshots("").found());
}

TEST(SnapshotScan, FuzzedDamageNeverLoadsSilentlyAndFallsBack) {
  TempDir dir("fuzz");
  scaleout::save_snapshot(dir.path(), sample_snapshot(1));
  scaleout::save_snapshot(dir.path(), sample_snapshot(2));

  sim::CounterRng fuzz{0xF022};
  for (std::uint64_t i = 0; i < 36; ++i) {
    // Fresh newest checkpoint, then one deterministic act of vandalism.
    scaleout::save_snapshot(dir.path(), sample_snapshot(3));
    const std::string data_path = data_of(dir.path(), 3);
    const std::string manifest_path = manifest_of(dir.path(), 3);
    const std::string data = slurp(data_path);
    switch (fuzz.below(i * 2, 6)) {
      case 0: {  // flip one data bit
        std::string d = data;
        const std::uint64_t bit = fuzz.below(i * 2 + 1, d.size() * 8);
        d[bit / 8] = static_cast<char>(d[bit / 8] ^ (1u << (bit % 8)));
        spit(data_path, d);
        break;
      }
      case 1:  // truncate data
        spit(data_path, data.substr(0, fuzz.below(i * 2 + 1, data.size())));
        break;
      case 2:  // lost manifest commit
        fs::remove(manifest_path);
        break;
      case 3: {  // flip one manifest byte
        std::string m = slurp(manifest_path);
        const std::uint64_t at = fuzz.below(i * 2 + 1, m.size());
        m[at] = static_cast<char>(m[at] ^ 0x08);
        spit(manifest_path, m);
        break;
      }
      case 4: {  // truncate manifest
        const std::string m = slurp(manifest_path);
        spit(manifest_path, m.substr(0, fuzz.below(i * 2 + 1, m.size())));
        break;
      }
      case 5:  // delete data, keep manifest
        fs::remove(data_path);
        break;
    }

    const SnapshotScan scan = scaleout::scan_snapshots(dir.path());
    ASSERT_TRUE(scan.found()) << "iteration " << i;
    EXPECT_EQ(scan.step, 2u) << "iteration " << i << ": damaged step 3 "
                             << "must never restore, and step 2 is valid";
    ASSERT_FALSE(scan.rejected.empty()) << "iteration " << i;
    EXPECT_EQ(scan.rejected[0].step, 3u);
    EXPECT_FALSE(scan.rejected[0].detail.empty());
    EXPECT_NE(scaleout::to_string(scan).find("rejected step 3"),
              std::string::npos);
    // Reset for the next iteration.
    fs::remove(data_path);
    fs::remove(manifest_path);
  }
}

TEST(SnapshotScan, TornWriteWindowIsCaughtAtResume) {
  // checkpoint_corruption_rate = 1 fires the simulated torn-write window on
  // every save; the mode (lost commit / truncation / bit flip) varies with
  // the site.  The writer must stay silent and the scan must reject.
  sim::FaultProfile profile;
  profile.checkpoint_corruption_rate = 1.0;
  const sim::FaultInjector faults{0xC0FFEE, profile};

  for (std::uint64_t site = 1; site <= 18; ++site) {
    TempDir dir("torn-" + std::to_string(site));
    scaleout::save_snapshot(dir.path(), sample_snapshot(1));

    scaleout::SaveOptions opts;
    opts.faults = &faults;
    opts.site = site;
    scaleout::save_snapshot(dir.path(), sample_snapshot(2), opts);

    const SnapshotScan scan = scaleout::scan_snapshots(dir.path());
    ASSERT_TRUE(scan.found()) << "site " << site;
    EXPECT_EQ(scan.step, 1u) << "site " << site;
    ASSERT_EQ(scan.rejected.size(), 1u) << "site " << site;
    EXPECT_EQ(scan.rejected[0].step, 2u);
    EXPECT_TRUE(scan.rejected[0].reason == SnapshotReject::kUncommitted ||
                scan.rejected[0].reason == SnapshotReject::kTruncated ||
                scan.rejected[0].reason == SnapshotReject::kChecksumMismatch)
        << scaleout::snapshot_reject_name(scan.rejected[0].reason);
  }
}

// ---------------------------------------------------------------------------
// State-restore accessors

TEST(GradScalerRestore, RoundTripsAndValidates) {
  nn::GradScalerConfig cfg;
  cfg.growth_interval = 3;
  nn::GradScaler a(cfg);
  a.update(false);
  a.update(true);
  a.update(false);
  a.update(false);

  nn::GradScaler b(cfg);
  b.restore(a.scale(), a.clean_streak(), a.skipped_steps());
  EXPECT_EQ(std::bit_cast<std::uint32_t>(a.scale()),
            std::bit_cast<std::uint32_t>(b.scale()));
  EXPECT_EQ(a.clean_streak(), b.clean_streak());
  EXPECT_EQ(a.skipped_steps(), b.skipped_steps());
  // The pair must now evolve identically.
  for (const bool overflow : {false, false, true, false}) {
    EXPECT_EQ(a.update(overflow), b.update(overflow));
    EXPECT_EQ(a.scale(), b.scale());
  }

  nn::GradScaler c(cfg);
  EXPECT_THROW(c.restore(cfg.min_scale / 2.0f, 0, 0), sim::Error);
  EXPECT_THROW(c.restore(cfg.init_scale, cfg.growth_interval, 0), sim::Error);
  EXPECT_THROW(c.restore(cfg.init_scale, -1, 0), sim::Error);
  EXPECT_THROW(c.restore(cfg.init_scale, 0, -5), sim::Error);
}

TEST(OptimizerStateRefs, NamesEveryStateSlotSymmetrically) {
  graph::Graph g;
  nn::LmConfig mcfg = nn::LmConfig::tiny(nn::LmArch::kGpt2);
  mcfg.training = true;
  const nn::LanguageModel model = build_language_model(g, mcfg, 0x7A11);
  graph::Graph ug;
  nn::OptimizerConfig ocfg;
  ocfg.kind = nn::OptimizerKind::kAdam;
  const nn::OptimizerState ostate =
      nn::build_update_graph(ug, g, model, ocfg);

  const auto refs = ostate.state_refs(ug);
  ASSERT_EQ(refs.size(), 2 * ostate.slots.size());
  for (const auto& ref : refs) {
    EXPECT_NE(ref.in, graph::kInvalidValue);
    EXPECT_NE(ref.out, graph::kInvalidValue);
    EXPECT_EQ(ref.name, ug.value(ref.in).name);
    const bool adam_slot = ref.name.ends_with(".adam_m") ||
                           ref.name.ends_with(".adam_v");
    EXPECT_TRUE(adam_slot) << ref.name;
  }
}

TEST(CounterRngState, SeedAndStreamIdReconstructExactly) {
  const sim::CounterRng rng = sim::CounterRng{0xABCD, 3}.stream(9);
  const sim::CounterRng rebuilt{rng.seed(), rng.stream_id()};
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(rng.bits(i), rebuilt.bits(i));
  }
}

// ---------------------------------------------------------------------------
// The headline invariant: a run killed at step k and resumed is bitwise
// identical to the uninterrupted run — losses, scales, skip decisions,
// restored counters, and the serialized final state.

struct ResumeCase {
  bool bf16_grads;
  bool loss_scaling;
  bool resample_data;
};

void expect_bitwise_resume(const ResumeCase& c) {
  constexpr std::int32_t kSteps = 4;
  nn::TrainOptions base;
  base.steps = kSteps;
  base.bf16_grads = c.bf16_grads;
  base.loss_scaling = c.loss_scaling;
  base.resample_data = c.resample_data;
  base.optimizer.kind = nn::OptimizerKind::kAdam;
  base.corrupt_grad_step = c.loss_scaling ? 1 : -1;  // exercise a skip path
  // The injected NaN is the point of the skip path; keep the guard from
  // trapping on it when the suite runs under GAUDI_GUARD=trap.
  base.run.guard = sim::NumericsPolicy::kWarn;

  const std::string tag =
      std::string("resume-") + (c.bf16_grads ? "b1" : "b0") +
      (c.loss_scaling ? "s1" : "s0") + (c.resample_data ? "r1" : "r0");
  TempDir full_dir(tag + "-full");
  nn::TrainOptions full_opts = base;
  full_opts.checkpoint_dir = full_dir.path();
  const nn::TrainResult full = nn::train_language_model(full_opts);
  ASSERT_EQ(full.steps.size(), static_cast<std::size_t>(kSteps));
  EXPECT_EQ(full.checkpoints_saved, static_cast<std::uint64_t>(kSteps));

  for (std::int32_t k = 1; k < kSteps; ++k) {
    TempDir dir(tag + "-k" + std::to_string(k));
    // "Kill at step k": run only k steps, checkpointing every step.
    nn::TrainOptions prefix = base;
    prefix.steps = k;
    prefix.checkpoint_dir = dir.path();
    (void)nn::train_language_model(prefix);

    nn::TrainOptions rest = base;
    rest.checkpoint_dir = dir.path();
    rest.resume = true;
    const nn::TrainResult resumed = nn::train_language_model(rest);
    ASSERT_EQ(resumed.resumed_from_step, k);
    ASSERT_EQ(resumed.steps.size(), static_cast<std::size_t>(kSteps - k));

    for (std::int32_t i = 0; i < kSteps - k; ++i) {
      const nn::TrainStepInfo& want = full.steps[static_cast<std::size_t>(k + i)];
      const nn::TrainStepInfo& got = resumed.steps[static_cast<std::size_t>(i)];
      EXPECT_EQ(std::bit_cast<std::uint32_t>(want.loss),
                std::bit_cast<std::uint32_t>(got.loss))
          << "k=" << k << " step " << k + i;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(want.scale),
                std::bit_cast<std::uint32_t>(got.scale));
      EXPECT_EQ(want.applied, got.applied);
    }
    EXPECT_EQ(std::bit_cast<std::uint32_t>(full.final_scale),
              std::bit_cast<std::uint32_t>(resumed.final_scale));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(full.final_loss),
              std::bit_cast<std::uint32_t>(resumed.final_loss));
    EXPECT_EQ(full.skipped_steps, resumed.skipped_steps);

    // The complete serialized state — parameters, optimizer slots, scaler,
    // cursors — must land byte-identical on disk.
    EXPECT_EQ(slurp(data_of(full_dir.path(), kSteps)),
              slurp(data_of(dir.path(), kSteps)))
        << "k=" << k;
    EXPECT_EQ(slurp(manifest_of(full_dir.path(), kSteps)),
              slurp(manifest_of(dir.path(), kSteps)));
  }
}

TEST(DeterministicResume, KillAtEveryStepBf16OnScalingOn) {
  expect_bitwise_resume({true, true, false});
}
TEST(DeterministicResume, KillAtEveryStepBf16OnScalingOff) {
  expect_bitwise_resume({true, false, false});
}
TEST(DeterministicResume, KillAtEveryStepBf16OffScalingOn) {
  expect_bitwise_resume({false, true, false});
}
TEST(DeterministicResume, KillAtEveryStepBf16OffScalingOff) {
  expect_bitwise_resume({false, false, false});
}
TEST(DeterministicResume, KillAtEveryStepResampledData) {
  expect_bitwise_resume({true, true, true});
}

TEST(DeterministicResume, FreshStartOnEmptyOrMissingDirectory) {
  TempDir dir("fresh");
  nn::TrainOptions opts;
  opts.steps = 2;
  opts.checkpoint_dir = dir.path();
  opts.resume = true;
  const nn::TrainResult r = nn::train_language_model(opts);
  EXPECT_EQ(r.resumed_from_step, -1);
  EXPECT_NE(r.resume_report.find("starting fresh"), std::string::npos);
  EXPECT_EQ(r.checkpoints_saved, 2u);

  nn::TrainOptions missing = opts;
  missing.checkpoint_dir = dir.path() + "/never-created";
  const nn::TrainResult m = nn::train_language_model(missing);
  EXPECT_EQ(m.resumed_from_step, -1);
  EXPECT_NE(m.resume_report.find("starting fresh"), std::string::npos);
}

TEST(DeterministicResume, FingerprintMismatchIsTypedNotSilent) {
  TempDir dir("fingerprint");
  nn::TrainOptions opts;
  opts.steps = 2;
  opts.checkpoint_dir = dir.path();
  (void)nn::train_language_model(opts);

  nn::TrainOptions other = opts;
  other.steps = 4;
  other.resume = true;
  other.optimizer.kind = nn::OptimizerKind::kAdam;
  EXPECT_THROW((void)nn::train_language_model(other),
               sim::CheckpointShapeMismatch);

  other.optimizer.kind = opts.optimizer.kind;
  other.seed = opts.seed + 1;
  EXPECT_THROW((void)nn::train_language_model(other),
               sim::CheckpointShapeMismatch);
}

TEST(DeterministicResume, ResumeFallsBackOverCorruptedNewestCheckpoint) {
  TempDir dir("fallback");
  nn::TrainOptions opts;
  opts.steps = 3;
  opts.checkpoint_dir = dir.path();
  const nn::TrainResult full = nn::train_language_model(opts);
  ASSERT_EQ(full.checkpoints_saved, 3u);

  // Corrupt the newest checkpoint; resume must fall back to step 2 and
  // replay step 2 bitwise-identically to the uninterrupted run.
  std::string data = slurp(data_of(dir.path(), 3));
  data[0] = static_cast<char>(data[0] ^ 0x01);
  spit(data_of(dir.path(), 3), data);

  nn::TrainOptions rest = opts;
  rest.resume = true;
  const nn::TrainResult resumed = nn::train_language_model(rest);
  EXPECT_EQ(resumed.resumed_from_step, 2);
  EXPECT_NE(resumed.resume_report.find("checksum-mismatch"),
            std::string::npos);
  ASSERT_EQ(resumed.steps.size(), 1u);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(resumed.steps[0].loss),
            std::bit_cast<std::uint32_t>(full.steps[2].loss));
}

}  // namespace
}  // namespace gaudi
