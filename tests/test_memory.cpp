// Memory-system tests: HBM allocator accounting, DMA/HBM timing models and
// the FNV-1a checksum.
#include <gtest/gtest.h>

#include <string>

#include "memory/checksum.hpp"
#include "memory/device_memory.hpp"
#include "memory/dma.hpp"
#include "sim/chip_config.hpp"

namespace gaudi::memory {
namespace {

TEST(DeviceAllocator, TracksUsageAndPeak) {
  DeviceAllocator alloc(1000);
  const Allocation a = alloc.allocate(400, "a");
  const Allocation b = alloc.allocate(500, "b");
  EXPECT_EQ(alloc.in_use(), 900u);
  EXPECT_EQ(alloc.peak(), 900u);
  EXPECT_EQ(alloc.live_allocations(), 2u);
  alloc.release(a);
  EXPECT_EQ(alloc.in_use(), 500u);
  EXPECT_EQ(alloc.peak(), 900u);  // peak is sticky
  const Allocation c = alloc.allocate(300, "c");
  EXPECT_EQ(alloc.in_use(), 800u);
  alloc.release(b);
  alloc.release(c);
  EXPECT_EQ(alloc.in_use(), 0u);
}

TEST(DeviceAllocator, ThrowsOnExhaustion) {
  DeviceAllocator alloc(100);
  const Allocation a = alloc.allocate(80);
  EXPECT_THROW((void)alloc.allocate(21, "too big"), sim::ResourceExhausted);
  alloc.release(a);
  EXPECT_NO_THROW((void)alloc.allocate(100));
}

TEST(DeviceAllocator, ExhaustionMessageNamesTheTensor) {
  DeviceAllocator alloc(10);
  try {
    (void)alloc.allocate(11, "attention_scores");
    FAIL();
  } catch (const sim::ResourceExhausted& e) {
    EXPECT_NE(std::string(e.what()).find("attention_scores"), std::string::npos);
  }
}

TEST(DeviceAllocator, DetectsDoubleFree) {
  DeviceAllocator alloc(100);
  const Allocation a = alloc.allocate(10);
  alloc.release(a);
  EXPECT_THROW(alloc.release(a), sim::InvalidArgument);
  // Releasing an invalid (default) handle is a harmless no-op.
  EXPECT_NO_THROW(alloc.release(Allocation{}));
}

TEST(DeviceAllocator, FromChipConfigUses32GB) {
  DeviceAllocator alloc(sim::ChipConfig::hls1().memory);
  EXPECT_EQ(alloc.capacity(), 32ull * 1024 * 1024 * 1024);
}

TEST(DmaModel, TimeIsAffineInBytes) {
  const sim::MemoryConfig cfg = sim::ChipConfig::hls1().memory;
  const auto t0 = dma_transfer_time(cfg, 0);
  EXPECT_EQ(t0, cfg.dma_setup);
  const auto t1 = dma_transfer_time(cfg, 1 << 20);
  const auto t2 = dma_transfer_time(cfg, 2 << 20);
  EXPECT_GT(t1, t0);
  // Affine: t2 - t1 == t1 - t0 (streaming part is linear).
  EXPECT_NEAR(static_cast<double>((t2 - t1).ps()),
              static_cast<double>((t1 - t0).ps()), 2.0);
}

TEST(DmaModel, EffectiveBandwidthApproachesPeakForLargeTransfers) {
  const sim::MemoryConfig cfg = sim::ChipConfig::hls1().memory;
  const double small = dma_effective_bandwidth(cfg, 4096);
  const double large = dma_effective_bandwidth(cfg, 1ull << 30);
  EXPECT_LT(small, 0.5 * cfg.dma_bandwidth_bytes_per_s);
  EXPECT_GT(large, 0.95 * cfg.dma_bandwidth_bytes_per_s);
}

TEST(HbmModel, LatencyPlusStreaming) {
  const sim::MemoryConfig cfg = sim::ChipConfig::hls1().memory;
  const auto t = hbm_transfer_time(cfg, static_cast<std::size_t>(1e12));
  // 1 TB at 1 TB/s ~ 1 s dominated by streaming.
  EXPECT_NEAR(t.seconds(), 1.0, 0.01);
  EXPECT_GE(hbm_transfer_time(cfg, 0), cfg.hbm_latency);
}

TEST(Fnv1a, MatchesTheReferenceVectorsWholeOrInPieces) {
  const auto digest = [](const std::string& text) {
    return fnv1a64(reinterpret_cast<const std::byte*>(text.data()),
                   text.size());
  };
  // The published FNV-1a 64-bit vectors; "" is the offset basis itself.
  EXPECT_EQ(digest(""), 0xCBF29CE484222325ull);
  EXPECT_EQ(digest("a"), 0xAF63DC4C8601EC8Cull);
  EXPECT_EQ(digest("foobar"), 0x85944171F73967E8ull);
  Fnv1a pieces;
  pieces.bytes("foo", 3);
  pieces.bytes("", 0);
  pieces.bytes("bar", 3);
  EXPECT_EQ(pieces.digest(), digest("foobar"));
}

}  // namespace
}  // namespace gaudi::memory
