#include "serve/kv_cache.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "sim/error.hpp"

namespace gaudi::serve {

PagedKvAllocator::PagedKvAllocator(PagedKvConfig cfg,
                                   memory::DeviceAllocator* hbm)
    : cfg_(cfg), hbm_(hbm) {
  GAUDI_CHECK(cfg_.block_tokens >= 1, "KV block size must be >= 1 token");
  GAUDI_CHECK(cfg_.num_blocks >= 1, "KV pool needs at least one block");
  if (hbm_ != nullptr) {
    const std::size_t bytes = static_cast<std::size_t>(cfg_.num_blocks) *
                              static_cast<std::size_t>(cfg_.block_tokens) *
                              cfg_.bytes_per_token;
    backing_ = hbm_->allocate(bytes, "kv-cache pool");
  }
  owner_.assign(static_cast<std::size_t>(cfg_.num_blocks), -1);
  // Free list is LIFO over descending ids so blocks hand out in 0,1,2,...
  // order — an arbitrary but fixed convention that keeps runs deterministic.
  free_.resize(static_cast<std::size_t>(cfg_.num_blocks));
  std::iota(free_.rbegin(), free_.rend(), std::int64_t{0});
}

PagedKvAllocator::~PagedKvAllocator() {
  if (hbm_ != nullptr && backing_.valid()) hbm_->release(backing_);
}

bool PagedKvAllocator::can_reserve(std::int64_t tokens) const {
  if (tokens <= 0) return true;
  return blocks_for(tokens, cfg_.block_tokens) <= free_blocks();
}

bool PagedKvAllocator::reserve(std::int64_t request_id, std::int64_t tokens) {
  GAUDI_CHECK(tokens >= 1, "KV reservation must cover at least one token");
  GAUDI_CHECK(requests_.count(request_id) == 0,
              "request " + std::to_string(request_id) +
                  " already holds a KV reservation");
  const std::int64_t need = blocks_for(tokens, cfg_.block_tokens);
  if (need > free_blocks()) return false;
  Reservation r;
  r.used_tokens = tokens;
  r.blocks.reserve(static_cast<std::size_t>(need));
  for (std::int64_t i = 0; i < need; ++i) {
    const std::int64_t b = free_.back();
    free_.pop_back();
    GAUDI_ASSERT(owner_[static_cast<std::size_t>(b)] == -1,
                 "block handed out twice");
    owner_[static_cast<std::size_t>(b)] = request_id;
    r.blocks.push_back(b);
  }
  requests_.emplace(request_id, std::move(r));
  used_tokens_ += tokens;
  peak_used_ = std::max(peak_used_, cfg_.num_blocks - free_blocks());
  return true;
}

bool PagedKvAllocator::grow(std::int64_t request_id, std::int64_t tokens) {
  const auto it = requests_.find(request_id);
  GAUDI_CHECK(it != requests_.end(),
              "grow on request " + std::to_string(request_id) +
                  " which holds no KV reservation");
  Reservation& r = it->second;
  GAUDI_CHECK(tokens >= r.used_tokens, "KV reservations never shrink");
  const std::int64_t have = static_cast<std::int64_t>(r.blocks.size());
  const std::int64_t need = blocks_for(tokens, cfg_.block_tokens) - have;
  if (need > free_blocks()) return false;
  for (std::int64_t i = 0; i < need; ++i) {
    const std::int64_t b = free_.back();
    free_.pop_back();
    GAUDI_ASSERT(owner_[static_cast<std::size_t>(b)] == -1,
                 "block handed out twice");
    owner_[static_cast<std::size_t>(b)] = request_id;
    r.blocks.push_back(b);
  }
  used_tokens_ += tokens - r.used_tokens;
  r.used_tokens = tokens;
  peak_used_ = std::max(peak_used_, cfg_.num_blocks - free_blocks());
  return true;
}

void PagedKvAllocator::release(std::int64_t request_id) {
  const auto it = requests_.find(request_id);
  GAUDI_CHECK(it != requests_.end(),
              "release of request " + std::to_string(request_id) +
                  " which holds no KV reservation");
  for (const std::int64_t b : it->second.blocks) {
    GAUDI_ASSERT(owner_[static_cast<std::size_t>(b)] == request_id,
                 "released block not owned by the releasing request");
    owner_[static_cast<std::size_t>(b)] = -1;
    free_.push_back(b);
  }
  used_tokens_ -= it->second.used_tokens;
  requests_.erase(it);
}

std::int64_t PagedKvAllocator::reserved_tokens(std::int64_t request_id) const {
  const auto it = requests_.find(request_id);
  if (it == requests_.end()) return 0;
  return static_cast<std::int64_t>(it->second.blocks.size()) *
         cfg_.block_tokens;
}

KvStats PagedKvAllocator::stats() const {
  KvStats s;
  s.capacity_tokens = cfg_.num_blocks * cfg_.block_tokens;
  s.free_blocks = free_blocks();
  s.used_blocks = cfg_.num_blocks - s.free_blocks;
  s.free_tokens = s.free_blocks * cfg_.block_tokens;
  s.used_tokens = used_tokens_;
  // Every held slot is either written or fragmented.
  s.fragmented_tokens = s.used_blocks * cfg_.block_tokens - used_tokens_;
  return s;
}

void PagedKvAllocator::audit() const {
  std::vector<std::int64_t> seen(owner_.size(), -1);
  std::int64_t held = 0;
  std::int64_t used = 0;
  std::int64_t fragmented = 0;
  for (const auto& [id, r] : requests_) {
    const std::int64_t slots =
        static_cast<std::int64_t>(r.blocks.size()) * cfg_.block_tokens;
    GAUDI_ASSERT(r.used_tokens <= slots,
                 "reservation uses more tokens than its blocks hold");
    used += r.used_tokens;
    fragmented += slots - r.used_tokens;
    for (const std::int64_t b : r.blocks) {
      GAUDI_ASSERT(b >= 0 && b < cfg_.num_blocks, "block id out of range");
      GAUDI_ASSERT(seen[static_cast<std::size_t>(b)] == -1,
                   "block owned by two requests");
      GAUDI_ASSERT(owner_[static_cast<std::size_t>(b)] == id,
                   "ownership table disagrees with reservation");
      seen[static_cast<std::size_t>(b)] = id;
      ++held;
    }
  }
  for (const std::int64_t b : free_) {
    GAUDI_ASSERT(b >= 0 && b < cfg_.num_blocks, "free block id out of range");
    GAUDI_ASSERT(seen[static_cast<std::size_t>(b)] == -1,
                 "free block also owned by a request");
    GAUDI_ASSERT(owner_[static_cast<std::size_t>(b)] == -1,
                 "free block has a recorded owner");
    seen[static_cast<std::size_t>(b)] = -2;
  }
  GAUDI_ASSERT(held + free_blocks() == cfg_.num_blocks,
               "blocks leaked: held + free != total");
  const KvStats s = stats();
  GAUDI_ASSERT(s.used_tokens == used && s.fragmented_tokens == fragmented,
               "token counters disagree with the reservations");
  GAUDI_ASSERT(
      s.used_tokens + s.fragmented_tokens + s.free_tokens == s.capacity_tokens,
      "token accounting does not sum to capacity");
}

}  // namespace gaudi::serve
