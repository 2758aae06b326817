// Paged KV-cache allocation for multi-tenant serving.
//
// A growing per-request KV cache is the memory problem of LLM serving: a
// contiguous reservation sized for the worst case strands most of HBM, while
// exact-fit reallocation fragments it.  Following vLLM's PagedAttention, the
// pool is carved into fixed-size blocks of `block_tokens` KV rows; a request
// holds an ordered list of blocks and grows one token at a time, wasting at
// most one partial block (internal fragmentation, which this allocator
// accounts for exactly).  The pool's bytes are backed by a real reservation
// in the simulated HBM model (`memory::DeviceAllocator`), so KV capacity
// competes with everything else on the chip and oversized pools fail the
// same way any other allocation does.
//
// Invariants (checked by `audit()`, fuzzed in tests):
//   * every block is owned by exactly one request or on the free list;
//   * free + used + fragmented token slots always sum to pool capacity;
//   * releasing a request returns exactly the blocks it held.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "memory/device_memory.hpp"

namespace gaudi::serve {

struct PagedKvConfig {
  /// KV rows (tokens) per block.
  std::int64_t block_tokens = 64;
  /// Total blocks in the pool.
  std::int64_t num_blocks = 0;
  /// HBM bytes one token's K+V rows occupy across all layers (see
  /// `kv_bytes_per_token`); used to size the backing HBM reservation.
  std::size_t bytes_per_token = 0;
};

/// Occupancy snapshot; all quantities in token slots unless named otherwise.
struct KvStats {
  std::int64_t capacity_tokens = 0;
  std::int64_t used_tokens = 0;        ///< rows actually written
  std::int64_t fragmented_tokens = 0;  ///< allocated-but-unused slots
  std::int64_t free_tokens = 0;        ///< slots on the free list
  std::int64_t used_blocks = 0;
  std::int64_t free_blocks = 0;
};

class PagedKvAllocator {
 public:
  /// Carves `cfg.num_blocks` blocks out of `hbm` (one pool reservation of
  /// num_blocks * block_tokens * bytes_per_token bytes, released on
  /// destruction).  Throws sim::ResourceExhausted when HBM cannot back the
  /// pool.  A null `hbm` skips the backing reservation (unit tests).
  explicit PagedKvAllocator(PagedKvConfig cfg,
                            memory::DeviceAllocator* hbm = nullptr);
  ~PagedKvAllocator();

  PagedKvAllocator(const PagedKvAllocator&) = delete;
  PagedKvAllocator& operator=(const PagedKvAllocator&) = delete;

  /// Whether `tokens` more rows could be reserved right now (admission
  /// control: counts whole blocks, so the answer is exact, not optimistic).
  [[nodiscard]] bool can_reserve(std::int64_t tokens) const;

  /// Reserves capacity for `tokens` rows under `request_id` (which must not
  /// already hold a reservation).  Returns false — allocating nothing — when
  /// the free list cannot cover it.
  [[nodiscard]] bool reserve(std::int64_t request_id, std::int64_t tokens);

  /// Grows `request_id`'s reservation to `tokens` total rows, allocating
  /// blocks only when the current tail block is full.  Returns false — and
  /// changes nothing — when the pool cannot cover the growth.
  [[nodiscard]] bool grow(std::int64_t request_id, std::int64_t tokens);

  /// Returns every block held by `request_id` to the free list.
  void release(std::int64_t request_id);

  [[nodiscard]] bool holds(std::int64_t request_id) const {
    return requests_.count(request_id) != 0;
  }
  [[nodiscard]] std::int64_t reserved_tokens(std::int64_t request_id) const;

  [[nodiscard]] KvStats stats() const;
  [[nodiscard]] std::int64_t total_blocks() const {
    return cfg_.num_blocks;
  }
  [[nodiscard]] std::int64_t free_blocks() const {
    return static_cast<std::int64_t>(free_.size());
  }
  /// High-water mark of blocks in use since construction.
  [[nodiscard]] std::int64_t peak_used_blocks() const { return peak_used_; }

  /// Verifies the ownership and accounting invariants; throws
  /// sim::InternalError on violation.  Cheap enough to run at the end of
  /// every scheduler step (one iteration, or one and a stretch of repeats)
  /// under GAUDI_VALIDATE.
  void audit() const;

 private:
  [[nodiscard]] static std::int64_t blocks_for(std::int64_t tokens,
                                               std::int64_t block_tokens) {
    return (tokens + block_tokens - 1) / block_tokens;
  }

  struct Reservation {
    std::vector<std::int64_t> blocks;
    std::int64_t used_tokens = 0;
  };

  PagedKvConfig cfg_;
  memory::DeviceAllocator* hbm_ = nullptr;
  memory::Allocation backing_{};
  std::vector<std::int64_t> free_;         ///< LIFO free list (deterministic)
  std::vector<std::int64_t> owner_;        ///< block -> request id, -1 if free
  std::unordered_map<std::int64_t, Reservation> requests_;
  /// Rows written across all reservations; held slots minus this are the
  /// fragmented ones, so stats() needs no walk.
  std::int64_t used_tokens_ = 0;
  std::int64_t peak_used_ = 0;
};

}  // namespace gaudi::serve
