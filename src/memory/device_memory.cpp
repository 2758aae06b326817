#include "memory/device_memory.hpp"

#include <algorithm>
#include <sstream>

namespace gaudi::memory {

Allocation DeviceAllocator::allocate(std::size_t bytes, const std::string& tag) {
  if (in_use_ + bytes > capacity_) {
    std::ostringstream os;
    os << "HBM out of memory allocating " << bytes << " bytes";
    if (!tag.empty()) os << " for '" << tag << "'";
    os << " (in use " << in_use_ << " of " << capacity_ << ")";
    throw sim::ResourceExhausted(os.str());
  }
  in_use_ += bytes;
  peak_ = std::max(peak_, in_use_);
  const std::uint64_t id = next_id_++;
  live_.emplace(id, bytes);
  return Allocation{id, bytes};
}

void DeviceAllocator::release(const Allocation& a) {
  if (!a.valid()) {
    return;
  }
  auto it = live_.find(a.id);
  GAUDI_CHECK(it != live_.end(), "double free or foreign allocation handle");
  GAUDI_ASSERT(in_use_ >= it->second, "allocator accounting underflow");
  in_use_ -= it->second;
  live_.erase(it);
}

}  // namespace gaudi::memory
