#include "common/arena.h"

#include <cstring>

namespace churnlab {

BlockArena::BlockArena(size_t chunk_bytes)
    : chunk_bytes_(chunk_bytes < kMinBlockBytes ? kMinBlockBytes
                                                : chunk_bytes) {}

size_t BlockArena::SizeClassFor(size_t min_bytes) {
  size_t pow2 = kMinBlockBytes;
  while (pow2 < min_bytes) pow2 <<= 1;
  // From 32 bytes up, a 3/4-of-power midpoint class (24, 48, 96, ...) sits
  // between consecutive powers of two: still a multiple of 8, and it caps
  // per-block rounding waste at ~25% instead of ~50%. Below 32 the
  // midpoints would break 8-byte alignment, so only 8 and 16 exist.
  if (pow2 >= 32) {
    const size_t mid = pow2 / 2 + pow2 / 4;
    if (min_bytes <= mid) return mid;
  }
  return pow2;
}

size_t BlockArena::ClassIndex(size_t class_bytes) {
  // 8 -> 0, 16 -> 1, 24 -> 2, 32 -> 3, 48 -> 4, 64 -> 5, 96 -> 6, ...
  size_t pow2 = kMinBlockBytes;
  size_t index = 0;
  while (pow2 < class_bytes) {
    pow2 <<= 1;
    index += pow2 >= 32 ? 2 : 1;
  }
  // A midpoint class sits one slot below its enclosing power of two.
  if (class_bytes != pow2) --index;
  return index;
}

void* BlockArena::Allocate(size_t min_bytes, size_t* capacity_bytes) {
  const size_t cls = SizeClassFor(min_bytes);
  *capacity_bytes = cls;
  const size_t index = ClassIndex(cls);
  bytes_in_use_ += cls;
  ++blocks_in_use_;
  if (free_lists_[index] != nullptr) {
    void* block = free_lists_[index];
    std::memcpy(&free_lists_[index], block, sizeof(void*));
    return block;
  }
  if (chunks_.empty() || chunks_.back().size - chunks_.back().used < cls) {
    // A block larger than the configured chunk span gets a dedicated chunk
    // of exactly its class size; the bump tail of the previous chunk stays
    // counted as reserved-but-unused slack.
    Chunk chunk;
    chunk.size = cls > chunk_bytes_ ? cls : chunk_bytes_;
    // Left uninitialised, as Allocate documents: no reader depends on
    // zeroed bytes, and zero-filling every chunk is pure cost.
    chunk.data = std::make_unique_for_overwrite<unsigned char[]>(chunk.size);
    bytes_reserved_ += chunk.size;
    chunks_.push_back(std::move(chunk));
  }
  Chunk& chunk = chunks_.back();
  void* block = chunk.data.get() + chunk.used;
  chunk.used += cls;
  return block;
}

void BlockArena::Release(void* block, size_t capacity_bytes) {
  if (block == nullptr) return;
  const size_t index = ClassIndex(capacity_bytes);
  std::memcpy(block, &free_lists_[index], sizeof(void*));
  free_lists_[index] = block;
  bytes_in_use_ -= capacity_bytes;
  --blocks_in_use_;
}

}  // namespace churnlab
