// SlotPool<T>: records addressed by a uint32_t slot index, with stable
// addresses, recycled through a free list.
//
// Records live in fixed-size chunks that never move, so growth never
// relocates a record: a caller may hold a reference across acquire(), and
// a record's closure can run in place. A record is constructed the first
// time its slot is handed out and destroyed with the pool (or by trim()).
// A released slot keeps its record as the caller left it; the caller
// resets what it must. Reuse is last-freed-first, so a steady state cycles
// through a small, cache-warm working set, and capacity() follows the peak
// number of live slots, not how many were ever acquired.
//
// The engine's events, FlowNet's flows and SimWorld's messages all live in
// one of these; CellPool (cell_pool.hpp) serves the pointer-based case.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace han::sim {

template <typename T>
class SlotPool {
 public:
  SlotPool() = default;
  SlotPool(const SlotPool&) = delete;
  SlotPool& operator=(const SlotPool&) = delete;
  ~SlotPool() { destroy(); }

  T& operator[](std::uint32_t slot) {
    return *std::launder(reinterpret_cast<T*>(
        &chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)]));
  }
  const T& operator[](std::uint32_t slot) const {
    return const_cast<SlotPool&>(*this)[slot];
  }

  /// A free slot: the one released last, else a freshly constructed record.
  std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    if ((size_ & (kChunkSize - 1)) == 0) {
      chunks_.emplace_back(new Storage[kChunkSize]);
    }
    new (&chunks_[size_ >> kChunkShift][size_ & (kChunkSize - 1)]) T();
    return size_++;
  }

  void release(std::uint32_t slot) { free_.push_back(slot); }

  /// Records constructed so far (slot indices are below this).
  std::uint32_t capacity() const { return size_; }
  std::uint32_t live() const {
    return size_ - static_cast<std::uint32_t>(free_.size());
  }

  /// Destroy every record and free every chunk, but only when no slot is
  /// live (a quiescent owner), so an idle pool holds no memory.
  void trim() {
    if (live() == 0) destroy();
  }

 private:
  // 64 records per chunk: chunk allocation is rare, and an idle owner
  // stays cheap.
  static constexpr std::uint32_t kChunkShift = 6;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  struct Storage {
    alignas(T) std::byte bytes[sizeof(T)];
  };

  void destroy() {
    for (std::uint32_t s = 0; s < size_; ++s) (*this)[s].~T();
    chunks_.clear();
    free_.clear();
    size_ = 0;
  }

  std::vector<std::unique_ptr<Storage[]>> chunks_;
  std::vector<std::uint32_t> free_;  // LIFO stack of released slots
  std::uint32_t size_ = 0;
};

}  // namespace han::sim
