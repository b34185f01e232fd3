// CellPool: a free list of equal-sized memory cells for small states that
// are created and dropped at message rate (request states).
//
// Cells are carved from fixed-size chunks that never move and recycle
// through an intrusive free list, so the pool's size follows the peak
// number of live cells, not how many were ever allocated, and a steady
// state touches no allocator. A pool serves one cell size, fixed by its
// first allocation, and one thread (the simulated world that owns it).
//
// A cell may outlive the pool's owner (a request handle kept past its
// world), so the owner never deletes the pool: it calls orphan(), and the
// pool frees itself once its last live cell has come back.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "simbase/assert.hpp"

namespace han::sim {

class CellPool {
 public:
  static CellPool* create() { return new CellPool(); }
  CellPool(const CellPool&) = delete;
  CellPool& operator=(const CellPool&) = delete;

  /// The owner lets go: the pool frees itself now, or when its last live
  /// cell is deallocated.
  void orphan() {
    orphaned_ = true;
    if (live_ == 0) delete this;
  }

  void* allocate(std::size_t bytes) {
    if (cell_bytes_ == 0) {
      cell_bytes_ = (bytes + alignof(std::max_align_t) - 1) /
                    alignof(std::max_align_t) * alignof(std::max_align_t);
    }
    HAN_ASSERT_MSG(bytes <= cell_bytes_, "CellPool serves one cell size");
    ++live_;
    if (free_ != nullptr) {
      FreeCell* c = free_;
      free_ = c->next;
      return c;
    }
    if (used_in_chunk_ == kChunkCells || chunks_.empty()) {
      chunks_.emplace_back(new std::byte[cell_bytes_ * kChunkCells]);
      used_in_chunk_ = 0;
    }
    return chunks_.back().get() + cell_bytes_ * used_in_chunk_++;
  }

  void deallocate(void* p) {
    auto* c = static_cast<FreeCell*>(p);
    c->next = free_;
    free_ = c;
    if (--live_ == 0 && orphaned_) delete this;
  }

  /// Return every chunk to the heap if no cell is live (a quiescent
  /// world), so an idle pool holds no memory.
  void trim() {
    if (live_ != 0) return;
    chunks_.clear();
    used_in_chunk_ = 0;
    free_ = nullptr;
  }

 private:
  CellPool() = default;
  ~CellPool() = default;

  struct FreeCell {
    FreeCell* next;
  };
  static constexpr std::size_t kChunkCells = 64;

  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::size_t used_in_chunk_ = 0;
  std::size_t cell_bytes_ = 0;
  std::size_t live_ = 0;
  FreeCell* free_ = nullptr;
  bool orphaned_ = false;
};

/// Standard allocator over a CellPool, for std::allocate_shared: the
/// shared state (control block plus object) is one pooled cell.
template <typename T>
class CellAllocator {
 public:
  using value_type = T;

  explicit CellAllocator(CellPool& pool) : pool_(&pool) {}
  template <typename U>
  CellAllocator(const CellAllocator<U>& other)  // NOLINT
      : pool_(other.pool()) {}

  T* allocate(std::size_t n) {
    HAN_ASSERT(n == 1);
    static_assert(alignof(T) <= alignof(std::max_align_t));
    return static_cast<T*>(pool_->allocate(sizeof(T)));
  }
  void deallocate(T* p, std::size_t) { pool_->deallocate(p); }

  CellPool* pool() const { return pool_; }
  friend bool operator==(const CellAllocator& a, const CellAllocator& b) {
    return a.pool_ == b.pool_;
  }

 private:
  CellPool* pool_;
};

}  // namespace han::sim
