// Buffer views passed to P2P and collective operations.
//
// A BufView is a (pointer, logical byte count, datatype) triple. The pointer
// may be null: the operation then runs "timing-only" — identical control
// flow, protocol steps, and simulated durations, but no payload movement.
// Large benchmark sweeps (128MB messages across 4096 ranks) run timing-only;
// correctness tests attach real storage.
#pragma once

#include <cstddef>
#include <vector>

#include "simmpi/datatype.hpp"

namespace han::mpi {

struct BufView {
  std::byte* data = nullptr;
  std::size_t bytes = 0;
  Datatype dtype = Datatype::Byte;

  bool has_data() const { return data != nullptr; }
  std::size_t count() const { return bytes / type_size(dtype); }

  /// Sub-view [offset, offset+len) — offsets must respect element size.
  BufView slice(std::size_t offset, std::size_t len) const {
    BufView v;
    v.data = data == nullptr ? nullptr : data + offset;
    v.bytes = len;
    v.dtype = dtype;
    return v;
  }

  static BufView timing_only(std::size_t bytes,
                             Datatype t = Datatype::Byte) {
    return BufView{nullptr, bytes, t};
  }

  friend bool operator==(const BufView&, const BufView&) = default;

  template <typename T>
  static BufView of(std::vector<T>& storage, Datatype t) {
    return BufView{reinterpret_cast<std::byte*>(storage.data()),
                   storage.size() * sizeof(T), t};
  }
};

}  // namespace han::mpi
