// SmallVec: a vector with inline storage for the first N elements,
// restricted to trivially copyable types.
//
// For short lists built and dropped at simulator rate whose length is
// usually, but not always, small: a resource's active flows in the fluid
// network (single-digit queue depths, spilling at hot spots) and a plan
// action's dependencies (rarely more than two, and plan templates are
// rebuilt in every busy period of the collective runtime). The common
// case never touches the allocator; longer lists spill to one heap
// buffer. (A flow's route has a hard maximum and uses the fixed-capacity
// net::Route instead.)
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <initializer_list>

#include "simbase/assert.hpp"

namespace han::sim {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec only supports trivially copyable element types");
  static_assert(N > 0);

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() = default;
  SmallVec(std::initializer_list<T> init) { assign(init.begin(), init.end()); }

  SmallVec(const SmallVec& other) { assign(other.begin(), other.end()); }
  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }

  SmallVec(SmallVec&& other) noexcept { steal(other); }
  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }

  ~SmallVec() { release(); }

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return cap_; }
  bool is_inline() const { return data_ == inline_; }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  T& operator[](std::size_t i) {
    HAN_ASSERT(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    HAN_ASSERT(i < size_);
    return data_[i];
  }

  void push_back(const T& v) {
    if (size_ == cap_) grow(cap_ * 2);
    data_[size_++] = v;
  }

  T& back() {
    HAN_ASSERT(size_ > 0);
    return data_[size_ - 1];
  }
  const T& back() const {
    HAN_ASSERT(size_ > 0);
    return data_[size_ - 1];
  }

  void pop_back() {
    HAN_ASSERT(size_ > 0);
    --size_;
  }

  void clear() { size_ = 0; }

  template <typename It>
  void assign(It first, It last) {
    clear();
    for (; first != last; ++first) push_back(*first);
  }

  /// Erase [first, last), preserving the order of later elements.
  T* erase(T* first, T* last) {
    HAN_ASSERT(data_ <= first && first <= last && last <= end());
    std::memmove(first, last, static_cast<std::size_t>(end() - last) * sizeof(T));
    size_ -= static_cast<std::size_t>(last - first);
    return first;
  }

 private:
  void grow(std::size_t new_cap) {
    T* heap = new T[new_cap];
    std::memcpy(heap, data_, size_ * sizeof(T));
    release();
    data_ = heap;
    cap_ = new_cap;
  }

  void release() {
    if (data_ != inline_) delete[] data_;
    data_ = inline_;
    cap_ = N;
  }

  void steal(SmallVec& other) noexcept {
    if (other.is_inline()) {
      std::memcpy(inline_, other.inline_, other.size_ * sizeof(T));
      data_ = inline_;
      cap_ = N;
    } else {
      data_ = other.data_;
      cap_ = other.cap_;
      other.data_ = other.inline_;
      other.cap_ = N;
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  T inline_[N];
  T* data_ = inline_;
  std::size_t size_ = 0;
  std::size_t cap_ = N;
};

}  // namespace han::sim
