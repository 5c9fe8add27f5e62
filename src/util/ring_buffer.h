// Fixed-capacity ring buffer.
//
// Used in the firmware paths (UART FIFOs, sensor smoothing windows) where
// a real PIC 18F452 would use a static array: no heap allocation after
// construction, O(1) push/pop, a push into a full ring is refused.
#pragma once

#include <array>
#include <cstddef>
#include <optional>

namespace distscroll::util {

template <typename T, std::size_t Capacity>
class RingBuffer {
  static_assert(Capacity > 0, "RingBuffer capacity must be positive");

 public:
  constexpr RingBuffer() = default;

  [[nodiscard]] constexpr bool empty() const { return size_ == 0; }
  [[nodiscard]] constexpr bool full() const { return size_ == Capacity; }
  [[nodiscard]] constexpr std::size_t size() const { return size_; }
  [[nodiscard]] static constexpr std::size_t capacity() { return Capacity; }

  /// Push if there is room; returns false (and drops the element) when full.
  constexpr bool try_push(const T& value) {
    if (full()) return false;
    data_[(head_ + size_) % Capacity] = value;
    ++size_;
    return true;
  }

  /// Pop the oldest element; nullopt when empty.
  constexpr std::optional<T> pop() {
    if (empty()) return std::nullopt;
    T value = data_[head_];
    head_ = (head_ + 1) % Capacity;
    --size_;
    return value;
  }

  /// Peek the oldest element without removing it.
  [[nodiscard]] constexpr std::optional<T> front() const {
    if (empty()) return std::nullopt;
    return data_[head_];
  }

  /// Peek the newest element.
  [[nodiscard]] constexpr std::optional<T> back() const {
    if (empty()) return std::nullopt;
    return data_[(head_ + size_ - 1) % Capacity];
  }

 private:
  std::array<T, Capacity> data_{};
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace distscroll::util
