// Chunked access to long menus (the paper's open issue Q4: "How to
// scroll long menus? ... especially if large menus could only be
// accessed in chunks of e.g. 10 entries").
//
// The distance range maps onto a window ("chunk") of the level; a
// dedicated button pages between chunks. Pure index arithmetic — the
// device layer owns buttons and mapping.
#pragma once

#include <algorithm>
#include <cstddef>

namespace distscroll::core {

class ChunkedScroll {
 public:
  ChunkedScroll(std::size_t total_entries, std::size_t chunk_size)
      : total_(std::max<std::size_t>(1, total_entries)),
        chunk_size_(std::max<std::size_t>(1, chunk_size)) {}

  [[nodiscard]] std::size_t chunk_count() const { return (total_ + chunk_size_ - 1) / chunk_size_; }
  [[nodiscard]] std::size_t chunk() const { return chunk_; }

  /// Entries in the current chunk (the last chunk may be short).
  [[nodiscard]] std::size_t entries_in_chunk() const {
    const std::size_t start = chunk_ * chunk_size_;
    return std::min(chunk_size_, total_ - start);
  }

  /// Translate a within-chunk index (what the islands select) to the
  /// absolute entry index.
  [[nodiscard]] std::size_t to_absolute(std::size_t within_chunk) const {
    const std::size_t start = chunk_ * chunk_size_;
    return std::min(start + within_chunk, total_ - 1);
  }

  /// Which chunk contains an absolute index, and where inside it.
  [[nodiscard]] std::size_t chunk_of(std::size_t absolute) const {
    return std::min(absolute, total_ - 1) / chunk_size_;
  }

  bool next_chunk() {
    if (chunk_ + 1 >= chunk_count()) return false;
    ++chunk_;
    return true;
  }

  void jump_to_chunk(std::size_t chunk) { chunk_ = std::min(chunk, chunk_count() - 1); }

 private:
  std::size_t total_;
  std::size_t chunk_size_;
  std::size_t chunk_ = 0;
};

}  // namespace distscroll::core
