// Column block encoders behind SegmentWriter::seal (format in
// tsdb/format.hpp). Internal to the tsdb library and its tests.
//
// Each encoder picks its encoding from the column's values alone, so sealed
// bytes are identical across --jobs. Choices are made by counting payload
// sizes first and materializing only the winner: distinct values come from
// a flat open-addressing table (no per-value allocation, so concurrent
// seals on the worker pool do not contend on the allocator), and only the
// distinct values are ever sorted.
#pragma once

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "tsdb/format.hpp"

namespace wlm::tsdb {

/// RSSI columns switch from dictionary to raw fixed64 past this many
/// distinct values (a dictionary larger than the rows it indexes inflates).
inline constexpr std::size_t kMaxF64Dict = 4096;

/// One finished block, ready to frame into a segment.
struct Block {
  ColumnId id;
  Encoding encoding;
  std::uint64_t rows;
  std::int64_t min = 0, max = 0;
  std::vector<std::uint8_t> payload;
};

/// Bits needed to address a dictionary of n entries; 0 for a constant
/// column (one entry), where the index stream vanishes entirely.
[[nodiscard]] inline unsigned index_bits(std::size_t n) {
  return n <= 1 ? 0 : static_cast<unsigned>(std::bit_width(n - 1));
}

/// kDeltaZigzag block with the column's min/max summary.
[[nodiscard]] Block delta_block(ColumnId id, std::span<const std::int64_t> col);

/// kVarint or kDictVarint, whichever payload is smaller; ties go to the
/// plain kVarint encoding. Summaries are the i64 view of the values.
[[nodiscard]] Block best_u64_block(ColumnId id, std::span<const std::uint64_t> col);

/// kDictF64 over the IEEE-754 bit patterns when the column is non-empty
/// and has at most kMaxF64Dict distinct patterns, kFixed64 otherwise.
[[nodiscard]] Block f64_block(ColumnId id, std::span<const double> col);

/// Segment-wide MAC dictionary: rewrites every value of every column to
/// its index in the sorted distinct values of all columns together, and
/// returns those sorted distinct values.
[[nodiscard]] std::vector<std::uint64_t> index_macs(
    std::initializer_list<std::vector<std::uint64_t>*> columns);

}  // namespace wlm::tsdb
