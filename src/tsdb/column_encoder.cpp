#include "tsdb/column_encoder.hpp"

#include <algorithm>
#include <cstring>

#include "wire/varint.hpp"

namespace wlm::tsdb {

namespace {

std::uint64_t f64_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

std::uint64_t dict_delta(std::uint64_t d, std::uint64_t prev) {
  return wire::zigzag_encode(static_cast<std::int64_t>(d - prev));
}

/// Distinct u64 values in a flat open-addressing table: linear probing
/// over a power-of-two slot array kept at most half full, Fibonacci
/// hashing. After assign_ranks() each slot carries its value's index in
/// the sorted distinct values.
class DistinctTable {
 public:
  /// True when v was not in the table yet.
  bool insert(std::uint64_t v) {
    for (std::size_t s = home(v);; s = (s + 1) & mask_) {
      Slot& slot = slots_[s];
      if (slot.tag == 0) {
        if ((values_.size() + 1) * 2 > slots_.size()) {
          grow();
          return insert(v);
        }
        slot = Slot{v, 1};
        values_.push_back(v);
        return true;
      }
      if (slot.key == v) return false;
    }
  }

  [[nodiscard]] std::size_t size() const { return values_.size(); }

  /// The distinct values, ascending.
  [[nodiscard]] std::vector<std::uint64_t> sorted() const {
    std::vector<std::uint64_t> out = values_;
    std::sort(out.begin(), out.end());
    return out;
  }

  void assign_ranks(std::span<const std::uint64_t> sorted) {
    for (std::size_t r = 0; r < sorted.size(); ++r) {
      find(sorted[r]).tag = r + 1;
    }
  }

  /// Index of v (which must be present) in the sorted distinct values.
  [[nodiscard]] std::uint64_t rank(std::uint64_t v) { return find(v).tag - 1; }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t tag = 0;  // 0: empty; then 1, or 1 + rank once ranks are assigned
  };

  [[nodiscard]] std::size_t home(std::uint64_t v) const {
    return static_cast<std::size_t>((v * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  Slot& find(std::uint64_t v) {
    std::size_t s = home(v);
    while (slots_[s].key != v || slots_[s].tag == 0) s = (s + 1) & mask_;
    return slots_[s];
  }

  void grow() {
    slots_.assign(slots_.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    shift_ -= 1;
    for (const std::uint64_t v : values_) {
      std::size_t s = home(v);
      while (slots_[s].tag != 0) s = (s + 1) & mask_;
      slots_[s] = Slot{v, 1};
    }
  }

  static constexpr unsigned kInitialBits = 6;
  std::vector<Slot> slots_ = std::vector<Slot>(std::size_t{1} << kInitialBits);
  std::size_t mask_ = (std::size_t{1} << kInitialBits) - 1;
  unsigned shift_ = 64 - kInitialBits;
  std::vector<std::uint64_t> values_;  // first-seen order
};

/// Payload bytes of a dictionary section (count + delta-coded entries).
std::uint64_t dict_section_bytes(std::span<const std::uint64_t> sorted) {
  std::uint64_t bytes = wire::varint_size(sorted.size());
  std::uint64_t prev = 0;
  for (const std::uint64_t d : sorted) {
    bytes += wire::varint_size(dict_delta(d, prev));
    prev = d;
  }
  return bytes;
}

std::uint64_t packed_bytes(std::size_t rows, unsigned width) {
  return (static_cast<std::uint64_t>(rows) * width + 7) / 8;
}

/// Dictionary payload shared by kDictVarint and kDictF64: the sorted
/// dictionary, delta coded, then each row's rank packed LSB-first at a
/// fixed width (a 640-entry dictionary addresses in 10 bits where varints
/// spend 8 or 16). `bits_of(i)` is row i's value.
template <typename BitsOf>
void put_dict_payload(std::vector<std::uint8_t>& out, std::span<const std::uint64_t> sorted,
                      DistinctTable& table, std::size_t rows, BitsOf bits_of) {
  const unsigned width = index_bits(sorted.size());
  out.reserve(dict_section_bytes(sorted) + packed_bytes(rows, width));
  wire::put_varint(out, sorted.size());
  std::uint64_t prev = 0;
  for (const std::uint64_t d : sorted) {
    wire::put_varint(out, dict_delta(d, prev));
    prev = d;
  }
  if (width == 0) return;
  table.assign_ranks(sorted);
  std::uint64_t acc = 0;
  unsigned nbits = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    acc |= table.rank(bits_of(i)) << nbits;
    nbits += width;
    while (nbits >= 8) {
      out.push_back(static_cast<std::uint8_t>(acc));
      acc >>= 8;
      nbits -= 8;
    }
  }
  if (nbits > 0) out.push_back(static_cast<std::uint8_t>(acc));
}

}  // namespace

Block delta_block(ColumnId id, std::span<const std::int64_t> col) {
  Block b{id, Encoding::kDeltaZigzag, col.size(), 0, 0, {}};
  std::int64_t prev = 0;
  for (const std::int64_t v : col) {
    wire::put_varint(b.payload, wire::zigzag_encode(v - prev));
    prev = v;
  }
  if (!col.empty()) {
    b.min = *std::min_element(col.begin(), col.end());
    b.max = *std::max_element(col.begin(), col.end());
  }
  return b;
}

Block best_u64_block(ColumnId id, std::span<const std::uint64_t> col) {
  Block b{id, Encoding::kVarint, col.size(), 0, 0, {}};
  std::uint64_t plain_bytes = 0;
  for (std::size_t i = 0; i < col.size(); ++i) {
    plain_bytes += wire::varint_size(col[i]);
    // Summaries use the reader's view of the value (i64 cast) so the
    // round-trip check compares like with like.
    const auto s = static_cast<std::int64_t>(col[i]);
    b.min = i == 0 ? s : std::min(b.min, s);
    b.max = i == 0 ? s : std::max(b.max, s);
  }

  // Count distinct values, stopping as soon as the dictionary cannot beat
  // plain varints: k distinct values cost at least one byte each plus
  // their count, and the index stream only widens as k grows.
  DistinctTable table;
  bool dict_may_win = !col.empty();
  for (std::size_t i = 0; i < col.size() && dict_may_win; ++i) {
    if (!table.insert(col[i])) continue;
    const std::size_t k = table.size();
    dict_may_win = wire::varint_size(k) + k + packed_bytes(col.size(), index_bits(k)) <
                   plain_bytes;
  }
  if (dict_may_win) {
    const std::vector<std::uint64_t> sorted = table.sorted();
    const std::uint64_t dict_bytes =
        dict_section_bytes(sorted) + packed_bytes(col.size(), index_bits(sorted.size()));
    if (dict_bytes < plain_bytes) {
      b.encoding = Encoding::kDictVarint;
      put_dict_payload(b.payload, sorted, table, col.size(),
                       [col](std::size_t i) { return col[i]; });
      return b;
    }
  }
  b.payload.resize(plain_bytes);
  std::uint8_t* p = b.payload.data();
  for (const std::uint64_t v : col) p = wire::raw_varint(p, v);
  return b;
}

Block f64_block(ColumnId id, std::span<const double> col) {
  // Dictionary when the value set is small (RSSI streams repeat heavily);
  // raw fixed64 otherwise.
  DistinctTable table;
  bool small = !col.empty();
  for (std::size_t i = 0; i < col.size() && small; ++i) {
    small = !table.insert(f64_bits(col[i])) || table.size() <= kMaxF64Dict;
  }
  if (small) {
    Block b{id, Encoding::kDictF64, col.size(), 0, 0, {}};
    // Sorted bit patterns of same-sign doubles share their high bits, so
    // delta coding the sorted dictionary beats raw fixed64 entries.
    put_dict_payload(b.payload, table.sorted(), table, col.size(),
                     [col](std::size_t i) { return f64_bits(col[i]); });
    return b;
  }
  Block b{id, Encoding::kFixed64, col.size(), 0, 0, {}};
  b.payload.resize(col.size() * 8);
  std::uint8_t* p = b.payload.data();
  for (const double v : col) {
    const std::uint64_t bits = f64_bits(v);
    for (int i = 0; i < 8; ++i) *p++ = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  return b;
}

std::vector<std::uint64_t> index_macs(
    std::initializer_list<std::vector<std::uint64_t>*> columns) {
  DistinctTable table;
  for (const auto* col : columns) {
    for (const std::uint64_t mac : *col) table.insert(mac);
  }
  std::vector<std::uint64_t> dict = table.sorted();
  table.assign_ranks(dict);
  for (auto* col : columns) {
    for (std::uint64_t& mac : *col) mac = table.rank(mac);
  }
  return dict;
}

}  // namespace wlm::tsdb
