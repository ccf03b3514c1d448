// Column block encoders against the reference encoders they replaced: the
// reference builds both candidate encodings by sorting a copy of the
// column and binary-searching every value, then keeps the smaller. The
// size-first encoders must produce byte-identical blocks, so segments,
// checkpoints and spill files do not change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "tsdb/column_encoder.hpp"
#include "wire/varint.hpp"

namespace wlm::tsdb {
namespace {

// --- reference encoders ------------------------------------------------------

std::uint64_t ref_f64_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

void ref_pack_indices(std::vector<std::uint8_t>& out, const std::vector<std::uint64_t>& idx,
                      unsigned width) {
  std::uint64_t acc = 0;
  unsigned nbits = 0;
  for (const std::uint64_t v : idx) {
    acc |= v << nbits;
    nbits += width;
    while (nbits >= 8) {
      out.push_back(static_cast<std::uint8_t>(acc));
      acc >>= 8;
      nbits -= 8;
    }
  }
  if (nbits > 0) out.push_back(static_cast<std::uint8_t>(acc));
}

Block ref_varint_block(ColumnId id, const std::vector<std::uint64_t>& col) {
  Block b{id, Encoding::kVarint, col.size(), 0, 0, {}};
  bool first = true;
  for (const std::uint64_t v : col) {
    const auto s = static_cast<std::int64_t>(v);
    b.min = first ? s : std::min(b.min, s);
    b.max = first ? s : std::max(b.max, s);
    first = false;
    wire::put_varint(b.payload, v);
  }
  return b;
}

Block ref_dict_varint_block(ColumnId id, const std::vector<std::uint64_t>& col) {
  Block b{id, Encoding::kDictVarint, col.size(), 0, 0, {}};
  std::vector<std::uint64_t> dict = col;
  std::sort(dict.begin(), dict.end());
  dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
  wire::put_varint(b.payload, dict.size());
  std::uint64_t prev = 0;
  for (const std::uint64_t d : dict) {
    wire::put_varint(b.payload, wire::zigzag_encode(static_cast<std::int64_t>(d - prev)));
    prev = d;
  }
  std::vector<std::uint64_t> indices;
  indices.reserve(col.size());
  for (const std::uint64_t v : col) {
    const auto it = std::lower_bound(dict.begin(), dict.end(), v);
    indices.push_back(static_cast<std::uint64_t>(it - dict.begin()));
  }
  ref_pack_indices(b.payload, indices, index_bits(dict.size()));
  bool first = true;
  for (const std::uint64_t v : col) {
    const auto s = static_cast<std::int64_t>(v);
    b.min = first ? s : std::min(b.min, s);
    b.max = first ? s : std::max(b.max, s);
    first = false;
  }
  return b;
}

Block ref_best_u64_block(ColumnId id, const std::vector<std::uint64_t>& col) {
  Block plain = ref_varint_block(id, col);
  Block dict = ref_dict_varint_block(id, col);
  return dict.payload.size() < plain.payload.size() ? std::move(dict) : std::move(plain);
}

Block ref_f64_block(ColumnId id, const std::vector<double>& col) {
  std::vector<std::uint64_t> bits;
  bits.reserve(col.size());
  for (const double v : col) bits.push_back(ref_f64_bits(v));
  std::vector<std::uint64_t> dict = bits;
  std::sort(dict.begin(), dict.end());
  dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
  if (!col.empty() && dict.size() <= kMaxF64Dict) {
    Block b{id, Encoding::kDictF64, col.size(), 0, 0, {}};
    wire::put_varint(b.payload, dict.size());
    std::uint64_t prev = 0;
    for (const std::uint64_t d : dict) {
      wire::put_varint(b.payload, wire::zigzag_encode(static_cast<std::int64_t>(d - prev)));
      prev = d;
    }
    std::vector<std::uint64_t> indices;
    indices.reserve(bits.size());
    for (const std::uint64_t v : bits) {
      const auto it = std::lower_bound(dict.begin(), dict.end(), v);
      indices.push_back(static_cast<std::uint64_t>(it - dict.begin()));
    }
    ref_pack_indices(b.payload, indices, index_bits(dict.size()));
    return b;
  }
  Block b{id, Encoding::kFixed64, col.size(), 0, 0, {}};
  for (const std::uint64_t v : bits) {
    for (int i = 0; i < 8; ++i) b.payload.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  return b;
}

/// The reference segment MAC dictionary over three columns.
std::vector<std::uint64_t> ref_index_macs(std::vector<std::uint64_t>& a,
                                          std::vector<std::uint64_t>& b,
                                          std::vector<std::uint64_t>& c) {
  std::vector<std::uint64_t> dict;
  dict.insert(dict.end(), a.begin(), a.end());
  dict.insert(dict.end(), b.begin(), b.end());
  dict.insert(dict.end(), c.begin(), c.end());
  std::sort(dict.begin(), dict.end());
  dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
  const auto index_of = [&dict](std::uint64_t mac) {
    return static_cast<std::uint64_t>(std::lower_bound(dict.begin(), dict.end(), mac) -
                                      dict.begin());
  };
  for (auto* col : {&a, &b, &c}) {
    for (auto& v : *col) v = index_of(v);
  }
  return dict;
}

// --- comparison --------------------------------------------------------------

std::string describe(const Block& b) {
  return "encoding " + std::to_string(static_cast<int>(b.encoding)) + ", rows " +
         std::to_string(b.rows) + ", min " + std::to_string(b.min) + ", max " +
         std::to_string(b.max) + ", payload " + std::to_string(b.payload.size()) + " B";
}

::testing::AssertionResult same_block(const Block& got, const Block& want) {
  if (got.id == want.id && got.encoding == want.encoding && got.rows == want.rows &&
      got.min == want.min && got.max == want.max && got.payload == want.payload) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << "got " << describe(got) << "; reference "
                                       << describe(want);
}

void expect_u64_identical(const std::vector<std::uint64_t>& col, const std::string& what) {
  EXPECT_TRUE(same_block(best_u64_block(ColumnId::kUsageTx, col),
                         ref_best_u64_block(ColumnId::kUsageTx, col)))
      << what;
}

void expect_f64_identical(const std::vector<double>& col, const std::string& what) {
  EXPECT_TRUE(same_block(f64_block(ColumnId::kNbrRssi, col),
                         ref_f64_block(ColumnId::kNbrRssi, col)))
      << what;
}

/// Random column: `distinct` candidate values of random bit width (so some
/// have the top bit set), drawn with a skew so dictionary and plain each
/// win some of the time.
std::vector<std::uint64_t> random_column(Rng& rng, std::size_t rows, std::size_t distinct) {
  std::vector<std::uint64_t> values(std::max<std::size_t>(distinct, 1));
  for (auto& v : values) v = rng.next_u64() >> rng.uniform_int(0, 63);
  std::vector<std::uint64_t> col(rows);
  for (auto& v : col) {
    const auto pick = static_cast<std::size_t>(rng.uniform() * rng.uniform() *
                                               static_cast<double>(values.size()));
    v = values[std::min(pick, values.size() - 1)];
  }
  return col;
}

// --- u64 ---------------------------------------------------------------------

TEST(ColumnEncoder, U64MatchesReferenceOnRandomColumns) {
  Rng rng(0x5EA1);
  int dict_wins = 0, plain_wins = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const auto rows = static_cast<std::size_t>(rng.uniform_int(0, trial % 10 == 0 ? 5000 : 60));
    const auto distinct = static_cast<std::size_t>(rng.uniform_int(1, 700));
    const auto col = random_column(rng, rows, distinct);
    expect_u64_identical(col, "trial " + std::to_string(trial));
    const Block ref = ref_best_u64_block(ColumnId::kUsageTx, col);
    (ref.encoding == Encoding::kDictVarint ? dict_wins : plain_wins) += 1;
  }
  // Both encodings must be exercised, or the comparison proves little.
  EXPECT_GT(dict_wins, 300);
  EXPECT_GT(plain_wins, 300);
}

TEST(ColumnEncoder, U64MatchesReferenceOnEdgeColumns) {
  constexpr auto u64_max = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t i64_min_bits = std::uint64_t{1} << 63;
  constexpr std::uint64_t i64_max_bits = i64_min_bits - 1;
  expect_u64_identical({}, "empty");
  expect_u64_identical({0}, "single zero");
  expect_u64_identical(std::vector<std::uint64_t>(1000, 42), "constant");
  expect_u64_identical(std::vector<std::uint64_t>(1000, u64_max), "constant max");
  std::vector<std::uint64_t> distinct(2000);
  for (std::size_t i = 0; i < distinct.size(); ++i) distinct[i] = i * 7919;
  expect_u64_identical(distinct, "all distinct");
  std::reverse(distinct.begin(), distinct.end());
  expect_u64_identical(distinct, "all distinct, descending");
  expect_u64_identical({i64_min_bits, i64_max_bits, u64_max, 0, 1, i64_min_bits},
                       "signed min/max");
  std::vector<std::uint64_t> high(3000);
  for (std::size_t i = 0; i < high.size(); ++i) high[i] = i64_min_bits + (i % 5) * 1'000'003;
  expect_u64_identical(high, "values >= 2^63, dictionary");
}

TEST(ColumnEncoder, U64SizeTieGoesToPlain) {
  // {0,1,0,1}: four 1-byte varints against the dictionary's count, two
  // 1-byte deltas and one byte of 1-bit indices. {0,0,0,200}: 3 + 2 bytes
  // against count, deltas of 1 and 2 bytes, one index byte. Both tie; in
  // the second, the distinct-count bound alone cannot settle the choice.
  const std::vector<std::vector<std::uint64_t>> ties = {{0, 1, 0, 1}, {0, 0, 0, 200}};
  for (const auto& tie : ties) {
    ASSERT_EQ(ref_varint_block(ColumnId::kUsageTx, tie).payload.size(),
              ref_dict_varint_block(ColumnId::kUsageTx, tie).payload.size());
    EXPECT_EQ(best_u64_block(ColumnId::kUsageTx, tie).encoding, Encoding::kVarint);
    expect_u64_identical(tie, "exact tie");
  }
  // One more row tips it: plain 5 bytes, dictionary still 4.
  const std::vector<std::uint64_t> one_more = {0, 1, 0, 1, 0};
  EXPECT_EQ(best_u64_block(ColumnId::kUsageTx, one_more).encoding, Encoding::kDictVarint);
}

// --- f64 ---------------------------------------------------------------------

TEST(ColumnEncoder, F64MatchesReferenceOnRandomColumns) {
  Rng rng(0xF64);
  for (int trial = 0; trial < 500; ++trial) {
    const auto rows = static_cast<std::size_t>(rng.uniform_int(0, 300));
    const auto distinct = rng.uniform_int(1, 80);
    std::vector<double> col(rows);
    for (auto& v : col) v = -30.0 - 0.5 * static_cast<double>(rng.uniform_int(0, distinct));
    expect_f64_identical(col, "trial " + std::to_string(trial));
  }
}

TEST(ColumnEncoder, F64MatchesReferenceOnEdgeColumns) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  const double snan = std::numeric_limits<double>::signaling_NaN();
  double payload_nan = 0.0;
  const std::uint64_t payload_bits = 0x7FF0000000000123ULL;
  std::memcpy(&payload_nan, &payload_bits, sizeof payload_nan);
  expect_f64_identical({}, "empty");
  expect_f64_identical(std::vector<double>(500, -71.5), "constant");
  expect_f64_identical({0.0, -0.0, 0.0, -0.0}, "signed zeros");
  expect_f64_identical({qnan, -qnan, snan, payload_nan, qnan, inf, -inf, -0.0, 1.0},
                       "NaN patterns and infinities");

  std::vector<double> at_limit(kMaxF64Dict);
  for (std::size_t i = 0; i < at_limit.size(); ++i) at_limit[i] = -20.0 - 0.01 * i;
  std::vector<double> rows = at_limit;
  rows.insert(rows.end(), at_limit.begin(), at_limit.begin() + 100);
  expect_f64_identical(rows, "exactly the dictionary limit");
  EXPECT_EQ(f64_block(ColumnId::kNbrRssi, rows).encoding, Encoding::kDictF64);

  rows.push_back(1e9);  // distinct value 4097
  expect_f64_identical(rows, "one past the dictionary limit");
  EXPECT_EQ(f64_block(ColumnId::kNbrRssi, rows).encoding, Encoding::kFixed64);

  std::vector<double> many(10'000);
  for (std::size_t i = 0; i < many.size(); ++i) many[i] = std::ldexp(1.0 + i, -20);
  expect_f64_identical(many, "10000 distinct");
}

// --- MAC dictionary ----------------------------------------------------------

TEST(ColumnEncoder, MacDictionaryMatchesReference) {
  Rng rng(0x3C0754);
  for (int trial = 0; trial < 300; ++trial) {
    const auto distinct = static_cast<std::size_t>(rng.uniform_int(1, 3000));
    std::vector<std::vector<std::uint64_t>> cols(3);
    for (auto& col : cols) {
      col = random_column(rng, static_cast<std::size_t>(rng.uniform_int(0, 400)), distinct);
      for (auto& v : col) v &= 0xFFFFFFFFFFFFULL;
    }
    auto want = cols;
    const auto want_dict = ref_index_macs(want[0], want[1], want[2]);
    const auto dict = index_macs({&cols[0], &cols[1], &cols[2]});
    ASSERT_EQ(dict, want_dict) << "trial " << trial;
    ASSERT_EQ(cols, want) << "trial " << trial;
  }
  std::vector<std::uint64_t> a, b, c;
  EXPECT_TRUE(index_macs({&a, &b, &c}).empty());
}

}  // namespace
}  // namespace wlm::tsdb
