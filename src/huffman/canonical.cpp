#include "huffman/canonical.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace huff {

bool kraft_valid(const CodeLengths& lengths) {
  // Sum 2^(kMaxCodeBits - len) must not exceed 2^kMaxCodeBits.
  constexpr std::uint64_t kOne = 1;
  const std::uint64_t budget = kOne << kMaxCodeBits;
  std::uint64_t sum = 0;
  for (std::uint8_t len : lengths) {
    if (len == 0) continue;
    if (len > kMaxCodeBits) return false;
    const std::uint64_t weight = kOne << (kMaxCodeBits - len);
    if (budget - sum < weight) return false;
    sum += weight;
  }
  return true;
}

CodeTable CodeTable::from_lengths(const CodeLengths& lengths) {
  if (!kraft_valid(lengths)) {
    throw std::invalid_argument(
        "CodeTable::from_lengths: lengths violate the Kraft inequality");
  }

  CodeTable table;
  table.lengths_ = lengths;
  table.packed_.fill(kNoCode);

  // Canonical assignment: iterate (length, symbol) in ascending order,
  // incrementing a counter and shifting left at each length boundary.
  std::vector<std::pair<std::uint8_t, std::uint16_t>> order;
  order.reserve(kSymbols);
  for (std::size_t s = 0; s < kSymbols; ++s) {
    if (lengths[s] != 0) {
      order.emplace_back(lengths[s], static_cast<std::uint16_t>(s));
    }
  }
  std::sort(order.begin(), order.end());

  std::uint64_t next_code = 0;
  std::uint8_t prev_len = 0;
  for (const auto& [len, sym] : order) {
    next_code <<= (len - prev_len);
    table.codes_[sym] = next_code;
    table.packed_[sym] = next_code << kCodeShift | len;
    ++next_code;
    prev_len = len;
  }
  table.max_length_ = prev_len;
  return table;
}

bool CodeTable::covers(const Histogram& hist) const {
  for (std::size_t s = 0; s < kSymbols; ++s) {
    if (hist.at(s) != 0 && lengths_[s] == 0) return false;
  }
  return true;
}

std::size_t CodeTable::coded_symbols() const {
  std::size_t n = 0;
  for (std::uint8_t len : lengths_) {
    if (len != 0) ++n;
  }
  return n;
}

}  // namespace huff
