#include "huffman/fast_decoder.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace huff {

FastDecoder::FastDecoder(const CodeTable& table, std::uint8_t window)
    : window_(window) {
  if (window_ == 0 || window_ > 16) {
    throw std::invalid_argument("FastDecoder: window must be in [1,16]");
  }
  std::vector<std::pair<std::uint8_t, std::uint16_t>> order;
  for (std::size_t s = 0; s < kSymbols; ++s) {
    if (table.length(s) != 0) {
      order.emplace_back(table.length(s), static_cast<std::uint16_t>(s));
    }
  }
  if (order.empty()) {
    throw std::invalid_argument("FastDecoder: code table has no coded symbols");
  }
  std::sort(order.begin(), order.end());
  max_len_ = order.back().first;

  table_.assign(std::size_t{1} << window_, Entry{});
  for (const auto& [len, sym] : order) {
    if (count_[len] == 0) {
      first_code_[len] = table.code(sym);
      first_index_[len] = static_cast<std::uint32_t>(symbols_.size());
    }
    ++count_[len];
    symbols_.push_back(static_cast<std::uint8_t>(sym));
    if (len > window_) {
      fully_tabled_ = false;
      continue;
    }
    // The code occupies the top `len` bits of the window; fill every entry
    // that shares that prefix.
    const std::uint64_t base = table.code(sym) << (window_ - len);
    const std::uint64_t count = std::uint64_t{1} << (window_ - len);
    for (std::uint64_t i = 0; i < count; ++i) {
      table_[static_cast<std::size_t>(base + i)] = {
          static_cast<std::uint8_t>(sym), len};
    }
  }
}

void FastDecoder::decode_into(std::span<const std::uint8_t> data,
                              std::uint64_t start_bit,
                              std::span<std::uint8_t> out) const {
  const std::uint64_t total_bits = static_cast<std::uint64_t>(data.size()) * 8;
  std::uint64_t pos = start_bit;

  const std::uint32_t mask = (std::uint32_t{1} << window_) - 1;
  const auto peek_window = [&](std::uint64_t at) -> std::uint32_t {
    // Gathers a 32-bit big-endian chunk starting at the byte containing
    // `at` and aligns the window out of it — one load path per symbol
    // instead of a per-bit loop. window ≤ 16 and the intra-byte offset ≤ 7,
    // so 32 bits always cover it.
    const auto byte = static_cast<std::size_t>(at >> 3);
    std::uint32_t chunk;
    if (byte + 4 <= data.size()) {
      chunk = (std::uint32_t{data[byte]} << 24) |
              (std::uint32_t{data[byte + 1]} << 16) |
              (std::uint32_t{data[byte + 2]} << 8) |
              std::uint32_t{data[byte + 3]};
    } else {
      chunk = 0;  // zero-padded tail
      for (std::size_t i = 0; i < 4; ++i) {
        chunk <<= 8;
        if (byte + i < data.size()) chunk |= data[byte + i];
      }
    }
    const auto shift = static_cast<unsigned>(32 - window_ - (at & 7));
    return (chunk >> shift) & mask;
  };

  for (std::uint8_t& symbol : out) {
    if (pos >= total_bits) {
      throw std::runtime_error("FastDecoder: past end of data");
    }
    const std::uint32_t bits = peek_window(pos);
    const Entry e = table_[bits];
    if (e.length == 0) {
      symbol = decode_long(data, pos, bits);
      continue;
    }
    if (pos + e.length > total_bits) {
      throw std::runtime_error("FastDecoder: truncated code at end");
    }
    symbol = e.symbol;
    pos += e.length;
  }
}

std::uint8_t FastDecoder::decode_long(std::span<const std::uint8_t> data,
                                      std::uint64_t& pos,
                                      std::uint32_t prefix) const {
  // No code of length ≤ window matched, so the walk resumes at window+1.
  // If the window itself ran past the data (zero-padded), the first read
  // below is already out of range: a longer code cannot fit either.
  const std::uint64_t total_bits = static_cast<std::uint64_t>(data.size()) * 8;
  std::uint64_t code = prefix;
  std::uint64_t at = pos + window_;
  for (unsigned len = window_ + 1u; len <= max_len_; ++len, ++at) {
    if (at >= total_bits) {
      throw std::runtime_error("FastDecoder: truncated code at end");
    }
    const auto shift = static_cast<unsigned>(7 - (at & 7));
    code = (code << 1) | ((data[static_cast<std::size_t>(at >> 3)] >> shift) & 1U);
    const std::uint64_t first = first_code_[len];
    if (code >= first && code - first < count_[len]) {
      pos = at + 1;
      return symbols_[first_index_[len] + static_cast<std::uint32_t>(code - first)];
    }
  }
  throw std::runtime_error("FastDecoder: invalid code in stream");
}

std::vector<std::uint8_t> FastDecoder::decode(
    std::span<const std::uint8_t> data, std::size_t n_symbols,
    std::uint64_t start_bit) const {
  std::vector<std::uint8_t> out(n_symbols);
  decode_into(data, start_bit, out);
  return out;
}

}  // namespace huff
