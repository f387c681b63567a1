#include "huffman/fast_decoder.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "huffman/bitio.h"

namespace huff {

FastDecoder::FastDecoder(const CodeTable& table, std::uint8_t window)
    : window_(window) {
  if (window_ == 0 || window_ > 16) {
    throw std::invalid_argument("FastDecoder: window must be in [1,16]");
  }
  per_load_ = static_cast<std::uint8_t>(57 / window_);
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

namespace {

/// The 64 bits of `data` from bit `pos` on, left-aligned; bits past the end
/// read as zero.
std::uint64_t peek64(std::span<const std::uint8_t> data, std::uint64_t pos) {
  const auto byte = static_cast<std::size_t>(pos >> 3);
  const auto phase = static_cast<unsigned>(pos & 7);
  std::uint64_t w = 0;
  if (byte + 8 <= data.size()) {
    w = load_be64(data.data() + byte);
  } else {
    for (std::size_t i = 0; i < 8; ++i) {
      w = (w << 8) | (byte + i < data.size() ? data[byte + i] : 0);
    }
  }
  w <<= phase;
  if (byte + 8 < data.size()) w |= data[byte + 8] >> (8 - phase);
  return w;
}

}  // namespace

void FastDecoder::decode_into(std::span<const std::uint8_t> data,
                              std::uint64_t start_bit,
                              std::span<std::uint8_t> out) const {
  decode_lanes<1>(data, {start_bit}, {out});
}

void FastDecoder::decode4_into(
    std::span<const std::uint8_t> data,
    const std::array<std::uint64_t, kLanes>& start_bits,
    const std::array<std::span<std::uint8_t>, kLanes>& outs) const {
  decode_lanes<kLanes>(data, start_bits, outs);
}

template <std::size_t N>
void FastDecoder::decode_lanes(
    std::span<const std::uint8_t> data,
    const std::array<std::uint64_t, N>& start_bits,
    const std::array<std::span<std::uint8_t>, N>& out) const {
  // Lane state lives in locals whose address never escapes (decode_long
  // takes pos by value) and every per-lane loop is unrolled, so the
  // compiler can keep it in registers.
  std::array<std::uint64_t, N> pos = start_bits;
  std::size_t n = out[0].size();
  std::array<std::uint8_t*, N> dst;
#pragma GCC unroll 4
  for (std::size_t j = 0; j < N; ++j) {
    n = std::min(n, out[j].size());
    dst[j] = out[j].data();
  }
  const std::uint8_t* const bytes = data.data();
  const Entry* const table = table_.data();
  const unsigned shift = 64u - window_;
  const std::size_t per_load = per_load_;
  // A group makes per_load symbols per lane from one load; a code past the
  // window reloads after its walk. No code is longer than kMaxCodeBits = 58
  // bits, so every load of a group that starts at byte b ends by byte
  // b + slack.
  const std::size_t slack = 8 * (per_load + 1);
  const auto fits = [&pos, slack, size = data.size()] {
    bool ok = true;
#pragma GCC unroll 4
    for (std::size_t j = 0; j < N; ++j) ok &= (pos[j] >> 3) + slack <= size;
    return ok;
  };

  std::size_t i = 0;
  while (n - i >= per_load && fits()) {
    std::array<std::uint64_t, N> bits;
#pragma GCC unroll 4
    for (std::size_t j = 0; j < N; ++j) {
      bits[j] = load_be64(bytes + (pos[j] >> 3)) << (pos[j] & 7);
    }
    for (const std::size_t end = i + per_load; i < end; ++i) {
#pragma GCC unroll 4
      for (std::size_t j = 0; j < N; ++j) {
        Entry e = table[bits[j] >> shift];
        if (e.length == 0) [[unlikely]] {
          e = decode_long(data, pos[j]);
          pos[j] += e.length;
          bits[j] = load_be64(bytes + (pos[j] >> 3)) << (pos[j] & 7);
        } else {
          pos[j] += e.length;
          bits[j] <<= e.length;
        }
        dst[j][i] = e.symbol;
      }
    }
  }

  if constexpr (N > 1) {
    // Each lane finishes alone: its own fast loop, then the checked tail.
    for (std::size_t j = 0; j < N; ++j) {
      decode_lanes<1>(data, {pos[j]}, {out[j].subspan(i)});
    }
  } else {
    const std::uint64_t total_bits = static_cast<std::uint64_t>(data.size()) * 8;
    std::uint64_t p = pos[0];
    for (; i < n; ++i) {
      if (p >= total_bits) {
        throw std::runtime_error("FastDecoder: past end of data");
      }
      Entry e = table[peek64(data, p) >> shift];
      if (e.length == 0) {
        e = decode_long(data, p);
      } else if (p + e.length > total_bits) {
        throw std::runtime_error("FastDecoder: truncated code at end");
      }
      dst[0][i] = e.symbol;
      p += e.length;
    }
  }
}

FastDecoder::Entry FastDecoder::decode_long(std::span<const std::uint8_t> data,
                                            std::uint64_t pos) const {
  // No code of length ≤ window matched, so the walk resumes at window+1.
  const std::uint64_t left = static_cast<std::uint64_t>(data.size()) * 8 - pos;
  const std::uint64_t bits = peek64(data, pos);
  for (unsigned len = window_ + 1u; len <= max_len_; ++len) {
    if (len > left) {
      throw std::runtime_error("FastDecoder: truncated code at end");
    }
    const std::uint64_t code = bits >> (64 - len);
    const std::uint64_t first = first_code_[len];
    if (code >= first && code - first < count_[len]) {
      return {symbols_[first_index_[len] + static_cast<std::uint32_t>(code - first)],
              static_cast<std::uint8_t>(len)};
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
