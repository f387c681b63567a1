#include "huffman/stream_format.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include <sys/mman.h>
#include <unistd.h>

#include "huffman/encoder.h"
#include "huffman/fast_decoder.h"
#include "huffman/offsets.h"
#include "sre/runtime.h"
#include "sre/threaded_executor.h"

namespace huff {
namespace {

constexpr char kMagic[4] = {'T', 'V', 'S', 'H'};
constexpr std::uint16_t kVersion = 3;

/// Blocks one decode task covers. A container of at most this many
/// blocks decodes inline on the caller's thread; above it, executor
/// start-up is small next to the work, and per-block tasks would cost more
/// in dispatch than 64-block runs do.
constexpr std::size_t kBlocksPerTask = 64;

/// Container bytes before the index: magic through the code lengths.
constexpr std::size_t kFixedHeaderBytes = 4 + 2 + 8 + 4 + 4 + kSymbols;

/// Container bytes before the payload: the fixed header, `n_blocks` index
/// entries, and payload_bits.
constexpr std::size_t header_bytes(std::size_t n_blocks) {
  return kFixedHeaderBytes + n_blocks * 8 + 8;
}

/// `bits` rounded up to a whole byte, in bytes.
constexpr std::uint64_t whole_bytes(std::uint64_t bits) {
  return (bits + 7) / 8;
}

/// A transparent huge page on x86-64 and arm64 with 4 KiB base pages.
constexpr std::uintptr_t kHugePage = std::uintptr_t{2} << 20;

/// `n` zero bytes for a big output (a decode, a container). The storage is
/// reserved first and, when its page-aligned interior spans a whole 2 MiB
/// page, advised MADV_HUGEPAGE before resize() first touches it, so the fill
/// faults in 2 MiB pages rather than 4 KiB ones. Without THP (`never`, or a
/// kernel without it) the advice does nothing and the fill runs as before.
std::vector<std::uint8_t> zeroed_output(std::size_t n) {
  std::vector<std::uint8_t> out;
  out.reserve(n);
#if defined(MADV_HUGEPAGE)
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<std::uintptr_t>(out.data());
  const std::uintptr_t lo = (begin + page - 1) & ~(page - 1);
  const std::uintptr_t hi = (begin + n) & ~(page - 1);
  if (((lo + kHugePage - 1) & ~(kHugePage - 1)) + kHugePage <= hi) {
    ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
  }
#endif
  out.resize(n);
  return out;
}

/// Writes the `n` low bytes of `v` little-endian over the bytes at `at`.
void store_le(std::uint8_t* at, std::uint64_t v, std::size_t n = 8) {
  for (std::size_t i = 0; i < n; ++i) {
    at[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}
void put_le(std::vector<std::uint8_t>& out, std::uint64_t v, std::size_t n) {
  out.resize(out.size() + n);
  store_le(out.data() + out.size() - n, v, n);
}
/// The little-endian value of at most 8 `bytes`.
std::uint64_t load_le(std::span<const std::uint8_t> bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = bytes.size(); i-- > 0;) v = (v << 8) | bytes[i];
  return v;
}

class Parser {
 public:
  explicit Parser(std::span<const std::uint8_t> data) : data_(data) {}

  /// The next `n` bytes as a little-endian value.
  std::uint64_t le(std::size_t n) { return load_le(take(n)); }
  std::span<const std::uint8_t> take(std::uint64_t n) {
    if (n > data_.size() - pos_) {
      throw std::runtime_error("CompressedStream: truncated input");
    }
    auto out = data_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return out;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// A parsed container: every header field, and the payload as a view into
/// the input (`header.payload` stays empty).
struct Parsed {
  CompressedStream header;
  std::span<const std::uint8_t> payload;
};

/// The header checks a block-parallel decoder relies on: with them, every
/// block's output range lies inside original_bytes and together the ranges
/// cover it, and every index entry is a byte boundary inside the payload.
void check_header(const CompressedStream& s) {
  if (s.block_size == 0 && s.n_blocks > 0) {
    throw std::runtime_error("CompressedStream: zero block size");
  }
  const std::uint64_t blocks_needed =
      s.block_size == 0
          ? (s.original_bytes == 0 ? 0 : ~std::uint64_t{0})
          : s.original_bytes / s.block_size +
                (s.original_bytes % s.block_size != 0 ? 1 : 0);
  if (s.n_blocks != blocks_needed) {
    throw std::runtime_error(
        "CompressedStream: block count does not match original size");
  }
  const bool codes_nothing = std::all_of(
      s.lengths.begin(), s.lengths.end(), [](std::uint8_t l) { return l == 0; });
  if (!kraft_valid(s.lengths) || (s.original_bytes > 0 && codes_nothing)) {
    throw std::runtime_error("CompressedStream: invalid code lengths");
  }
  // Every code is at least one bit long.
  if (s.original_bytes > s.payload_bits) {
    throw std::runtime_error("CompressedStream: more bytes than payload bits");
  }
  for (std::size_t i = 0; i < s.block_offsets.size(); ++i) {
    if (s.block_offsets[i] % 8 != 0 || s.block_offsets[i] > s.payload_bits ||
        (i > 0 && s.block_offsets[i] < s.block_offsets[i - 1])) {
      throw std::runtime_error("CompressedStream: bad block index");
    }
  }
}

/// Parses and validates a container without copying its payload.
Parsed parse(std::span<const std::uint8_t> data) {
  Parser p(data);
  auto magic = p.take(4);
  if (std::memcmp(magic.data(), kMagic, 4) != 0) {
    throw std::runtime_error("CompressedStream: bad magic");
  }
  const auto version = static_cast<std::uint16_t>(p.le(2));
  if (version != kVersion) {
    throw std::runtime_error("CompressedStream: unsupported version " +
                             std::to_string(version));
  }
  Parsed out;
  CompressedStream& s = out.header;
  s.original_bytes = p.le(8);
  s.n_blocks = static_cast<std::uint32_t>(p.le(4));
  s.block_size = static_cast<std::uint32_t>(p.le(4));
  auto lens = p.take(kSymbols);
  std::copy(lens.begin(), lens.end(), s.lengths.begin());
  // Taken whole first, so a hostile block count cannot drive the reserve
  // below past the input's size.
  Parser index(p.take(std::uint64_t{s.n_blocks} * 8));
  s.block_offsets.reserve(s.n_blocks);
  for (std::uint32_t i = 0; i < s.n_blocks; ++i) {
    s.block_offsets.push_back(index.le(8));
  }
  s.payload_bits = p.le(8);
  check_header(s);
  out.payload = p.take(whole_bytes(s.payload_bits));
  return out;
}

/// The one decode core: a validated header's payload into `out`, which
/// holds exactly original_bytes (see decompress_into).
void decode_payload(const CompressedStream& s,
                    std::span<const std::uint8_t> payload,
                    std::span<std::uint8_t> out) {
  if (s.original_bytes == 0) return;
  const FastDecoder decoder(s.table());
  const auto block_out = [&](std::size_t i) {
    return out.subspan(i * s.block_size, s.block_bytes(i));
  };
  // Blocks [first, first + kBlocksPerTask), each into its own output range,
  // kLanes at a time through the interleaved loop.
  const auto decode_run = [&](std::size_t first) {
    constexpr std::size_t kLanes = FastDecoder::kLanes;
    const std::size_t last =
        std::min<std::size_t>(first + kBlocksPerTask, s.n_blocks);
    std::size_t i = first;
    for (; last - i >= kLanes; i += kLanes) {
      std::array<std::uint64_t, kLanes> starts;
      std::array<std::span<std::uint8_t>, kLanes> outs;
      for (std::size_t j = 0; j < kLanes; ++j) {
        starts[j] = s.block_offsets[i + j];
        outs[j] = block_out(i + j);
      }
      decoder.decode4_into(payload, starts, outs);
    }
    for (; i < last; ++i) {
      decoder.decode_into(payload, s.block_offsets[i], block_out(i));
    }
  };
  const std::size_t n_tasks =
      (std::size_t{s.n_blocks} + kBlocksPerTask - 1) / kBlocksPerTask;
  if (n_tasks == 1) {
    decode_run(0);
    return;
  }
  // A plain task graph: no dependencies, no speculation. run() joins every
  // worker before it returns or rethrows a task's error, so the captures
  // outlive every task body.
  sre::Runtime runtime(sre::DispatchPolicy::NonSpeculative);
  const unsigned workers = static_cast<unsigned>(std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, n_tasks));
  sre::ThreadedExecutor executor(runtime, {.workers = workers});
  for (std::size_t t = 0; t < n_tasks; ++t) {
    runtime.submit(runtime.make_task(
        "decode", sre::TaskClass::Natural, sre::kNaturalEpoch, 1, 0,
        [&decode_run, t](sre::TaskContext&) {
          decode_run(t * kBlocksPerTask);
        }));
  }
  executor.run();
}

/// Appends the fixed header.
void put_header(std::vector<std::uint8_t>& out, std::uint64_t original_bytes,
                std::uint32_t n_blocks, std::uint32_t block_size,
                const CodeLengths& lengths) {
  out.insert(out.end(), kMagic, kMagic + 4);
  put_le(out, kVersion, 2);
  put_le(out, original_bytes, 8);
  put_le(out, n_blocks, 4);
  put_le(out, block_size, 4);
  out.insert(out.end(), lengths.begin(), lengths.end());
}

}  // namespace

std::size_t CompressedStream::serialized_size() const {
  return header_bytes(block_offsets.size()) + payload.size();
}

std::size_t CompressedStream::block_bytes(std::size_t i) const {
  if (i >= n_blocks) {
    throw std::out_of_range("CompressedStream: block index out of range");
  }
  const std::uint64_t begin = static_cast<std::uint64_t>(i) * block_size;
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(block_size, original_bytes - begin));
}

ContainerWriter::ContainerWriter(std::uint64_t original_bytes,
                                 std::uint32_t n_blocks,
                                 std::uint32_t block_size,
                                 const CodeLengths& lengths,
                                 std::uint64_t coded_bits)
    : bit_counts_(n_blocks),
      coded_bits_(coded_bits),
      bound_bits_(coded_bits +
                  (n_blocks == 0 ? 0 : 7 * (std::uint64_t{n_blocks} - 1))),
      payload_at_(header_bytes(n_blocks)) {
  out_ = zeroed_output(payload_at_ +
                       static_cast<std::size_t>(whole_bytes(bound_bits_)));
  std::vector<std::uint8_t> head;
  put_header(head, original_bytes, n_blocks, block_size, lengths);
  std::copy(head.begin(), head.end(), out_.begin());
}

void ContainerWriter::place(std::size_t i, std::uint64_t offset,
                            const EncodedBlock& block) {
  if (offset % 8 != 0) {
    throw std::invalid_argument(
        "ContainerWriter::place: offset is not a byte boundary");
  }
  if (i >= bit_counts_.size()) {
    throw std::out_of_range("ContainerWriter::place: block index out of range");
  }
  if (offset > bound_bits_ || block.bit_count > bound_bits_ - offset ||
      whole_bytes(block.bit_count) > block.bits.size()) {
    throw std::out_of_range("ContainerWriter::place: block past the payload");
  }
  store_le(&out_[kFixedHeaderBytes + i * 8], offset);
  std::memcpy(&out_[payload_at_ + offset / 8], block.bits.data(),
              static_cast<std::size_t>(whole_bytes(block.bit_count)));
  bit_counts_[i] = block.bit_count;
  if (i + 1 == bit_counts_.size()) payload_bits_ = offset + block.bit_count;
}

std::vector<std::uint8_t> ContainerWriter::take() {
  // One module owns the layout, so it checks it: the blocks hold the
  // committed table's coded size, and each starts on the byte after the
  // blocks before it.
  std::uint64_t coded = 0;
  std::uint64_t start = 0;
  for (std::size_t i = 0; i < bit_counts_.size(); ++i) {
    if (load_le(std::span(out_).subspan(kFixedHeaderBytes + i * 8, 8)) !=
        start) {
      throw std::logic_error("ContainerWriter: block " + std::to_string(i) +
                             " is not where the blocks before it end");
    }
    coded += bit_counts_[i];
    start += whole_bytes(bit_counts_[i]) * 8;
  }
  if (coded != coded_bits_) {
    throw std::logic_error("ContainerWriter: blocks hold " +
                           std::to_string(coded) + " bits, the table codes " +
                           std::to_string(coded_bits_));
  }
  store_le(&out_[payload_at_ - 8], payload_bits_);
  // Only the size shrinks: the at most 7 bits of slack per block stay as
  // capacity rather than cost a copy of the container.
  out_.resize(payload_at_ +
              static_cast<std::size_t>(whole_bytes(payload_bits_)));
  return std::move(out_);
}

std::vector<std::uint8_t> serialize(const CompressedStream& s) {
  if (s.block_offsets.size() != s.n_blocks) {
    throw std::invalid_argument("serialize: index size != block count");
  }
  std::vector<std::uint8_t> out;
  out.reserve(s.serialized_size());
  put_header(out, s.original_bytes, s.n_blocks, s.block_size, s.lengths);
  for (std::uint64_t off : s.block_offsets) put_le(out, off, 8);
  put_le(out, s.payload_bits, 8);
  out.insert(out.end(), s.payload.begin(), s.payload.end());
  return out;
}

CompressedStream deserialize(std::span<const std::uint8_t> data) {
  Parsed p = parse(data);
  p.header.payload.assign(p.payload.begin(), p.payload.end());
  return std::move(p.header);
}

CompressedStream read_header(std::span<const std::uint8_t> container) {
  return parse(container).header;
}

std::vector<std::uint8_t> compress_buffer(std::span<const std::uint8_t> data,
                                          std::uint32_t block_size) {
  if (block_size == 0) {
    throw std::invalid_argument("compress_buffer: block_size == 0");
  }
  const std::size_t n_blocks = (data.size() + block_size - 1) / block_size;
  std::vector<Histogram> hists(n_blocks);
  std::vector<std::span<const std::uint8_t>> blocks(n_blocks);
  for (std::size_t i = 0; i < n_blocks; ++i) {
    const std::size_t begin = i * block_size;
    const std::size_t len = std::min<std::size_t>(block_size, data.size() - begin);
    blocks[i] = data.subspan(begin, len);
    hists[i] = Histogram::of(blocks[i]);
  }

  const Histogram global = Histogram::merged(hists);
  const CodeTable table = CodeTable::from_histogram(global);
  const auto offsets = all_offsets(hists, table);
  ContainerWriter writer(data.size(), static_cast<std::uint32_t>(n_blocks),
                         block_size, table.lengths(),
                         table.encoded_bits(global));
  // Every block is encoded into one buffer: the largest block's bytes (a
  // block's size is the gap to the next offset) plus a word of slack, so
  // the packer's word loop runs to each block's end.
  std::uint64_t max_bits = n_blocks == 0 ? 0 : table.encoded_bits(hists.back());
  for (std::size_t i = 0; i + 1 < n_blocks; ++i) {
    max_bits = std::max(max_bits, offsets[i + 1] - offsets[i]);
  }
  std::vector<std::uint8_t> scratch(whole_bytes(max_bits) + 8);
  for (std::size_t i = 0; i < n_blocks; ++i) {
    writer.place(i, offsets[i],
                 encode_block_into(blocks[i], table, scratch, nullptr));
  }
  return writer.take();
}

void decompress_into(std::span<const std::uint8_t> container,
                     std::span<std::uint8_t> out) {
  const Parsed p = parse(container);
  if (out.size() != p.header.original_bytes) {
    throw std::invalid_argument(
        "decompress_into: output size != the container's original bytes");
  }
  decode_payload(p.header, p.payload, out);
}

std::vector<std::uint8_t> decompress_buffer(
    std::span<const std::uint8_t> container) {
  const Parsed p = parse(container);
  auto out = zeroed_output(static_cast<std::size_t>(p.header.original_bytes));
  decode_payload(p.header, p.payload, out);
  return out;
}

void write_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_file: cannot open " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("write_file: write failed for " + path);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("read_file: cannot open " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(out.data()), size);
  if (!in) throw std::runtime_error("read_file: read failed for " + path);
  return out;
}

}  // namespace huff
