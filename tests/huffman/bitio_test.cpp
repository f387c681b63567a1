#include "huffman/bitio.h"

#include <gtest/gtest.h>

#include "workload/rng.h"

namespace {

using huff::BitReader;
using huff::BitWriter;

TEST(BitWriter, MsbFirstWithinByte) {
  BitWriter w;
  w.put(0b1, 1);
  w.put(0b0, 1);
  w.put(0b1, 1);
  EXPECT_EQ(w.bit_size(), 3u);
  const auto bytes = w.take();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b10100000);
}

TEST(BitWriter, MultiBitPutUsesLowBits) {
  BitWriter w;
  w.put(0b101101, 6);
  const auto bytes = w.take();
  EXPECT_EQ(bytes[0], 0b10110100);
}

TEST(BitWriter, ZeroBitsIsNoop) {
  BitWriter w;
  w.put(0xFFFF, 0);
  EXPECT_EQ(w.bit_size(), 0u);
  EXPECT_TRUE(w.take().empty());
}

TEST(BitWriter, RejectsOver64Bits) {
  BitWriter w;
  EXPECT_THROW(w.put(0, 65), std::invalid_argument);
}

TEST(BitWriter, TakeResetsState) {
  BitWriter w;
  w.put(0xAB, 8);
  (void)w.take();
  EXPECT_EQ(w.bit_size(), 0u);
  w.put(0x1, 1);
  EXPECT_EQ(w.take()[0], 0b10000000);
}

TEST(BitReader, ReadsBackWriterOutput) {
  BitWriter w;
  w.put(0b110, 3);
  w.put(0b01, 2);
  const auto bytes = w.take();
  BitReader r(bytes);
  EXPECT_EQ(r.get_bit(), 1u);
  EXPECT_EQ(r.get_bit(), 1u);
  EXPECT_EQ(r.get_bit(), 0u);
  EXPECT_EQ(r.get(2), 0b01u);
}

TEST(BitReader, SeekRepositions) {
  BitWriter w;
  w.put(0b10110011, 8);
  const auto bytes = w.take();
  BitReader r(bytes);
  r.seek(4);
  EXPECT_EQ(r.get(4), 0b0011u);
  r.seek(0);
  EXPECT_EQ(r.get(2), 0b10u);
}

TEST(BitReader, ThrowsPastEnd) {
  const std::vector<std::uint8_t> bytes = {0xFF};
  BitReader r(bytes);
  r.get(8);
  EXPECT_TRUE(r.exhausted());
  EXPECT_THROW(r.get_bit(), std::out_of_range);
}

class BitIoRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitIoRoundTrip, RandomChunksRoundTrip) {
  wl::Rng rng(GetParam());
  BitWriter w;
  std::vector<std::pair<std::uint64_t, std::uint8_t>> chunks;
  for (int i = 0; i < 500; ++i) {
    const auto nbits = static_cast<std::uint8_t>(1 + rng.below(63));
    const std::uint64_t value =
        nbits == 64 ? rng.next() : (rng.next() & ((1ULL << nbits) - 1));
    chunks.emplace_back(value, nbits);
    w.put(value, nbits);
  }
  const auto bytes = w.take();
  BitReader r(bytes);
  for (const auto& [value, nbits] : chunks) {
    EXPECT_EQ(r.get(nbits), value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitIoRoundTrip,
                         ::testing::Values(3, 7, 31, 127, 8191));

}  // namespace
