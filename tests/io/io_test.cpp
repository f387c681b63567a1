#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "io/arrival_model.h"
#include "io/block_source.h"

namespace {

using sio::BlockSource;

TEST(DiskArrival, LinearSchedule) {
  const sio::DiskArrival d(10);
  EXPECT_EQ(d.arrival_us(0), 10u);
  EXPECT_EQ(d.arrival_us(9), 100u);
}

TEST(SocketArrival, StrictlyIncreasingDespiteJitter) {
  const sio::SocketArrival s(5500, 900, 12345);
  sio::Micros prev = 0;
  for (std::size_t i = 0; i < 2000; ++i) {
    const sio::Micros t = s.arrival_us(i);
    EXPECT_GT(t, prev) << i;
    prev = t;
  }
}

TEST(SocketArrival, DeterministicPerSeed) {
  const sio::SocketArrival a(5500, 900, 1);
  const sio::SocketArrival b(5500, 900, 1);
  const sio::SocketArrival c(5500, 900, 2);
  bool any_diff = false;
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.arrival_us(i), b.arrival_us(i));
    any_diff |= (a.arrival_us(i) != c.arrival_us(i));
  }
  EXPECT_TRUE(any_diff);
}

TEST(SocketArrival, ZeroJitterIsLinear) {
  const sio::SocketArrival s(100, 0, 7);
  EXPECT_EQ(s.arrival_us(0), 100u);
  EXPECT_EQ(s.arrival_us(4), 500u);
}

TEST(ExplicitArrival, ReplaysSchedule) {
  const sio::ExplicitArrival e({5, 9, 40});
  EXPECT_EQ(e.arrival_us(1), 9u);
  EXPECT_THROW((void)e.arrival_us(3), std::out_of_range);
}

TEST(PoissonArrival, DeterministicPerSeedStrictlyIncreasing) {
  const sio::PoissonArrival a(500.0, 1);
  const sio::PoissonArrival b(500.0, 1);
  const sio::PoissonArrival c(500.0, 2);
  sio::Micros prev = 0;
  bool any_diff = false;
  for (std::size_t i = 0; i < 500; ++i) {
    const sio::Micros t = a.arrival_us(i);
    EXPECT_GT(t, prev) << i;
    prev = t;
    EXPECT_EQ(t, b.arrival_us(i));
    any_diff |= (t != c.arrival_us(i));
  }
  EXPECT_TRUE(any_diff);
}

TEST(PoissonArrival, SampleMeanMatchesConfiguredGap) {
  // The exponential inter-arrival mean must land near mean_gap_us; with
  // n=20000 samples the sample mean of an exponential is within a few
  // percent with overwhelming probability (the sequence is deterministic,
  // so this is not a flaky bound — it pins the generator).
  const double mean_gap = 800.0;
  const std::size_t n = 20'000;
  const sio::PoissonArrival p(mean_gap, 99);
  const double total = static_cast<double>(p.arrival_us(n - 1));
  const double sample_mean = total / static_cast<double>(n);
  EXPECT_NEAR(sample_mean, mean_gap, 0.05 * mean_gap);
}

TEST(PoissonArrival, RandomAccessMatchesSequentialAccess) {
  const sio::PoissonArrival seq(300.0, 7);
  const sio::PoissonArrival rnd(300.0, 7);
  std::vector<sio::Micros> expect;
  for (std::size_t i = 0; i < 50; ++i) expect.push_back(seq.arrival_us(i));
  // Out-of-order first touch must extend the prefix sum identically.
  EXPECT_EQ(rnd.arrival_us(49), expect[49]);
  EXPECT_EQ(rnd.arrival_us(10), expect[10]);
  EXPECT_EQ(rnd.arrival_us(0), expect[0]);
}

TEST(PoissonArrival, BurstsClusterButKeepLongRunRate) {
  const std::size_t burst = 4;
  const sio::PoissonArrival p(250.0, 5, burst, /*intra_burst_gap_us=*/1);
  // Inside a burst the gap is the tiny fixed intra-burst gap.
  for (std::size_t i = 0; i < 40; ++i) {
    const sio::Micros gap = p.arrival_us(i + 1) - p.arrival_us(i);
    if ((i + 1) % burst != 0) {
      EXPECT_EQ(gap, 1u) << i;
    }
  }
  // Long-run rate stays ~1/mean_gap despite the clustering.
  const std::size_t n = 20'000;
  const double sample_mean =
      static_cast<double>(p.arrival_us(n - 1)) / static_cast<double>(n);
  EXPECT_NEAR(sample_mean, 250.0, 0.08 * 250.0);
}

TEST(PoissonArrival, RejectsInvalidParameters) {
  EXPECT_THROW(sio::PoissonArrival(0.0, 1), std::invalid_argument);
  EXPECT_THROW(sio::PoissonArrival(-5.0, 1), std::invalid_argument);
  EXPECT_THROW(sio::PoissonArrival(100.0, 1, /*burst_len=*/0),
               std::invalid_argument);
}

TEST(BlockSource, SplitsIntoBlocks) {
  std::vector<std::uint8_t> data(10000, 7);
  const BlockSource src(std::move(data), 4096,
                        std::make_shared<sio::DiskArrival>());
  EXPECT_EQ(src.n_blocks(), 3u);
  EXPECT_EQ(src.block(0).size(), 4096u);
  EXPECT_EQ(src.block(2).size(), 10000u - 2 * 4096u);
  EXPECT_EQ(src.total_bytes(), 10000u);
  EXPECT_THROW((void)src.block(3), std::out_of_range);
}

TEST(BlockSource, ValidatesInputs) {
  EXPECT_THROW(BlockSource({1, 2}, 0, std::make_shared<sio::DiskArrival>()),
               std::invalid_argument);
  EXPECT_THROW(BlockSource({1, 2}, 4096, nullptr), std::invalid_argument);
}

TEST(BlockSource, EmptyInputIsAValidZeroBlockStream) {
  const BlockSource src(std::vector<std::uint8_t>{}, 4096,
                        std::make_shared<sio::DiskArrival>());
  EXPECT_EQ(src.n_blocks(), 0u);
  EXPECT_EQ(src.total_bytes(), 0u);
  EXPECT_EQ(src.last_arrival_us(), 0u);
  EXPECT_THROW((void)src.block(0), std::out_of_range);
  src.for_each_arrival([](std::size_t, sio::Micros) { FAIL(); });
}

TEST(BlockSource, EmptySpanIsAValidZeroBlockStream) {
  // Zero-length borrowed view (null data pointer): must behave exactly like
  // the empty-vector stream, not touch the pointer.
  const BlockSource src(std::span<const std::uint8_t>{}, 4096,
                        std::make_shared<sio::DiskArrival>());
  EXPECT_EQ(src.n_blocks(), 0u);
  EXPECT_EQ(src.total_bytes(), 0u);
  EXPECT_EQ(src.bytes().size(), 0u);
  EXPECT_THROW((void)src.block(0), std::out_of_range);
  src.for_each_arrival([](std::size_t, sio::Micros) { FAIL(); });
}

TEST(BlockSource, SpanViewIsZeroCopy) {
  std::vector<std::uint8_t> backing(4096 + 100);
  for (std::size_t i = 0; i < backing.size(); ++i) {
    backing[i] = static_cast<std::uint8_t>(i * 7);
  }
  const BlockSource src(std::span<const std::uint8_t>(backing), 4096,
                        std::make_shared<sio::DiskArrival>());
  ASSERT_EQ(src.n_blocks(), 2u);
  // Blocks alias the caller's storage — no copy happened.
  EXPECT_EQ(src.block(0).data(), backing.data());
  EXPECT_EQ(src.block(1).data(), backing.data() + 4096);
  EXPECT_EQ(src.block(1).size(), 100u);  // final partial block is short
  backing[4096] = 0xAB;
  EXPECT_EQ(src.block(1)[0], 0xAB);
  EXPECT_EQ(src.owner(), nullptr);
}

TEST(BlockSource, SpanViewOwnerKeepsStorageAlive) {
  auto backing = std::make_shared<std::vector<std::uint8_t>>(5000, 42);
  const BlockSource src(
      std::span<const std::uint8_t>(backing->data(), backing->size()), 4096,
      std::make_shared<sio::DiskArrival>(), backing);
  const auto* data = backing->data();
  backing.reset();  // source's owner ref keeps the vector alive
  EXPECT_EQ(src.block(0).data(), data);
  EXPECT_EQ(src.block(1).size(), 5000u - 4096u);
  EXPECT_EQ(src.block(1)[0], 42u);
}

TEST(BlockSource, NonBlockAlignedSizes) {
  // One-byte stream: a single one-byte block.
  const BlockSource tiny(std::vector<std::uint8_t>{9}, 4096,
                         std::make_shared<sio::DiskArrival>());
  EXPECT_EQ(tiny.n_blocks(), 1u);
  EXPECT_EQ(tiny.block(0).size(), 1u);
  EXPECT_EQ(tiny.block(0)[0], 9u);

  // Exactly block-aligned: no phantom trailing block.
  const BlockSource exact(std::vector<std::uint8_t>(4096 * 3, 1), 4096,
                          std::make_shared<sio::DiskArrival>());
  EXPECT_EQ(exact.n_blocks(), 3u);
  EXPECT_EQ(exact.block(2).size(), 4096u);
  EXPECT_THROW((void)exact.block(3), std::out_of_range);

  // One byte over a boundary: final block has length 1.
  const BlockSource over(std::vector<std::uint8_t>(4096 + 1, 2), 4096,
                         std::make_shared<sio::DiskArrival>());
  EXPECT_EQ(over.n_blocks(), 2u);
  EXPECT_EQ(over.block(1).size(), 1u);
}

TEST(BlockSource, MapFileServesBlocksFromTheMapping) {
  const std::string path = ::testing::TempDir() + "/block_source_map.bin";
  std::vector<std::uint8_t> data(4096 * 2 + 123);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i % 251);
  }
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  }
  const BlockSource src =
      BlockSource::map_file(path, 4096, std::make_shared<sio::DiskArrival>());
  ASSERT_EQ(src.n_blocks(), 3u);
  EXPECT_EQ(src.total_bytes(), data.size());
  EXPECT_EQ(src.block(2).size(), 123u);  // final partial block
  EXPECT_TRUE(std::equal(src.bytes().begin(), src.bytes().end(),
                         data.begin(), data.end()));
  // Blocks are views into one contiguous mapping, not copies.
  EXPECT_EQ(src.block(1).data(), src.bytes().data() + 4096);
  EXPECT_NE(src.owner(), nullptr);
  std::remove(path.c_str());
}

TEST(BlockSource, MapFileEmptyFileIsZeroBlocks) {
  const std::string path = ::testing::TempDir() + "/block_source_empty.bin";
  { std::ofstream f(path, std::ios::binary | std::ios::trunc); }
  const BlockSource src =
      BlockSource::map_file(path, 4096, std::make_shared<sio::DiskArrival>());
  EXPECT_EQ(src.n_blocks(), 0u);
  EXPECT_EQ(src.total_bytes(), 0u);
  EXPECT_THROW((void)src.block(0), std::out_of_range);
  std::remove(path.c_str());
}

TEST(BlockSource, MapFileMissingFileThrows) {
  EXPECT_THROW(BlockSource::map_file("/nonexistent/definitely_missing.bin",
                                     4096,
                                     std::make_shared<sio::DiskArrival>()),
               std::runtime_error);
}

TEST(BlockSource, MapFileValidatesArguments) {
  EXPECT_THROW(BlockSource::map_file("/dev/null", 0,
                                     std::make_shared<sio::DiskArrival>()),
               std::invalid_argument);
  EXPECT_THROW(BlockSource::map_file("/dev/null", 4096, nullptr),
               std::invalid_argument);
}

TEST(BlockSource, ForEachArrivalVisitsAllInOrder) {
  std::vector<std::uint8_t> data(4096 * 5, 1);
  const BlockSource src(std::move(data), 4096,
                        std::make_shared<sio::DiskArrival>(3));
  std::vector<std::pair<std::size_t, sio::Micros>> seen;
  src.for_each_arrival([&seen](std::size_t i, sio::Micros t) {
    seen.emplace_back(i, t);
  });
  ASSERT_EQ(seen.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(seen[i].first, i);
    EXPECT_EQ(seen[i].second, (i + 1) * 3);
  }
  EXPECT_EQ(src.last_arrival_us(), 15u);
}

TEST(BlockSource, BlockViewsAliasTheData) {
  std::vector<std::uint8_t> data(8192);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  const BlockSource src(std::move(data), 4096,
                        std::make_shared<sio::DiskArrival>());
  EXPECT_EQ(src.block(1)[0], static_cast<std::uint8_t>(4096));
  EXPECT_EQ(src.bytes().size(), 8192u);
}

}  // namespace
