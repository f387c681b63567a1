// The tvsc command line end to end: the built binary (TVSC_PATH) runs as a
// child process on files in a per-process temp directory. Covers the
// c → t → d round trip, what a failed `tvsc d` leaves on disk, and a
// `tvsc d` into a path that is not a regular file.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "huffman/stream_format.h"
#include "support/temp_dir.h"
#include "workload/corpus.h"

namespace {

/// Runs tvsc with `args` (each single-quoted) and returns its exit status,
/// or -1 if it did not exit normally.
int tvsc(const std::vector<std::string>& args) {
  std::string cmd = std::string("'") + TVSC_PATH + "'";
  for (const auto& a : args) cmd += " '" + a + "'";
  cmd += " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// The names in `dir`.
std::set<std::string> listing(const std::filesystem::path& dir) {
  std::set<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    names.insert(e.path().filename().string());
  }
  return names;
}

void expect_round_trip(const std::vector<std::uint8_t>& data) {
  const test_support::TempDir dir("tvs_cli_test");
  const auto in = dir.file("in");
  const auto packed = dir.file("in.tvsh");
  const auto back = dir.file("back");
  huff::write_file(in, data);
  ASSERT_EQ(tvsc({"c", in, packed}), 0);
  EXPECT_EQ(tvsc({"t", packed}), 0);
  ASSERT_EQ(tvsc({"d", packed, back}), 0);
  EXPECT_EQ(huff::read_file(back), data);
  EXPECT_EQ(listing(dir.path()),
            (std::set<std::string>{"in", "in.tvsh", "back"}));
}

TEST(TvscCli, RoundTripsATextFile) {
  expect_round_trip(wl::make_corpus(wl::FileKind::Txt, 3 << 20, 17));
}

TEST(TvscCli, RoundTripsAnEmptyFile) { expect_round_trip({}); }

/// A `tvsc d` of `container` must fail, and leave the directory as it was:
/// no output and no temporary file, and an existing output unchanged.
void expect_failed_decompress(const std::vector<std::uint8_t>& container) {
  const test_support::TempDir dir("tvs_cli_test");
  const auto packed = dir.file("bad.tvsh");
  huff::write_file(packed, container);
  EXPECT_NE(tvsc({"t", packed}), 0);
  EXPECT_NE(tvsc({"d", packed, dir.file("out")}), 0);
  EXPECT_EQ(listing(dir.path()), std::set<std::string>{"bad.tvsh"});

  const std::vector<std::uint8_t> kept{'k', 'e', 'e', 'p'};
  huff::write_file(dir.file("out"), kept);
  EXPECT_NE(tvsc({"d", packed, dir.file("out")}), 0);
  EXPECT_EQ(huff::read_file(dir.file("out")), kept);
  EXPECT_EQ(listing(dir.path()), (std::set<std::string>{"bad.tvsh", "out"}));
}

std::vector<std::uint8_t> good_data() {
  return wl::make_corpus(wl::FileKind::Txt, 1 << 20, 3);
}

std::vector<std::uint8_t> good_container() {
  return huff::compress_buffer(good_data());
}

TEST(TvscCli, DecodesIntoAFifoInPlace) {
  // A FIFO output is written through, not renamed over: the reader gets
  // the bytes, and the path is still a FIFO afterwards.
  const test_support::TempDir dir("tvs_cli_test");
  const auto packed = dir.file("in.tvsh");
  const auto fifo = dir.file("pipe");
  huff::write_file(packed, good_container());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  // The test holds a writer of its own until tvsc has exited, so the
  // reader sees end of file only then, whether or not tvsc opened the FIFO.
  const int rd = ::open(fifo.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(rd, 0);
  const int held = ::open(fifo.c_str(), O_WRONLY);
  ASSERT_GE(held, 0);
  ASSERT_EQ(::fcntl(rd, F_SETFL, 0), 0);
  std::vector<std::uint8_t> drained;
  std::thread reader([&] {
    std::uint8_t buf[1 << 16];
    for (ssize_t n; (n = ::read(rd, buf, sizeof buf)) > 0;) {
      drained.insert(drained.end(), buf, buf + n);
    }
  });
  const int rc = tvsc({"d", packed, fifo});
  ::close(held);
  reader.join();
  ::close(rd);
  EXPECT_EQ(rc, 0);
  struct stat st {};
  ASSERT_EQ(::lstat(fifo.c_str(), &st), 0);
  EXPECT_TRUE(S_ISFIFO(st.st_mode));
  EXPECT_EQ(drained, good_data());
  EXPECT_EQ(listing(dir.path()), (std::set<std::string>{"in.tvsh", "pipe"}));
}

TEST(TvscCli, TruncatedContainerLeavesNoOutput) {
  auto container = good_container();
  container.resize(container.size() / 2);
  expect_failed_decompress(container);
}

TEST(TvscCli, FlippedHeaderByteLeavesNoOutput) {
  auto container = good_container();
  container[0] ^= 0xFF;  // the magic
  expect_failed_decompress(container);
}

TEST(TvscCli, DecodeErrorLeavesNoOutput) {
  // A consistent header whose last index entry leaves its block one bit:
  // the decode fails after the output file was created and mapped.
  auto s = huff::deserialize(good_container());
  s.block_offsets.back() = s.payload_bits - 1;
  expect_failed_decompress(huff::serialize(s));
}

}  // namespace
