// Multiple independent pipelines sharing one runtime and executor: epochs,
// wait buffers and rollbacks must stay fully isolated per pipeline — the
// property that makes the SRE a *runtime*, not a single-program harness.
#include <gtest/gtest.h>

#include "huffman/stream_format.h"
#include "io/block_source.h"
#include "pipeline/driver.h"
#include "pipeline/huffman_pipeline.h"
#include "sim/sim_executor.h"
#include "sre/threaded_executor.h"
#include "workload/corpus.h"

namespace {

sio::BlockSource make_src(wl::FileKind kind, std::size_t kib,
                          std::uint64_t seed) {
  return sio::BlockSource(wl::make_corpus(kind, kib * 1024, seed), 4096,
                          std::make_shared<sio::DiskArrival>());
}

void verify(pipeline::HuffmanPipeline& pl, const sio::BlockSource& src) {
  pl.validate_complete();
  const auto out = pl.assemble_output();
  const auto decoded = huff::decompress_buffer(out);
  ASSERT_EQ(decoded.size(), src.total_bytes());
  EXPECT_TRUE(std::equal(decoded.begin(), decoded.end(), src.bytes().begin()));
}

TEST(MultiPipeline, ThreeStreamsShareOneSimulatedMachine) {
  // TXT commits cleanly, BMP and PDF roll back — all three interleave on
  // the same 16 CPUs under one balanced scheduler.
  auto cfg_txt = pipeline::RunConfig::x86_disk(wl::FileKind::Txt,
                                               sre::DispatchPolicy::Balanced);
  auto cfg_bmp = cfg_txt;
  cfg_bmp.file = wl::FileKind::Bmp;
  auto cfg_pdf = cfg_txt;
  cfg_pdf.file = wl::FileKind::Pdf;

  const auto src_txt = make_src(wl::FileKind::Txt, 1024, 1);
  const auto src_bmp = make_src(wl::FileKind::Bmp, 2048, 2);
  const auto src_pdf = make_src(wl::FileKind::Pdf, 2048, 3);

  sre::Runtime rt(sre::DispatchPolicy::Balanced);
  sim::SimExecutor ex(rt, sim::PlatformConfig::x86(16));
  pipeline::HuffmanPipeline pl_txt(rt, src_txt, cfg_txt);
  pipeline::HuffmanPipeline pl_bmp(rt, src_bmp, cfg_bmp);
  pipeline::HuffmanPipeline pl_pdf(rt, src_pdf, cfg_pdf);

  const auto feed = [&ex](const sio::BlockSource& src,
                          pipeline::HuffmanPipeline& pl) {
    src.for_each_arrival([&ex, &pl](std::size_t i, sio::Micros at) {
      ex.schedule_arrival(at, [&pl, i](sim::Micros now) {
        pl.on_block_arrival(i, now);
      });
    });
  };
  feed(src_txt, pl_txt);
  feed(src_bmp, pl_bmp);
  feed(src_pdf, pl_pdf);
  ex.run();

  verify(pl_txt, src_txt);
  verify(pl_bmp, src_bmp);
  verify(pl_pdf, src_pdf);

  // The BMP/PDF rollbacks must not have touched the TXT pipeline.
  EXPECT_EQ(pl_txt.rollbacks(), 0u);
  EXPECT_GE(pl_bmp.rollbacks() + pl_pdf.rollbacks(), 1u);
  EXPECT_TRUE(pl_txt.speculation_committed());
  EXPECT_TRUE(rt.quiescent());
}

TEST(MultiPipeline, SharedMachineMatchesIsolatedOutputs) {
  // Byte-identical artifacts whether a stream runs alone or with neighbors:
  // scheduling interleave may differ; committed content must not (both
  // commit from the same final check in these no-rollback configurations).
  auto cfg = pipeline::RunConfig::x86_disk(wl::FileKind::Txt,
                                           sre::DispatchPolicy::NonSpeculative);
  cfg.bytes = 512 * 1024;
  const auto isolated = pipeline::run_sim(cfg);

  const auto src_a = make_src(wl::FileKind::Txt, 512, 42);
  const auto src_b = make_src(wl::FileKind::Pdf, 512, 7);
  sre::Runtime rt(sre::DispatchPolicy::NonSpeculative);
  sim::SimExecutor ex(rt, sim::PlatformConfig::x86(16));
  pipeline::HuffmanPipeline pl_a(rt, src_a, cfg);
  auto cfg_b = cfg;
  cfg_b.file = wl::FileKind::Pdf;
  pipeline::HuffmanPipeline pl_b(rt, src_b, cfg_b);
  src_a.for_each_arrival([&](std::size_t i, sio::Micros at) {
    ex.schedule_arrival(at, [&pl_a, i](sim::Micros now) {
      pl_a.on_block_arrival(i, now);
    });
  });
  src_b.for_each_arrival([&](std::size_t i, sio::Micros at) {
    ex.schedule_arrival(at, [&pl_b, i](sim::Micros now) {
      pl_b.on_block_arrival(i, now);
    });
  });
  ex.run();
  pl_a.validate_complete();
  EXPECT_EQ(pl_a.assemble_output(), isolated.container);
}

TEST(MultiPipeline, TwoStreamsOnRealThreads) {
  auto cfg = pipeline::RunConfig::x86_disk(wl::FileKind::Txt,
                                           sre::DispatchPolicy::Balanced);
  const auto src_a = make_src(wl::FileKind::Txt, 256, 5);
  const auto src_b = make_src(wl::FileKind::Bmp, 256, 6);
  sre::Runtime rt(sre::DispatchPolicy::Balanced);
  sre::ThreadedExecutor::Options ex_opts;
  ex_opts.workers = 8;
  ex_opts.arrival_time_scale = 0.05;
  sre::ThreadedExecutor ex(rt, ex_opts);
  pipeline::HuffmanPipeline pl_a(rt, src_a, cfg);
  auto cfg_b = cfg;
  cfg_b.file = wl::FileKind::Bmp;
  pipeline::HuffmanPipeline pl_b(rt, src_b, cfg_b);
  src_a.for_each_arrival([&](std::size_t i, sio::Micros at) {
    ex.schedule_arrival(at, [&pl_a, i](std::uint64_t now) {
      pl_a.on_block_arrival(i, now);
    });
  });
  src_b.for_each_arrival([&](std::size_t i, sio::Micros at) {
    ex.schedule_arrival(at, [&pl_b, i](std::uint64_t now) {
      pl_b.on_block_arrival(i, now);
    });
  });
  ex.run();
  verify(pl_a, src_a);
  verify(pl_b, src_b);
}

}  // namespace
