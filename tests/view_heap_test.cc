// Held versus accounted view memory (docs/STORAGE.md, "Byte accounting"):
// after a VBENCH-HIGH session on SHORT-UA-DETRAC, the heap the engine
// frees on ClearReuseState must be within 1.5x of the bytes the view store
// accounts for — each view is held once, as its sealed segments — and the
// eva_view_heap_bytes estimate (ViewStore::HeapBytes) must agree with the
// heap actually freed. Heap use is read with glibc's mallinfo2.

#include <malloc.h>

#include <string>

#include <gtest/gtest.h>

#include "engine/eva_engine.h"
#include "vbench/vbench.h"

namespace eva {
namespace {

// Bytes the allocator currently hands out (all arenas plus mmap chunks).
double HeapInUse() {
  struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

TEST(ViewHeapTest, FreedHeapWithinAccountedBytesAfterVbenchHigh) {
  if (HeapInUse() <= 0) {
    GTEST_SKIP() << "allocator reports no mallinfo2 statistics";
  }
  catalog::VideoInfo video = vbench::ShortUaDetrac();
  engine::EngineOptions options;
  options.optimizer.mode = optimizer::ReuseMode::kEva;
  options.num_threads = 1;
  options.observability = false;  // no registry or trace spans to free
  auto engine_or = vbench::MakeEngine(options, video);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  std::unique_ptr<engine::EvaEngine> engine = engine_or.MoveValue();
  for (const std::string& sql :
       vbench::VbenchHigh(video.name, video.num_frames)) {
    auto r = engine->Execute(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  // The state a save leaves: every segment sealed and charged encoded.
  engine->views().SealAllSegments();
  const double accounted = engine->views().TotalSizeBytes();
  const double estimated = engine->views().HeapBytes();
  ASSERT_GT(accounted, 100e3);  // the session materialized real views

  const double before = HeapInUse();
  engine->ClearReuseState();
  const double freed = before - HeapInUse();

  EXPECT_LE(freed, 1.5 * accounted)
      << "freed " << freed << " B, accounted " << accounted << " B";
  EXPECT_GT(freed, 0.5 * accounted);
  // The gauge's estimate tracks the measured heap.
  EXPECT_GT(estimated, 0.5 * freed);
  EXPECT_LT(estimated, 1.5 * freed);
  EXPECT_EQ(engine->views().HeapBytes(), 0);
}

}  // namespace
}  // namespace eva
