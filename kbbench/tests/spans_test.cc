#include <gtest/gtest.h>

#include <thread>

#include "layer_drive.h"
#include "spans.h"

namespace kbbench {
namespace {

TEST(TracerTest, RecordsNestingAndExplicitParents) {
  Tracer tracer(true);
  int outer_id = -1;
  {
    Tracer::Scope outer(&tracer, "outer");
    outer_id = outer.id();
    { Tracer::Scope inner(&tracer, "inner"); }
    std::thread worker([&] { Tracer::Scope task(&tracer, "task", outer_id); });
    worker.join();
  }
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  for (const Span& span : spans) {
    EXPECT_LE(span.start_s, span.end_s);
    if (span.name == "outer") {
      EXPECT_EQ(span.parent, -1);
    } else {
      EXPECT_EQ(span.parent, outer_id) << span.name;
    }
  }
}

TEST(TracerTest, DisabledTracerRecordsNothingButTimes) {
  Tracer tracer(false);
  Tracer::Scope scope(&tracer, "x");
  EXPECT_EQ(scope.id(), -1);
  EXPECT_GE(scope.Elapsed(), 0.0);
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(BlockPairsTest, CountsDistinctPairsSharingABlock) {
  // Rows 0-2 share block 0; rows 2 and 3 share block 1; row 0 is also in
  // block 1. Pairs: (0,1) (0,2) (1,2) (2,3) (0,3) -> 5, each counted once.
  EXPECT_EQ(CountBlockPairs({{0, 1}, {0}, {0, 1}, {1}}), 5u);
  EXPECT_EQ(CountBlockPairs({{0}, {1}, {2}}), 0u);
}

}  // namespace
}  // namespace kbbench
