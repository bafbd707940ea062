// The per-thread RequestContext: ThreadPool::ParallelFor carries the
// submitter's whole context — governor envelope, internal flag, open span —
// onto every participant, and only for that call.

#include <unistd.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "common/fault.h"
#include "common/request_context.h"
#include "common/thread_pool.h"
#include "governor/governor.h"
#include "obs/trace.h"
#include "gtest/gtest.h"

namespace dvms {
namespace {

// The obs registry is process-global: start from a clean, enabled registry
// and leave tracing off for the next test.
class RequestContextTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::ResetForTesting();
    obs::SetEnabled(true);
  }
  void TearDown() override {
    obs::SetEnabled(false);
    obs::ResetForTesting();
  }
};

/// What every morsel of one ParallelFor saw of its request context.
struct MorselLog {
  std::atomic<int> injected{0};
  std::atomic<int> cancelled{0};
  std::atomic<int> saw_query{0};
  std::atomic<int> off_submitter{0};
  std::mutex mu;
  std::set<uint64_t> span_parents;  // CurrentRequest().span at morsel start
};

constexpr size_t kMorsels = 64;

void RunMorsels(ThreadPool& pool, const QueryContext* query, MorselLog* log) {
  const std::thread::id submitter = std::this_thread::get_id();
  pool.ParallelFor(kMorsels, 1, 0, [&](const MorselRange&) {
    if (fault::ShouldInject(FaultSite::kThreadPoolTask)) ++log->injected;
    if (governor::CheckPoint().code() == StatusCode::kCancelled) {
      ++log->cancelled;
    }
    if (CurrentRequest().query == query) ++log->saw_query;
    if (std::this_thread::get_id() != submitter) ++log->off_submitter;
    {
      std::lock_guard<std::mutex> lock(log->mu);
      log->span_parents.insert(CurrentRequest().span);
    }
    obs::Span span("morsel");
    usleep(500);  // long enough that the workers take their segments
  });
}

/// Parents of the "morsel" spans recorded so far.
std::set<uint64_t> MorselSpanParents() {
  std::set<uint64_t> parents;
  for (const obs::SpanRow& row : obs::SnapshotSpans()) {
    if (row.name == "morsel") parents.insert(row.parent);
  }
  return parents;
}

TEST_F(RequestContextTest, ParallelForCarriesWholeContext) {
  FaultConfig config;
  config.seed = 5;
  config.rate = 1.0;
  ScopedFaultInjector scoped(config);
  ThreadPool pool(4);
  QueryContext cancelled;
  cancelled.ShareCancelFlag(std::make_shared<std::atomic<bool>>(true));

  uint64_t submit_span = 0;
  MorselLog governed;  // envelope + span: every CheckPoint aborts
  MorselLog internal;  // + internal: faults and checks are skipped
  {
    obs::Span submit("submit");
    submit_span = CurrentRequest().span;
    ASSERT_NE(submit_span, 0u);
    GovernorRequestScope scope(&cancelled);
    RunMorsels(pool, &cancelled, &governed);
    InternalScope internal_scope;
    RunMorsels(pool, &cancelled, &internal);
  }
  EXPECT_GT(governed.off_submitter.load() + internal.off_submitter.load(), 0)
      << "no morsel ran on a pool worker";

  EXPECT_EQ(governed.cancelled.load(), static_cast<int>(kMorsels))
      << "a worker ran outside the submitter's governor envelope";
  EXPECT_EQ(governed.saw_query.load(), static_cast<int>(kMorsels));
  EXPECT_EQ(governed.injected.load(), static_cast<int>(kMorsels));
  EXPECT_EQ(internal.injected.load(), 0)
      << "a worker ignored the submitter's internal flag";
  EXPECT_EQ(internal.cancelled.load(), 0);
  EXPECT_EQ(internal.saw_query.load(), static_cast<int>(kMorsels));
  EXPECT_EQ(governed.span_parents, std::set<uint64_t>{submit_span});
  EXPECT_EQ(internal.span_parents, std::set<uint64_t>{submit_span});
  EXPECT_EQ(MorselSpanParents(), std::set<uint64_t>{submit_span})
      << "a morsel span is not a child of the submitting span";

  // Once the scopes close, the next ParallelFor carries none of it.
  obs::ResetForTesting();
  MorselLog after;
  RunMorsels(pool, nullptr, &after);
  EXPECT_EQ(after.injected.load(), static_cast<int>(kMorsels));
  EXPECT_EQ(after.cancelled.load(), 0);
  EXPECT_EQ(after.saw_query.load(), static_cast<int>(kMorsels));
  EXPECT_EQ(after.span_parents, std::set<uint64_t>{0});
  EXPECT_EQ(MorselSpanParents(), std::set<uint64_t>{0});
}

}  // namespace
}  // namespace dvms
