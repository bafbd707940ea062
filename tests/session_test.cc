// Session-layer coverage: independent per-session governor envelopes
// (cancelling or deadlining one session never aborts another), pinned
// epoch + reader-slot release on Close (leak-checked against the exact
// GovernorStats accounting), per-session event-stream cursors, the
// reader/writer admission split (read-only Query/EXPLAIN/system-relation
// scans no longer consume DVMS_MAX_INFLIGHT mutation slots), and the
// headline acceptance check: concurrent session reads complete without a
// single engine write-mutex acquisition, witnessed by the synthetic
// engine.write_lock counter row of dvms_metrics.

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dvms.h"
#include "core/session.h"
#include "governor/governor.h"
#include "gtest/gtest.h"

namespace dvms {
namespace {

constexpr const char* kReadQuery = "SELECT id, v FROM T ORDER BY id, v";

std::string Fingerprint(const Table& table) {
  std::ostringstream out;
  for (const Row& row : table.rows()) {
    for (const Value& v : row) out << v.ToString() << '|';
    out << '\n';
  }
  return out.str();
}

std::unique_ptr<Dvms> MakeEngine(Dvms::Options options = Dvms::Options()) {
  options.canvas_width = 100;
  options.canvas_height = 100;
  auto engine = std::make_unique<Dvms>(options);
  Schema schema({{"id", ValueType::kInt64}, {"v", ValueType::kDouble}});
  EXPECT_TRUE(engine->CreateBaseTable("T", schema).ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 256; ++i) {
    rows.push_back({Value::Int(i), Value::Double((i * 37) % 101)});
  }
  EXPECT_TRUE(engine->Insert("T", std::move(rows)).ok());
  return engine;
}

/// Step-controlled fake clock (governor_test idiom).
struct FakeClock {
  std::shared_ptr<std::atomic<int64_t>> now =
      std::make_shared<std::atomic<int64_t>>(0);
  std::shared_ptr<std::atomic<int64_t>> step =
      std::make_shared<std::atomic<int64_t>>(0);
  QueryContext::Clock fn() const {
    auto n = now;
    auto s = step;
    return [n, s] { return n->fetch_add(s->load()); };
  }
};

TEST(SessionTest, CancellingOneSessionDoesNotAbortAnother) {
  auto engine = MakeEngine();
  Session a(engine.get());
  Session b(engine.get());

  a.RequestCancel();
  auto cancelled = a.Query(kReadQuery);
  ASSERT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  // B's private cancel flag was never raised.
  auto fine = b.Query(kReadQuery);
  ASSERT_TRUE(fine.ok());
  // One cancel aborts one query: A recovers on its next read.
  auto recovered = a.Query(kReadQuery);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(Fingerprint(recovered.value()), Fingerprint(fine.value()));

  Dvms::GovernorStats stats = engine->governor_stats();
  EXPECT_EQ(stats.cancel_aborts, 1u);
  EXPECT_EQ(stats.readers_admitted, 3);
}

TEST(SessionTest, SessionDeadlinesAreIndependent) {
  FakeClock clock;
  Dvms::Options options;
  options.governor_clock = clock.fn();  // engine deadline stays disabled
  auto engine = MakeEngine(options);

  Session::Options tight;
  tight.deadline_ms = 50;
  Session a(engine.get(), tight);
  Session b(engine.get());  // inherits the engine's no-deadline config

  clock.step->store(20'000);  // 20 ms per governor clock read
  auto aborted = a.Query(kReadQuery);
  auto fine = b.Query(kReadQuery);
  clock.step->store(0);
  EXPECT_EQ(aborted.status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(fine.ok());
  EXPECT_EQ(engine->governor_stats().deadline_aborts, 1u);
}

TEST(SessionTest, CloseReleasesPinnedEpochAndReaderSlot) {
  Dvms::Options options;
  options.max_readers = 1;  // a leaked slot would wedge every later read
  auto engine = MakeEngine(options);
  {
    Session session(engine.get());
    ASSERT_TRUE(session.Pin().ok());
    ASSERT_TRUE(session.Query(kReadQuery).ok());
    EXPECT_EQ(engine->governor_stats().pinned_snapshots, 1);
    session.Close();
    EXPECT_EQ(engine->governor_stats().pinned_snapshots, 0);
    EXPECT_TRUE(session.closed());
    EXPECT_FALSE(session.Query(kReadQuery).ok());
  }
  // The single reader slot was returned: sequential sessions all admit.
  for (int i = 0; i < 3; ++i) {
    Session next(engine.get());
    EXPECT_TRUE(next.Query(kReadQuery).ok()) << "session " << i;
  }
  Dvms::GovernorStats stats = engine->governor_stats();
  EXPECT_EQ(stats.readers_admitted, 4);
  EXPECT_EQ(stats.readers_rejected, 0);
  EXPECT_EQ(stats.pinned_snapshots, 0);
}

TEST(SessionTest, DestructorReleasesPin) {
  auto engine = MakeEngine();
  {
    Session session(engine.get());
    ASSERT_TRUE(session.Pin().ok());
    EXPECT_EQ(engine->governor_stats().pinned_snapshots, 1);
  }
  EXPECT_EQ(engine->governor_stats().pinned_snapshots, 0);
}

TEST(SessionTest, ReadOnlyRequestsDoNotConsumeMutationSlots) {
  Dvms::Options options;
  options.max_inflight = 1;
  auto engine = MakeEngine(options);
  Dvms::GovernorStats before = engine->governor_stats();

  // Read-only engine entry points — a SELECT, an EXPLAIN, and a
  // system-relation scan — draw reader slots, never mutation slots.
  ASSERT_TRUE(engine->Query(kReadQuery).ok());
  ASSERT_TRUE(engine->Query("EXPLAIN SELECT id FROM T").ok());
  ASSERT_TRUE(engine->Query("SELECT * FROM dvms_governor").ok());
  Dvms::GovernorStats after = engine->governor_stats();
  EXPECT_EQ(after.admitted, before.admitted);
  EXPECT_EQ(after.readers_admitted, before.readers_admitted + 3);

  // A mutation draws exactly one mutation slot and no reader slot.
  ASSERT_TRUE(engine->Insert("T", {{Value::Int(999), Value::Double(1)}})
                  .ok());
  Dvms::GovernorStats final_stats = engine->governor_stats();
  EXPECT_EQ(final_stats.admitted, after.admitted + 1);
  EXPECT_EQ(final_stats.readers_admitted, after.readers_admitted);
}

TEST(SessionTest, GovernorRelationExposesReaderAndSnapshotRows) {
  Dvms::Options options;
  options.max_readers = 8;
  auto engine = MakeEngine(options);
  Session session(engine.get());
  ASSERT_TRUE(session.Pin().ok());
  auto result = session.Query(
      "SELECT name, value FROM dvms_governor "
      "WHERE name = 'max_readers' OR name = 'readers_in_flight' "
      "OR name = 'readers_admitted' OR name = 'readers_rejected' "
      "OR name = 'snapshot_epoch' OR name = 'pinned_snapshots' "
      "ORDER BY name");
  ASSERT_TRUE(result.ok());
  const Table& t = result.value();
  ASSERT_EQ(t.num_rows(), 6u);
  auto value_of = [&](const std::string& key) -> int64_t {
    for (size_t r = 0; r < t.num_rows(); ++r) {
      if (t.At(r, "name").value().string_value() == key) {
        return t.At(r, "value").value().int_value();
      }
    }
    return -1;
  };
  EXPECT_EQ(value_of("max_readers"), 8);
  EXPECT_EQ(value_of("readers_in_flight"), 1);  // this very query
  EXPECT_EQ(value_of("readers_admitted"), 1);
  EXPECT_EQ(value_of("readers_rejected"), 0);
  EXPECT_EQ(value_of("pinned_snapshots"), 1);
  EXPECT_EQ(value_of("snapshot_epoch"),
            static_cast<int64_t>(engine->published_epoch()));

  // `x IN dvms_governor` resolves the relation like FROM does, on both
  // read entry points.
  session.Unpin();
  ASSERT_TRUE(engine
                  ->CreateBaseTable("Names",
                                    Schema({{"name", ValueType::kString}}))
                  .ok());
  ASSERT_TRUE(engine
                  ->Insert("Names", {{Value::String("max_readers")},
                                     {Value::String("not_a_governor_row")}})
                  .ok());
  constexpr const char* kInSql =
      "SELECT name FROM Names WHERE name IN dvms_governor";
  for (Result<Table> in : {engine->Query(kInSql), session.Query(kInSql)}) {
    ASSERT_TRUE(in.ok()) << in.status().message();
    ASSERT_EQ(in.value().num_rows(), 1u);
    EXPECT_EQ(in.value().At(0, "name").value().string_value(), "max_readers");
  }
}

TEST(SessionTest, ConcurrentSessionReadsNeverTakeTheWriteMutex) {
  auto engine = MakeEngine();
  auto write_locks = [&]() -> int64_t {
    Session probe(engine.get());
    auto result = probe.Query(
        "SELECT count FROM dvms_metrics WHERE name = 'engine.write_lock'");
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.value().num_rows(), 1u);
    return result.value().At(0, "count").value().int_value();
  };

  const int64_t before = write_locks();
  EXPECT_GT(before, 0);  // setup mutations did lock
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&engine] {
      Session session(engine.get());
      for (int i = 0; i < 25; ++i) {
        auto result = session.Query(kReadQuery);
        EXPECT_TRUE(result.ok());
        EXPECT_EQ(result.value().num_rows(), 256u);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // 50 concurrent reads later the lock-acquisition counter has not moved.
  EXPECT_EQ(write_locks(), before);
  // Dvms::Query runs through the same snapshot read.
  for (int i = 0; i < 5; ++i) {
    auto result = engine->Query(kReadQuery);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().num_rows(), 256u);
  }
  EXPECT_EQ(write_locks(), before);
  EXPECT_EQ(engine->governor_stats().pinned_snapshots, 0);
}

TEST(SessionTest, PollEventsCursorsArePerSession) {
  auto engine = MakeEngine();
  Session a(engine.get());
  Session b(engine.get());

  auto first = a.PollEvents("T");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().num_rows(), 256u);  // full backlog on first poll
  auto drained = a.PollEvents("T");
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained.value().num_rows(), 0u);

  ASSERT_TRUE(
      engine->Insert("T", {{Value::Int(300), Value::Double(1)},
                           {Value::Int(301), Value::Double(2)}})
          .ok());
  auto delta = a.PollEvents("T");
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta.value().num_rows(), 2u);
  // B's cursor is independent: it still sees the whole stream.
  auto b_all = b.PollEvents("T");
  ASSERT_TRUE(b_all.ok());
  EXPECT_EQ(b_all.value().num_rows(), 258u);
}

TEST(SessionTest, PinnedPollDoesNotSeeNewCommits) {
  auto engine = MakeEngine();
  Session session(engine.get());
  ASSERT_TRUE(session.Pin().ok());
  ASSERT_TRUE(session.PollEvents("T").ok());  // drain the backlog
  ASSERT_TRUE(
      engine->Insert("T", {{Value::Int(300), Value::Double(1)}}).ok());
  auto pinned_delta = session.PollEvents("T");
  ASSERT_TRUE(pinned_delta.ok());
  EXPECT_EQ(pinned_delta.value().num_rows(), 0u);  // epoch is frozen
  session.Unpin();
  auto live_delta = session.PollEvents("T");
  ASSERT_TRUE(live_delta.ok());
  EXPECT_EQ(live_delta.value().num_rows(), 1u);
}

}  // namespace
}  // namespace dvms
