// IngestQueue contract tests: FIFO determinism, blocking back-pressure,
// the close/drain and cancel protocols, and multi-producer delivery. The
// threaded tests run in the tsan leg of the CI matrix (tools/ci_matrix.sh,
// "ingest" leg) where the lock discipline is checked under contention, not
// just here under luck. A queue that wrongly refuses a push must fail these
// tests, not hang them: producers stop on a refusal but still close the
// queue, and assertions that return wait until every thread is joined.
#include "util/ingest_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "util/obs/metrics.h"

namespace seg::util {
namespace {

using Batch = std::vector<int>;

Batch make_batch(int first, int count) {
  Batch batch(static_cast<std::size_t>(count));
  std::iota(batch.begin(), batch.end(), first);
  return batch;
}

TEST(IngestQueueTest, SingleProducerPopsInPushOrder) {
  IngestQueue<Batch> queue;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(queue.push(make_batch(i * 100, 3)));
  }
  queue.close();
  int expected_first = 0;
  std::size_t popped = 0;
  while (auto batch = queue.pop()) {
    EXPECT_EQ(*batch, make_batch(expected_first, 3));
    expected_first += 100;
    ++popped;
  }
  EXPECT_EQ(popped, 10u);
  const auto stats = queue.stats();
  EXPECT_EQ(stats.pushed_batches, 10u);
  EXPECT_EQ(stats.pushed_records, 30u);
  EXPECT_EQ(stats.popped_batches, 10u);
  EXPECT_EQ(stats.depth, 0u);
  EXPECT_LE(stats.max_depth, 10u);
  EXPECT_GE(stats.max_depth, 1u);
}

TEST(IngestQueueTest, ZeroCapacityClampsToOne) {
  IngestQueue<Batch> queue(0);
  EXPECT_EQ(queue.capacity(), 1u);
}

TEST(IngestQueueTest, PushAfterCloseIsRefused) {
  IngestQueue<Batch> queue;
  EXPECT_TRUE(queue.push(make_batch(0, 1)));
  queue.close();
  EXPECT_FALSE(queue.push(make_batch(1, 1)));
  // The pre-close batch still drains.
  auto batch = queue.pop();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(*batch, make_batch(0, 1));
  EXPECT_FALSE(queue.pop().has_value());
  EXPECT_EQ(queue.stats().pushed_batches, 1u);
}

TEST(IngestQueueTest, BlockingPushWaitsForSpaceAndLosesNothing) {
  IngestQueue<Batch> queue(2);
  constexpr int kBatches = 50;

  std::thread producer([&] {
    for (int i = 0; i < kBatches; ++i) {
      const bool accepted = queue.push(make_batch(i, 2));
      EXPECT_TRUE(accepted) << "push " << i << " refused";
      if (!accepted) {
        break;
      }
    }
    queue.close();
  });

  // Give the producer a head start so it actually hits the capacity wall;
  // correctness does not depend on the race going one way, only the
  // blocked_pushes expectation below needs the wall to be hit, which a
  // capacity of 2 against 50 batches guarantees regardless of timing.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  int expected = 0;
  while (auto batch = queue.pop()) {
    EXPECT_EQ(*batch, make_batch(expected, 2));
    ++expected;
  }
  producer.join();
  EXPECT_EQ(expected, kBatches);

  const auto stats = queue.stats();
  EXPECT_EQ(stats.pushed_batches, static_cast<std::uint64_t>(kBatches));
  EXPECT_EQ(stats.pushed_records, static_cast<std::uint64_t>(kBatches) * 2);
  EXPECT_EQ(stats.popped_batches, static_cast<std::uint64_t>(kBatches));
  EXPECT_GT(stats.blocked_pushes, 0u);
  EXPECT_LE(stats.max_depth, 2u);
}

TEST(IngestQueueTest, CancelWakesBlockedProducerWithFalse) {
  IngestQueue<Batch> queue(1);
  ASSERT_TRUE(queue.push(make_batch(0, 1)));  // fill to capacity

  std::atomic<bool> push_returned{false};
  std::atomic<bool> push_result{true};
  std::thread producer([&] {
    push_result.store(queue.push(make_batch(1, 1)));
    push_returned.store(true);
  });

  // The producer is (or is about to be) blocked on a full queue; cancel()
  // must wake it promptly with a refusal.
  while (queue.stats().blocked_pushes == 0 && !push_returned.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  queue.cancel();
  producer.join();
  EXPECT_TRUE(push_returned.load());
  EXPECT_FALSE(push_result.load());

  // cancel() discarded the queued batch: the consumer sees a closed, empty
  // queue, and later pushes are refused outright.
  EXPECT_FALSE(queue.pop().has_value());
  EXPECT_FALSE(queue.push(make_batch(2, 1)));
  EXPECT_EQ(queue.stats().depth, 0u);
}

TEST(IngestQueueTest, MultiProducerDeliversEveryBatchOnceInPerProducerOrder) {
  constexpr int kProducers = 4;
  constexpr int kBatchesPerProducer = 100;
  IngestQueue<Batch> queue(4);  // small, so producers contend and block

  std::atomic<int> open_producers{kProducers};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &open_producers, p] {
      for (int i = 0; i < kBatchesPerProducer; ++i) {
        // Batch payload encodes (producer, sequence) so the consumer can
        // check per-producer FIFO without any cross-thread bookkeeping.
        const bool accepted = queue.push(Batch{p, i});
        EXPECT_TRUE(accepted) << "producer " << p << " push " << i << " refused";
        if (!accepted) {
          break;
        }
      }
      if (open_producers.fetch_sub(1) == 1) {
        queue.close();  // last producer out closes the stream
      }
    });
  }

  // Drain first, check after the join: an ASSERT that returned while the
  // producers were still joinable would end the process in std::terminate.
  std::vector<Batch> received;
  while (auto batch = queue.pop()) {
    received.push_back(std::move(*batch));
  }
  for (auto& thread : producers) {
    thread.join();
  }

  std::vector<int> next_sequence(kProducers, 0);
  for (const Batch& batch : received) {
    ASSERT_EQ(batch.size(), 2u);
    const int producer = batch[0];
    const int sequence = batch[1];
    ASSERT_GE(producer, 0);
    ASSERT_LT(producer, kProducers);
    EXPECT_EQ(sequence, next_sequence[static_cast<std::size_t>(producer)])
        << "producer " << producer << " batches reordered";
    ++next_sequence[static_cast<std::size_t>(producer)];
  }
  const std::size_t total = received.size();
  EXPECT_EQ(total, static_cast<std::size_t>(kProducers) * kBatchesPerProducer);
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_sequence[static_cast<std::size_t>(p)], kBatchesPerProducer);
  }
  const auto stats = queue.stats();
  EXPECT_EQ(stats.pushed_batches, total);
  EXPECT_EQ(stats.popped_batches, total);
  EXPECT_LE(stats.max_depth, 4u);
}

TEST(IngestQueueTest, NamedQueueMirrorsCountersIntoObsRegistry) {
  obs::Registry::instance().reset();
  IngestQueue<Batch> queue(1, "test_ingest_queue");
  EXPECT_TRUE(queue.push(make_batch(0, 3)));
  // The second push finds the queue full and blocks until the pop below.
  std::atomic<bool> push_returned{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.push(make_batch(10, 2)));
    push_returned.store(true);
  });
  while (queue.stats().blocked_pushes == 0 && !push_returned.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  queue.pop();
  producer.join();
  queue.close();  // so the drain below returns even if the push was refused
  queue.pop();

  auto& registry = obs::Registry::instance();
  EXPECT_EQ(registry.counter("test_ingest_queue_pushed_batches_total").value(), 2u);
  EXPECT_EQ(registry.counter("test_ingest_queue_pushed_records_total").value(), 5u);
  EXPECT_EQ(registry.counter("test_ingest_queue_blocked_pushes_total").value(), 1u);
  EXPECT_EQ(registry.gauge("test_ingest_queue_depth").value(), 0.0);
  EXPECT_EQ(registry.gauge("test_ingest_queue_max_depth").value(), 1.0);
  obs::Registry::instance().reset();
}

}  // namespace
}  // namespace seg::util
