#include "sim/event_queue.h"

#include <gtest/gtest.h>

namespace {

using sim::EventQueue;
using sim::Micros;

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&order](Micros) { order.push_back(3); });
  q.schedule(10, [&order](Micros) { order.push_back(1); });
  q.schedule(20, [&order](Micros) { order.push_back(2); });
  while (q.run_one()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, EqualTimesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i](Micros) { order.push_back(i); });
  }
  while (q.run_one()) {
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, ActionsMayScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule(1, [&](Micros now) {
    ++fired;
    q.schedule(now + 1, [&](Micros) { ++fired; });
  });
  while (q.run_one()) {
  }
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 2u);
}

TEST(EventQueue, SchedulingIntoThePastThrows) {
  EventQueue q;
  q.schedule(10, [](Micros) {});
  ASSERT_TRUE(q.run_one());
  EXPECT_THROW(q.schedule(5, [](Micros) {}), std::logic_error);
  q.schedule(10, [](Micros) {});  // "now" is allowed
}

TEST(EventQueue, NextTimeAndEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_THROW((void)q.next_time(), std::logic_error);
  q.schedule(7, [](Micros) {});
  EXPECT_EQ(q.next_time(), 7u);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
}

TEST(EventQueue, RunOneOnEmptyReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.run_one());
}

}  // namespace
