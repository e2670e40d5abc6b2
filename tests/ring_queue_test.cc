/**
 * @file
 * The fixed-capacity ring queue behind the ROB and the decode queue:
 * the wrap-around, indexing and iteration semantics they rely on. Its
 * heap-free steady state is checked in core_reset_test.cc, the one
 * test binary that links the allocation gauge.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "sim/ring_queue.hh"

namespace unxpec {
namespace {

TEST(RingQueueTest, FifoAcrossWrapAround)
{
    RingQueue<int> q(4);
    // Force several wraps: push 3 / pop 2 repeatedly.
    std::vector<int> popped;
    int next = 0;
    for (int round = 0; round < 5; ++round) {
        while (q.size() < 3)
            q.push_back(next++);
        popped.push_back(q.front());
        q.pop_front();
        popped.push_back(q.front());
        q.pop_front();
    }
    while (!q.empty()) {
        popped.push_back(q.front());
        q.pop_front();
    }
    std::vector<int> expect(popped.size());
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(popped, expect);
}

TEST(RingQueueTest, IndexAndIterationMatchInsertionOrder)
{
    RingQueue<int> q(8);
    for (int i = 0; i < 6; ++i)
        q.push_back(10 + i);
    q.pop_front();
    q.pop_front();
    q.push_back(16);
    q.push_back(17); // head_ > 0, content wraps
    ASSERT_EQ(q.size(), 6u);
    for (std::size_t i = 0; i < q.size(); ++i)
        EXPECT_EQ(q[i], 12 + static_cast<int>(i));
    int expect = 12;
    for (const int v : q)
        EXPECT_EQ(v, expect++);
    EXPECT_EQ(q.front(), 12);
    EXPECT_EQ(q.back(), 17);
}

TEST(RingQueueTest, PopBackAndTruncate)
{
    RingQueue<int> q(8);
    for (int i = 0; i < 6; ++i)
        q.push_back(i);
    q.pop_back();
    EXPECT_EQ(q.back(), 4);
    q.truncate(2);
    ASSERT_EQ(q.size(), 2u);
    EXPECT_EQ(q[0], 0);
    EXPECT_EQ(q[1], 1);
    q.clear();
    EXPECT_TRUE(q.empty());
}

} // namespace
} // namespace unxpec
