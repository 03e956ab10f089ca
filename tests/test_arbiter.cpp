/**
 * @file
 * Round-robin arbiter tests: grant validity, rotation fairness, and
 * agreement between the single-word and multi-word mask overloads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "common/bitmask.hpp"
#include "router/arbiter.hpp"

using dvsnet::BitMask;
using dvsnet::router::RoundRobinArbiter;

namespace
{

std::uint64_t
reqs(std::initializer_list<int> setBits)
{
    std::uint64_t r = 0;
    for (int b : setBits)
        r |= std::uint64_t{1} << b;
    return r;
}

} // namespace

TEST(RoundRobinArbiter, NoRequestsNoGrant)
{
    RoundRobinArbiter arb(4);
    EXPECT_EQ(arb.arbitrateMask(reqs({})), -1);
}

TEST(RoundRobinArbiter, SingleRequestWins)
{
    RoundRobinArbiter arb(4);
    EXPECT_EQ(arb.arbitrateMask(reqs({2})), 2);
}

TEST(RoundRobinArbiter, GrantIsAlwaysARequester)
{
    RoundRobinArbiter arb(5);
    for (int round = 0; round < 20; ++round) {
        const std::uint64_t r = reqs({round % 5, (round * 3) % 5});
        const int g = arb.arbitrateMask(r);
        ASSERT_GE(g, 0);
        EXPECT_NE(r & (std::uint64_t{1} << g), 0u);
    }
}

TEST(RoundRobinArbiter, RotatesAmongContenders)
{
    RoundRobinArbiter arb(3);
    const std::uint64_t all = reqs({0, 1, 2});
    std::vector<int> grants;
    for (int i = 0; i < 6; ++i)
        grants.push_back(arb.arbitrateMask(all));
    // Fair rotation: each requester wins exactly twice in six rounds.
    for (int who = 0; who < 3; ++who)
        EXPECT_EQ(std::count(grants.begin(), grants.end(), who), 2);
    // And never the same winner twice in a row.
    for (std::size_t i = 1; i < grants.size(); ++i)
        EXPECT_NE(grants[i], grants[i - 1]);
}

TEST(RoundRobinArbiter, SkipsNonRequesters)
{
    RoundRobinArbiter arb(4);
    EXPECT_EQ(arb.arbitrateMask(reqs({0})), 0);
    // Pointer now at 1; 1 and 2 silent, 3 requesting.
    EXPECT_EQ(arb.arbitrateMask(reqs({3})), 3);
    // Pointer wraps to 0.
    EXPECT_EQ(arb.arbitrateMask(reqs({0, 3})), 0);
}

TEST(RoundRobinArbiter, LongTermFairnessUnderFullLoad)
{
    RoundRobinArbiter arb(8);
    const std::uint64_t all = reqs({0, 1, 2, 3, 4, 5, 6, 7});
    std::vector<int> wins(8, 0);
    for (int i = 0; i < 800; ++i)
        ++wins[static_cast<std::size_t>(arb.arbitrateMask(all))];
    for (int w : wins)
        EXPECT_EQ(w, 100);
}

TEST(RoundRobinArbiter, WordAndMultiWordOverloadsAgree)
{
    // Two arbiters fed the same request stream, one through the
    // uint64_t overload and one through a two-word BitMask: winners
    // match every round, so their rotation state evolves identically.
    for (const int n : {1, 5, 13, 63, 64}) {
        SCOPED_TRACE(::testing::Message() << "n=" << n);
        RoundRobinArbiter word(n);
        RoundRobinArbiter wide(n);
        std::mt19937_64 rng(0x5EED + static_cast<unsigned>(n));
        const std::uint64_t valid =
            n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
        for (int round = 0; round < 2000; ++round) {
            // Sparse, dense and empty request sets.
            std::uint64_t r = rng() & valid;
            if (round % 3 == 0)
                r &= rng();
            if (round % 17 == 0)
                r = 0;
            BitMask<128> mask;
            for (int b = 0; b < n; ++b)
                if ((r >> b) & 1u)
                    mask.set(b);
            ASSERT_EQ(word.arbitrateMask(r), wide.arbitrateMask(mask))
                << "round=" << round;
        }
    }
}
