/**
 * @file
 * Separable allocator tests: structural invariants (one grant per
 * resource and per requester), mask respect, fairness under contention.
 * Both allocators are driven through the mask entry points the router
 * calls.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "router/allocator.hpp"

using dvsnet::PortId;
using dvsnet::VcId;
using dvsnet::router::PortSet;
using dvsnet::router::SeparableSwitchAllocator;
using dvsnet::router::SeparableVcAllocator;
using dvsnet::router::SwitchGrant;
using dvsnet::router::VcRequest;

namespace
{

/** Free-VC masks with every VC of every port free. */
std::vector<std::uint32_t>
allFree(PortId numPorts, std::int32_t numVcs)
{
    return std::vector<std::uint32_t>(static_cast<std::size_t>(numPorts),
                                      (1u << numVcs) - 1);
}

/**
 * Switch-allocator inputs in the router's form: per-port requesting-VC
 * masks, the requested output port per (port, vc), and the set of
 * requesting ports.
 */
class SwitchInputs
{
  public:
    SwitchInputs(PortId numPorts, std::int32_t numVcs)
        : numVcs_(numVcs), vcReqMasks_(static_cast<std::size_t>(numPorts)),
          outPorts_(static_cast<std::size_t>(numPorts) *
                        static_cast<std::size_t>(numVcs),
                    dvsnet::kInvalidId)
    {}

    /** Input VC (in, vc) requests output `out`; one request per VC. */
    SwitchInputs &
    request(PortId in, VcId vc, PortId out)
    {
        auto &mask = vcReqMasks_[static_cast<std::size_t>(in)];
        EXPECT_EQ(mask & (1u << vc), 0u) << "duplicate (port, vc)";
        mask |= 1u << vc;
        outPorts_[static_cast<std::size_t>(in * numVcs_ + vc)] = out;
        reqPorts_.set(in);
        return *this;
    }

    PortId
    outPortOf(PortId in, VcId vc) const
    {
        return outPorts_[static_cast<std::size_t>(in * numVcs_ + vc)];
    }

    bool
    requested(PortId in, VcId vc) const
    {
        return reqPorts_.test(in) &&
               (vcReqMasks_[static_cast<std::size_t>(in)] & (1u << vc));
    }

    const std::vector<SwitchGrant> &
    allocate(SeparableSwitchAllocator &sa) const
    {
        return sa.allocateMasks(vcReqMasks_, outPorts_, reqPorts_);
    }

  private:
    std::int32_t numVcs_;
    std::vector<std::uint32_t> vcReqMasks_;
    std::vector<PortId> outPorts_;
    PortSet reqPorts_;
};

} // namespace

TEST(VcAllocator, EmptyRequestsEmptyGrants)
{
    SeparableVcAllocator va(5, 2, 10);
    EXPECT_TRUE(va.allocate({}, allFree(5, 2)).empty());
}

TEST(VcAllocator, SingleRequestGranted)
{
    SeparableVcAllocator va(5, 2, 10);
    const auto grants = va.allocate({{3, 2, 0b11}}, allFree(5, 2));
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].requester, 3);
    EXPECT_EQ(grants[0].outPort, 2);
    EXPECT_TRUE(grants[0].outVc == 0 || grants[0].outVc == 1);
}

TEST(VcAllocator, RespectsVcMask)
{
    SeparableVcAllocator va(5, 2, 10);
    const auto grants = va.allocate({{0, 1, 0b10}}, allFree(5, 2));
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].outVc, 1);
}

TEST(VcAllocator, RespectsBusyVcs)
{
    SeparableVcAllocator va(5, 2, 10);
    const std::vector<std::uint32_t> onlyVc1Free(5, 0b10);
    const auto grants = va.allocate({{0, 0, 0b11}}, onlyVc1Free);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].outVc, 1);
}

TEST(VcAllocator, NoGrantWhenAllBusy)
{
    SeparableVcAllocator va(5, 2, 10);
    const std::vector<std::uint32_t> noneFree(5, 0);
    EXPECT_TRUE(va.allocate({{0, 0, 0b11}}, noneFree).empty());
}

TEST(VcAllocator, AtMostOneGrantPerRequester)
{
    SeparableVcAllocator va(2, 2, 4);
    // One requester wanting both VCs of port 0: must get exactly one.
    const auto grants = va.allocate({{1, 0, 0b11}}, allFree(2, 2));
    EXPECT_EQ(grants.size(), 1u);
}

TEST(VcAllocator, AtMostOneGrantPerResource)
{
    SeparableVcAllocator va(2, 2, 4);
    // Three requesters all wanting port 1: grants must hold distinct VCs.
    const auto grants = va.allocate(
        {{0, 1, 0b11}, {1, 1, 0b11}, {2, 1, 0b11}}, allFree(2, 2));
    EXPECT_EQ(grants.size(), 2u);  // only 2 VCs exist on the port
    std::set<VcId> vcs;
    for (const auto &g : grants)
        vcs.insert(g.outVc);
    EXPECT_EQ(vcs.size(), grants.size());
}

TEST(VcAllocator, DisjointPortsAllGranted)
{
    SeparableVcAllocator va(4, 2, 8);
    const auto grants = va.allocate(
        {{0, 0, 0b01}, {1, 1, 0b01}, {2, 2, 0b01}, {3, 3, 0b01}},
        allFree(4, 2));
    EXPECT_EQ(grants.size(), 4u);
}

TEST(VcAllocator, ContendersEventuallyAllServed)
{
    SeparableVcAllocator va(1, 1, 3);
    std::set<int> winners;
    for (int round = 0; round < 3; ++round) {
        const auto grants = va.allocate(
            {{0, 0, 0b1}, {1, 0, 0b1}, {2, 0, 0b1}}, allFree(1, 1));
        ASSERT_EQ(grants.size(), 1u);
        winners.insert(grants[0].requester);
    }
    EXPECT_EQ(winners.size(), 3u);  // round-robin over three rounds
}

TEST(SwitchAllocator, EmptyRequestsEmptyGrants)
{
    SeparableSwitchAllocator sa(5, 2);
    EXPECT_TRUE(SwitchInputs(5, 2).allocate(sa).empty());
}

TEST(SwitchAllocator, SingleRequestGranted)
{
    SeparableSwitchAllocator sa(5, 2);
    const auto grants = SwitchInputs(5, 2).request(1, 0, 4).allocate(sa);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].inPort, 1);
    EXPECT_EQ(grants[0].inVc, 0);
    EXPECT_EQ(grants[0].outPort, 4);
}

TEST(SwitchAllocator, OneGrantPerInputPort)
{
    SeparableSwitchAllocator sa(5, 2);
    // Two VCs of input 0 requesting different outputs: input stage picks
    // one.
    const auto grants =
        SwitchInputs(5, 2).request(0, 0, 1).request(0, 1, 2).allocate(sa);
    EXPECT_EQ(grants.size(), 1u);
}

TEST(SwitchAllocator, OneGrantPerOutputPort)
{
    SeparableSwitchAllocator sa(5, 2);
    // Three inputs contending for output 2.
    const auto grants = SwitchInputs(5, 2)
                            .request(0, 0, 2)
                            .request(1, 0, 2)
                            .request(3, 1, 2)
                            .allocate(sa);
    EXPECT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].outPort, 2);
}

TEST(SwitchAllocator, ParallelTransfersAllGranted)
{
    SeparableSwitchAllocator sa(5, 2);
    const auto grants = SwitchInputs(5, 2)
                            .request(0, 0, 1)
                            .request(1, 0, 2)
                            .request(2, 1, 3)
                            .allocate(sa);
    EXPECT_EQ(grants.size(), 3u);
}

TEST(SwitchAllocator, GrantsAreASubsetOfRequests)
{
    SeparableSwitchAllocator sa(3, 2);
    SwitchInputs in(3, 2);
    in.request(0, 0, 1).request(1, 1, 1).request(2, 0, 0);
    for (const auto &g : in.allocate(sa)) {
        EXPECT_TRUE(in.requested(g.inPort, g.inVc));
        EXPECT_EQ(in.outPortOf(g.inPort, g.inVc), g.outPort);
    }
}

TEST(SwitchAllocator, FairAcrossInputsOverRounds)
{
    SeparableSwitchAllocator sa(3, 1);
    SwitchInputs in(3, 1);
    in.request(0, 0, 2).request(1, 0, 2).request(2, 0, 2);
    std::vector<int> wins(3, 0);
    for (int round = 0; round < 300; ++round) {
        const auto grants = in.allocate(sa);
        ASSERT_EQ(grants.size(), 1u);
        ++wins[static_cast<std::size_t>(grants[0].inPort)];
    }
    for (int w : wins)
        EXPECT_EQ(w, 100);
}

TEST(SwitchAllocator, VcFairnessWithinInputPort)
{
    SeparableSwitchAllocator sa(2, 2);
    SwitchInputs in(2, 2);
    in.request(0, 0, 1).request(0, 1, 1);
    std::vector<int> wins(2, 0);
    for (int round = 0; round < 100; ++round) {
        const auto grants = in.allocate(sa);
        ASSERT_EQ(grants.size(), 1u);
        ++wins[static_cast<std::size_t>(grants[0].inVc)];
    }
    EXPECT_EQ(wins[0], 50);
    EXPECT_EQ(wins[1], 50);
}
