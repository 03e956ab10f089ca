/**
 * @file
 * Memory bound on a long run: a network's stores hold what the model
 * has live, not a record of how long it has been running.
 *
 * An 8x8 two-level History run is warmed up past its DVS transient
 * (the ladder settles ~110k cycles in at this load, and deeper queues
 * appear as links slow down), then sampled 20k and 80k cycles later.
 * Inboxes, VC rings, channel pending buffers and the event wheel must
 * not grow by more than 10% over those 60k cycles.  An inbox that only
 * resets on a full drain, or a wheel whose buckets keep their
 * high-water capacity, grows roughly linearly instead.
 */

#include <gtest/gtest.h>

#include <cstddef>

#include "network/network.hpp"
#include "traffic/task_model.hpp"

using dvsnet::Cycle;
using dvsnet::NodeId;
using dvsnet::PortId;
using dvsnet::network::Network;
using dvsnet::network::NetworkConfig;
using dvsnet::network::PolicyKind;

namespace
{

/** Storage of every store the bound covers, by kind. */
struct Storage
{
    std::size_t total = 0;
    std::size_t inboxes = 0;
    std::size_t queue = 0;
};

Storage
measure(Network &net)
{
    Storage s;
    s.total = net.storageBytes();
    s.queue = net.kernel().queue().storageBytes();
    for (NodeId n = 0; n < net.topology().numNodes(); ++n) {
        auto &r = net.router(n);
        for (PortId p = 0; p < r.config().numPorts; ++p) {
            s.inboxes += r.flitInbox(p).storageBytes() +
                         r.creditInbox(p).storageBytes();
        }
    }
    return s;
}

} // namespace

TEST(MemoryBound, StorageFlatInSimulatedTime)
{
    NetworkConfig config;  // 8x8 mesh
    config.policy = PolicyKind::History;
    Network net(config);
    dvsnet::traffic::TwoLevelParams params;  // 100 tasks
    params.networkInjectionRate = 1.2;
    params.sourcesPerTask = 16;
    params.seed = 1;
    dvsnet::traffic::TwoLevelWorkload workload(net.topology(), params);
    net.attachTraffic(workload);

    constexpr Cycle kWarmup = 120000;
    net.runUntilCycle(kWarmup + 20000);
    const Storage early = measure(net);
    net.runUntilCycle(kWarmup + 80000);
    const Storage late = measure(net);

    ASSERT_GT(early.inboxes, 0u);
    ASSERT_GT(early.queue, 0u);
    EXPECT_LE(late.total, early.total * 11 / 10)
        << "early " << early.total << " B";
    EXPECT_LE(late.inboxes, early.inboxes * 11 / 10)
        << "early " << early.inboxes << " B";
    EXPECT_LE(late.queue, early.queue * 11 / 10)
        << "early " << early.queue << " B";
}

TEST(MemoryBound, CollectPublishesStorageGauge)
{
    NetworkConfig config;
    config.radix = 4;
    Network net(config);
    dvsnet::traffic::TwoLevelParams params;
    params.avgConcurrentTasks = 8;
    params.sourcesPerTask = 4;
    params.networkInjectionRate = 0.3;
    dvsnet::traffic::TwoLevelWorkload workload(net.topology(), params);
    net.attachTraffic(workload);
    net.run(2000, 3000);
    const double gauge =
        net.observability().gauge("network.storage_bytes");
    EXPECT_GT(gauge, 0.0);
    // collect() splices channel-pending deliveries into the inboxes
    // before it reads the gauge; nothing has run since.
    EXPECT_EQ(gauge, static_cast<double>(net.storageBytes()));
}
