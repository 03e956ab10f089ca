#include "traffic/pattern_traffic.hpp"

#include "common/fatal.hpp"

namespace dvsnet::traffic
{

PatternTraffic::PatternTraffic(const topo::KAryNCube &topo, Pattern pattern,
                               double packetsPerNodePerCycle,
                               std::uint64_t seed)
    : topo_(topo), pattern_(pattern), rate_(packetsPerNodePerCycle),
      rng_(seed)
{
    DVSNET_ASSERT(rate_ > 0, "injection rate must be positive");
}

void
PatternTraffic::start(sim::Kernel &kernel, PacketSink sink)
{
    kernel_ = &kernel;
    sink_ = std::move(sink);
    for (NodeId node = 0; node < topo_.numNodes(); ++node)
        scheduleNext(node);
}

void
PatternTraffic::scheduleNext(NodeId node)
{
    // Poisson process: exponential inter-arrival with mean 1/rate cycles.
    const double gapCycles = rng_.exponential(1.0 / rate_);
    const Tick gap = static_cast<Tick>(
        gapCycles * static_cast<double>(kRouterClockPeriod) + 0.5);
    kernel_->after(std::max<Tick>(gap, 1), [this, node] {
        const NodeId dst = patternDestination(pattern_, node, topo_, rng_);
        if (dst != node)
            emit(node, dst);
        scheduleNext(node);
    });
}

void
PatternTraffic::emit(NodeId node, NodeId dst)
{
    // Draws and the next arrival stay on the Poisson timeline; only
    // the hand-off of an edge-coincident packet moves, one tick later.
    const Tick now = kernel_->now();
    if (deliveryTick(now) == now) {
        sink_(PacketRequest{node, dst});
        return;
    }
    kernel_->at(deliveryTick(now),
                [this, node, dst] { sink_(PacketRequest{node, dst}); });
}

} // namespace dvsnet::traffic
