/**
 * @file
 * Open-loop pattern traffic: every node injects packets as a Poisson
 * process at a configurable per-node rate, with destinations drawn from a
 * Pattern.  This is the "random uniformly distributed" / permutation
 * baseline the paper contrasts with its two-level self-similar model.
 */

#pragma once

#include <vector>

#include "common/rng.hpp"
#include "topo/topology.hpp"
#include "traffic/pattern.hpp"
#include "traffic/traffic.hpp"

namespace dvsnet::traffic
{

/** Per-node Poisson injection with pattern destinations. */
class PatternTraffic final : public TrafficGenerator
{
  public:
    /**
     * @param topo topology (caller-owned, outlives the generator)
     * @param pattern destination pattern
     * @param packetsPerNodePerCycle injection rate per node
     * @param seed RNG seed
     */
    PatternTraffic(const topo::KAryNCube &topo, Pattern pattern,
                   double packetsPerNodePerCycle, std::uint64_t seed);

    void start(sim::Kernel &kernel, PacketSink sink) override;

    const char *name() const override { return patternName(pattern_); }

  private:
    void scheduleNext(NodeId node);

    /** Hand one packet to the sink at deliveryTick(now). */
    void emit(NodeId node, NodeId dst);

    const topo::KAryNCube &topo_;
    Pattern pattern_;
    double rate_;  ///< packets per node per router cycle
    Rng rng_;
    sim::Kernel *kernel_ = nullptr;
    PacketSink sink_;
};

} // namespace dvsnet::traffic
