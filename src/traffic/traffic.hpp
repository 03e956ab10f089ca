/**
 * @file
 * Traffic-generation interface.  Generators schedule themselves on the
 * simulation kernel and hand typed PacketRequests to the network through
 * a PacketSink; the network owns packetization, source queuing and
 * injection flow control.
 *
 * Request/reply workloads (e.g. the CMP cache-coherence generator) need
 * the reverse direction too: a generator that overrides
 * wantsDeliveries() receives onDelivered() once per fully ejected
 * packet, with the original request (tag included) echoed back.  That
 * closes the loop between network latency and offered load — a DVS
 * policy that slows links now also slows the workload that feeds them,
 * as in a real system.
 */

#pragma once

#include <cstdint>
#include <functional>

#include "common/types.hpp"
#include "sim/kernel.hpp"

namespace dvsnet::traffic
{

/**
 * One packet-creation request.
 *
 * `sizeFlits == 0` means "use the network's configured packet length";
 * generators that model a message-size mix (short coherence control
 * packets vs. cache-line data packets) set it explicitly.
 * `trafficClass` is carried through to delivery unchanged and lets a
 * generator or probe distinguish flows (e.g. request vs. reply);
 * `tag` is an opaque generator-owned value echoed in delivery
 * notifications, typically a transaction id.
 */
struct PacketRequest
{
    NodeId src = kInvalidId;
    NodeId dst = kInvalidId;
    std::uint16_t sizeFlits = 0;    ///< flits; 0 = network default
    std::uint8_t trafficClass = 0;  ///< generator-defined flow class
    std::uint64_t tag = 0;          ///< echoed back on delivery

    bool operator==(const PacketRequest &) const = default;
};

/** Callback a generator invokes to create one packet now. */
using PacketSink = std::function<void(const PacketRequest &request)>;

/**
 * Tick at which a packet a generator creates at `tick` reaches the
 * sink: one tick later when `tick` is a router clock edge.  A packet
 * created at the same tick as the network's step would land before or
 * after that step depending on scheduling history, and a trace replay
 * could not reproduce it.  The ON/OFF banks, pattern traffic and the
 * CMP model all deliver through this, so recorded traces hold no
 * edge-coincident packets.
 */
inline Tick
deliveryTick(Tick tick)
{
    return tick % kRouterClockPeriod == 0 ? tick + 1 : tick;
}

/** A source of packet arrivals. */
class TrafficGenerator
{
  public:
    virtual ~TrafficGenerator() = default;

    /** Begin generating; schedules events on `kernel`. */
    virtual void start(sim::Kernel &kernel, PacketSink sink) = 0;

    /**
     * Opt-in to per-packet delivery notifications.  When true, the
     * network calls onDelivered() once per packet whose last flit is
     * ejected at its destination.  Off by default: open-loop generators
     * pay nothing for the mechanism.
     */
    virtual bool wantsDeliveries() const { return false; }

    /**
     * A packet previously requested through the sink has been fully
     * ejected at `request.dst`; `arrival` is the ejection tick of its
     * last flit.  Only called when wantsDeliveries() is true.  Runs
     * inside the network's cycle step: injecting in response must go
     * through the sink (which enqueues) or a scheduled kernel event,
     * both of which are safe here.
     */
    virtual void onDelivered(const PacketRequest &request, Tick arrival)
    {
        (void)request;
        (void)arrival;
    }

    /** Short name for reports. */
    virtual const char *name() const = 0;
};

} // namespace dvsnet::traffic
