/**
 * @file
 * CMP cache-coherence-shaped request/reply workload.
 *
 * Every node is both a core and a home node.  Cores issue read-style
 * transactions: a short control packet (request) to a home node, which
 * answers after a fixed service latency with a cache-line-sized data
 * packet (reply).  Three properties distinguish this from the open-loop
 * synthetic generators:
 *
 *  - **Causality**: the reply is injected only after the network has
 *    actually delivered the request (and the transaction completes only
 *    when the reply is delivered), via the Network delivery hook.  A
 *    DVS policy that slows links therefore slows the workload feeding
 *    them — offered load responds to latency, as in a real system.
 *  - **Outstanding-request windows**: each core has at most `window`
 *    transactions in flight (an MSHR bank).  Transaction demand beyond
 *    the window queues at the core, so saturation throttles cleanly
 *    instead of growing unbounded source queues.
 *  - **Message-size mix + skew**: requests and replies have distinct
 *    lengths and traffic classes, and home-node selection can
 *    concentrate a fraction of requests on a hot subset of nodes
 *    (shared-data / directory hotspots).
 *
 * Demand arrives per core as a Poisson process whose aggregate matches
 * a target network packet rate (requests + replies), making CMP sweeps
 * rate-comparable with the open-loop workloads.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "topo/topology.hpp"
#include "traffic/traffic.hpp"

namespace dvsnet::workload
{

/** CMP workload configuration. */
struct CmpParams
{
    /** Max outstanding transactions per core (MSHR window). */
    std::int32_t window = 4;

    /** Request packet length in flits (short coherence control). */
    std::uint16_t requestFlits = 1;

    /** Reply packet length in flits (cache-line data; 0 = the
     *  network's configured packet length). */
    std::uint16_t replyFlits = 5;

    /** Upper bound on homeLatencyCycles (1 s at 1 GHz): keeps the
     *  reply time far inside the 64-bit tick range. */
    static constexpr Cycle kMaxHomeLatencyCycles = 1000000000;

    /** Home-node service latency in router cycles (directory lookup +
     *  L2 access) between request delivery and reply injection; in
     *  [1, kMaxHomeLatencyCycles]. */
    Cycle homeLatencyCycles = 20;

    /** Number of hot home nodes (0 = uniform home selection). */
    std::int32_t hotNodes = 0;

    /** Probability a request targets the hot set (given hotNodes > 0). */
    double pHot = 0.0;

    /**
     * Target aggregate packet rate (requests + replies) for the whole
     * network, packets per router cycle.  Each core's transaction
     * demand is Poisson at rate / (2 * numNodes) transactions/cycle;
     * the window caps how much of that demand is in flight.
     */
    double packetRate = 1.0;

    /** RNG seed. */
    std::uint64_t seed = 12345;

    /** Traffic classes stamped on the two packet kinds. */
    static constexpr std::uint8_t kRequestClass = 0;
    static constexpr std::uint8_t kReplyClass = 1;

    /** Problems with this configuration; empty = valid. */
    std::vector<std::string> validate() const;
};

/** Counters exported by the workload. */
struct CmpStats
{
    std::uint64_t transactionsIssued = 0;    ///< requests injected
    std::uint64_t transactionsCompleted = 0; ///< replies delivered
    std::uint64_t requestsDelivered = 0;
    std::uint64_t repliesInjected = 0;
    std::uint64_t demandQueued = 0;  ///< arrivals that waited on the window
};

/** Closed-loop request/reply generator (see file comment). */
class CmpWorkload final : public traffic::TrafficGenerator
{
  public:
    /**
     * @param topo topology (caller-owned, outlives the generator)
     * @param params workload configuration
     * @throws ConfigError when params.validate() reports problems
     */
    CmpWorkload(const topo::KAryNCube &topo, const CmpParams &params);

    void start(sim::Kernel &kernel, traffic::PacketSink sink) override;

    bool wantsDeliveries() const override { return true; }

    void onDelivered(const traffic::PacketRequest &request,
                     Tick arrival) override;

    const char *name() const override { return "cmp"; }

    const CmpParams &params() const { return params_; }
    const CmpStats &stats() const { return stats_; }

    /** Round-trip time of completed transactions, in router cycles
     *  (request injection to reply delivery). */
    const RunningStat &roundTripCycles() const { return roundTrip_; }

    /** Transactions currently in flight at `node`. */
    std::int32_t outstanding(NodeId node) const
    {
        return cores_[static_cast<std::size_t>(node)].outstanding;
    }

    /** Draw a home node for `src` (hot-set skew; never == src). */
    NodeId homeFor(NodeId src);

  private:
    struct Core
    {
        std::int32_t outstanding = 0;
        std::uint64_t backlog = 0;  ///< demand waiting for a window slot
    };

    struct Transaction
    {
        NodeId core = kInvalidId;
        Tick issued = 0;
        NodeId home = kInvalidId;
    };

    void scheduleDemand(NodeId node);
    void issueTransaction(NodeId node);

    /** Hand transaction `tag`'s request packet to the sink now. */
    void sendRequest(std::uint64_t tag);

    const topo::KAryNCube &topo_;
    CmpParams params_;
    Rng rng_;
    sim::Kernel *kernel_ = nullptr;
    traffic::PacketSink sink_;

    std::vector<Core> cores_;
    std::unordered_map<std::uint64_t, Transaction> transactions_;
    std::uint64_t nextTag_ = 1;
    double perCoreTxnRate_ = 0.0;  ///< transactions per cycle per core
    CmpStats stats_;
    RunningStat roundTrip_;
};

} // namespace dvsnet::workload
