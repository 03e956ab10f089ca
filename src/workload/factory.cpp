#include "workload/factory.hpp"

#include "common/fatal.hpp"
#include "traffic/pattern_traffic.hpp"
#include "traffic/trace.hpp"
#include "workload/cmp_workload.hpp"
#include "workload/trace_binary.hpp"

namespace dvsnet::workload
{

namespace
{

std::unique_ptr<traffic::TrafficGenerator>
buildTwoLevel(const Spec &spec, const WorkloadContext &ctx)
{
    traffic::TwoLevelParams p = ctx.twoLevel;
    p.networkInjectionRate = ctx.injectionRate;
    p.seed = ctx.seed;
    spec.read("tasks", p.avgConcurrentTasks);
    spec.read("locality_radius", p.localityRadius);
    spec.read("p_local", p.pLocal);
    spec.read("per_packet_dest", p.perPacketDestination);
    return std::make_unique<traffic::TwoLevelWorkload>(ctx.topo, p);
}

/** Open-loop pattern baseline; the per-node Poisson rate is chosen so
 *  the aggregate matches the experiment's injection rate. */
template <traffic::Pattern pattern>
std::unique_ptr<traffic::TrafficGenerator>
buildPattern(const Spec &, const WorkloadContext &ctx)
{
    const double perNode =
        ctx.injectionRate / static_cast<double>(ctx.topo.numNodes());
    return std::make_unique<traffic::PatternTraffic>(ctx.topo, pattern,
                                                     perNode, ctx.seed);
}

std::unique_ptr<traffic::TrafficGenerator>
buildTrace(const Spec &spec, const WorkloadContext &ctx)
{
    const auto *path = spec.find("path");
    if (path == nullptr || path->empty()) {
        throw ConfigError("requires a path key (trace:path=FILE)");
    }
    if (isBinaryTracePath(*path)) {
        // Stream straight from disk; the header's numNodes field (when
        // present) already guards node ranges.
        return std::make_unique<BinaryTraceReplay>(*path);
    }
    return std::make_unique<traffic::TraceTraffic>(
        traffic::Trace::load(*path, ctx.topo.numNodes()));
}

std::unique_ptr<traffic::TrafficGenerator>
buildCmp(const Spec &spec, const WorkloadContext &ctx)
{
    CmpParams p;
    p.packetRate = ctx.injectionRate;
    p.seed = ctx.seed;
    spec.read("window", p.window);
    spec.read("request_flits", p.requestFlits);
    spec.read("reply_flits", p.replyFlits);
    spec.read("home_latency", p.homeLatencyCycles);
    spec.read("hot_nodes", p.hotNodes);
    spec.read("p_hot", p.pHot);
    return std::make_unique<CmpWorkload>(ctx.topo, p);
}

} // namespace

const WorkloadRegistry &
workloadRegistry()
{
    using traffic::Pattern;
    static const WorkloadRegistry registry(
        "workload",
        {
            {"two-level",
             "the paper's two-level self-similar model (Section 4.3)",
             {"tasks", "locality_radius", "p_local", "per_packet_dest"},
             buildTwoLevel},
            {"uniform",
             "uniform-random destinations, per-node Poisson injection", {},
             buildPattern<Pattern::UniformRandom>},
            {"transpose", "(x,y) -> (y,x) permutation", {},
             buildPattern<Pattern::Transpose>},
            {"bit-complement", "node -> ~node permutation", {},
             buildPattern<Pattern::BitComplement>},
            {"bit-reverse", "bit-reversal permutation", {},
             buildPattern<Pattern::BitReverse>},
            {"shuffle", "perfect-shuffle permutation", {},
             buildPattern<Pattern::Shuffle>},
            {"tornado", "half-way around each dimension", {},
             buildPattern<Pattern::Tornado>},
            {"neighbor", "+1 in dimension 0", {},
             buildPattern<Pattern::Neighbor>},
            {"trace", "replay a recorded packet trace (.dvst binary or CSV)",
             {"path"}, buildTrace},
            {"cmp", "closed-loop CMP request/reply coherence traffic",
             {"window", "request_flits", "reply_flits", "home_latency",
              "hot_nodes", "p_hot"},
             buildCmp},
        });
    return registry;
}

std::vector<std::string>
validateWorkloadSpec(const std::string &text)
{
    return workloadRegistry().validate(text);
}

std::unique_ptr<traffic::TrafficGenerator>
buildWorkload(const std::string &text, const WorkloadContext &context)
{
    return workloadRegistry().build(Spec::parse(text), context);
}

} // namespace dvsnet::workload
