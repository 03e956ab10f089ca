/**
 * @file
 * dvsnet host-time benchmark driver.  Runs one named workload through
 * the library's public calls only, checks the outputs, and prints one
 * JSON result line (see README.md in this directory for the workloads,
 * every metric, and how to read a traced run).
 *
 *     dvsnet_bench --workload NAME --seed N --seconds S --trace 0|1
 *                  --artifact PATH --workdir DIR [--git DESC]
 *
 * Host time (what the simulator costs) and simulated time (what the
 * modelled network does) are kept apart: every timing here is host time
 * from std::chrono::steady_clock (the end-to-end ones scaled to a
 * reference machine speed, see calibrationMs()); simulated quantities
 * are counts of cycles, events and packets, and the `model.*`
 * statistics.
 */

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "core/history_policy.hpp"
#include "exp/experiment.hpp"
#include "network/network.hpp"
#include "search/cache.hpp"
#include "search/driver.hpp"
#include "sim/kernel.hpp"
#include "topo/topology.hpp"
#include "traffic/pattern_traffic.hpp"
#include "traffic/task_model.hpp"
#include "workload/factory.hpp"

using namespace dvsnet;

namespace
{

using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** CPU time of the calling thread, seconds. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/** CPUs this process may run on (what `nproc` prints). */
std::size_t
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<std::size_t>(CPU_COUNT(&set));
    return std::thread::hardware_concurrency();
}

/** Linear-interpolated quantile (q in [0, 1]) of a non-empty sample. */
double
quantile(std::vector<double> values, double q)
{
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
sum(const std::vector<double> &values)
{
    double total = 0.0;
    for (const double v : values)
        total += v;
    return total;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------
// Tracing: spans around the public calls, kept in memory and written to
// the artifact when the run ends.

/** One host-time interval, in seconds since process start. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;  ///< index of the enclosing span, -1 for a root
};

/** Span recorder; every call is a no-op when tracing is off. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    int
    begin(std::string name, int parent)
    {
        if (!enabled_)
            return -1;
        spans_.push_back({std::move(name), secondsSince(g_epoch), 0.0,
                          parent});
        return static_cast<int>(spans_.size() - 1);
    }

    void
    end(int id)
    {
        if (id >= 0)
            spans_[static_cast<std::size_t>(id)].end = secondsSince(g_epoch);
    }

    double
    duration(int id) const
    {
        const Span &s = spans_.at(static_cast<std::size_t>(id));
        return s.end - s.start;
    }

    /** Span duration minus the time its direct children cover. */
    double
    selfTime(int id) const
    {
        double children = 0.0;
        for (const Span &s : spans_) {
            if (s.parent == id)
                children += s.end - s.start;
        }
        return duration(id) - children;
    }

    const std::vector<Span> &spans() const { return spans_; }

    Json
    toJson() const
    {
        Json out = Json::array();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            Json s = Json::object();
            s["id"] = Json(static_cast<std::uint64_t>(i));
            s["name"] = Json(spans_[i].name);
            s["start_s"] = Json(spans_[i].start);
            s["end_s"] = Json(spans_[i].end);
            s["parent"] = Json(static_cast<std::int64_t>(spans_[i].parent));
            out.push(std::move(s));
        }
        return out;
    }

  private:
    bool enabled_;
    std::vector<Span> spans_;
};

/** RAII span: begins on construction, ends on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, std::string name, int parent)
        : tracer_(tracer), id_(tracer.begin(std::move(name), parent))
    {}
    ~ScopedSpan() { tracer_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    Tracer &tracer_;
    int id_;
};

// ---------------------------------------------------------------------
// Output checks: every check counts as one attempted operation, and
// `fail_frac` = failed / attempted over SimAssert checks, network
// evaluations and these output checks together.

class Checks
{
  public:
    void
    expect(bool ok, const std::string &what)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            failures_.push_back(what);
        }
    }

    void
    addInvariants(std::uint64_t checks, std::uint64_t failures)
    {
        attempted_ += checks;
        failed_ += failures;
        if (failures != 0)
            failures_.push_back(std::to_string(failures) +
                                " SimAssert failure(s)");
    }

    /** Network evaluations run; a failed one is reported by expect(). */
    void addEvaluations(std::uint64_t count) { attempted_ += count; }

    /** Take over the counts and failures another thread recorded. */
    void
    merge(const Checks &other)
    {
        attempted_ += other.attempted_;
        failed_ += other.failed_;
        failures_.insert(failures_.end(), other.failures_.begin(),
                         other.failures_.end());
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

/**
 * Set-up-only timings taken before the timed loop and again after each
 * repetition; `setup_s` is their median.  A set-up takes about a
 * millisecond, so samples taken back to back all see the machine in one
 * speed state; spreading them over the run averages its drift.
 */
constexpr int kSetupSamplesPerPoint = 5;

/**
 * Threads that time a workload: nproc - 1 (one CPU left to the rest of
 * the machine), at least 1 and at most 3.  The network workloads step
 * one Network per thread side by side; pareto_search uses them as its
 * worker pool.  On a shared host each CPU speeds up and slows down on
 * its own for seconds at a time; pooling the repetitions of several CPUs
 * averages that out where one CPU's repetitions, however many, cannot.
 * Leaving a CPU free keeps a search's rungs from waiting on a worker
 * that shares its CPU with something else.
 */
std::size_t
measuringThreads()
{
    return std::clamp<std::size_t>(availableCpus(), 2, 4) - 1;
}

// ---------------------------------------------------------------------
// Machine-speed reference.  On a shared host all CPUs also slow down and
// speed up together, by up to ~1.8x, in steps minutes apart (other
// tenants' load).  No run length averages that out, and it swamps any
// code change.  So every thread that times the workload also times this
// fixed kernel between its repetitions, and the end-to-end host timings
// are scaled by kCalibrationRefMs / (the run's median kernel time): they
// read as host time on a machine where the kernel takes
// kCalibrationRefMs.  The kernel is independent of the library, so a
// change to the library moves the scaled timings as much as the raw
// ones.  The raw timings and the kernel time are kept in the artifact,
// and the kernel time is the per-layer metric host.calib_ms.

constexpr double kCalibrationRefMs = 10.0;
constexpr int kCalibrationsPerPoint = 3;

/**
 * One run of the fixed kernel, host milliseconds: an 80k-entry binary
 * heap churned like the simulator's event queue, then an integer hash
 * loop.
 */
double
calibrationMs()
{
    const auto t0 = Clock::now();
    std::vector<std::uint64_t> heap;
    heap.reserve(80000);
    std::uint64_t x = 1;
    const auto lcg = [&x] {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        return x >> 20;
    };
    for (int i = 0; i < 80000; ++i) {
        heap.push_back(lcg());
        std::push_heap(heap.begin(), heap.end());
    }
    for (int i = 0; i < 120000; ++i) {
        std::pop_heap(heap.begin(), heap.end());
        heap.back() -= lcg() >> 24;
        std::push_heap(heap.begin(), heap.end());
    }
    std::uint64_t h = heap.front();
    for (int i = 0; i < 1000000; ++i) {
        h += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = h;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        h ^= z ^ (z >> 31);
    }
    asm volatile("" : : "r"(h));  // keep the loop: its result is unused
    return secondsSince(t0) * 1e3;
}

void
calibrate(std::vector<double> &samples)
{
    for (int i = 0; i < kCalibrationsPerPoint; ++i)
        samples.push_back(calibrationMs());
}

Json
toJsonArray(const std::vector<double> &values)
{
    Json out = Json::array();
    for (const double v : values)
        out.push(Json(v));
    return out;
}

// ---------------------------------------------------------------------
// Network workloads (twolevel_dvs, uniform_loaded).

using GeneratorFactory =
    std::function<std::unique_ptr<traffic::TrafficGenerator>(
        const topo::KAryNCube &topo, std::uint64_t seed)>;

/** A single-network workload: fixed simulated span, stepped in chunks. */
struct NetWorkload
{
    network::NetworkConfig config;
    GeneratorFactory generator;
    Cycle warmup = 0;
    Cycle measure = 0;
    Cycle chunk = 0;       ///< divides both warmup and measure
    bool steadyLoad = false;  ///< apply the uniform_loaded steadiness guard

    Cycle total() const { return warmup + measure; }
};

/** 8x8 mesh, history DVS (the NetworkConfig defaults). */
network::NetworkConfig
paperMesh()
{
    network::NetworkConfig config;
    config.policy = network::PolicyKind::History;
    return config;
}

NetWorkload
twoLevelWorkload()
{
    NetWorkload w;
    w.config = paperMesh();
    w.generator = [](const topo::KAryNCube &topo, std::uint64_t seed) {
        traffic::TwoLevelParams params;  // 100 tasks x 128 sources
        params.networkInjectionRate = 1.2;
        params.seed = seed;
        return std::make_unique<traffic::TwoLevelWorkload>(topo, params);
    };
    // The DVS ladder settles ~110k cycles after start at this load.
    w.warmup = 110000;
    w.measure = 40000;
    w.chunk = 500;
    return w;
}

NetWorkload
uniformWorkload()
{
    NetWorkload w;
    w.config = paperMesh();
    w.generator = [](const topo::KAryNCube &topo, std::uint64_t seed) {
        // 3.5 packets/cycle network-wide: ~75% of the ~4.7 where this
        // DVS mesh saturates under uniform-random traffic.
        const double perNode = 3.5 / static_cast<double>(topo.numNodes());
        return std::make_unique<traffic::PatternTraffic>(
            topo, traffic::Pattern::UniformRandom, perNode, seed);
    };
    w.warmup = 30000;
    w.measure = 30000;
    w.chunk = 250;
    w.steadyLoad = true;
    return w;
}

/** Forwards to a generator and counts the packets it hands the sink. */
class CountingGenerator final : public traffic::TrafficGenerator
{
  public:
    explicit CountingGenerator(traffic::TrafficGenerator &inner)
        : inner_(inner)
    {}

    void
    start(sim::Kernel &kernel, traffic::PacketSink sink) override
    {
        inner_.start(kernel, [this, sink = std::move(sink)](
                                 const traffic::PacketRequest &request) {
            ++calls_;
            sink(request);
        });
    }

    bool wantsDeliveries() const override
    {
        return inner_.wantsDeliveries();
    }

    void
    onDelivered(const traffic::PacketRequest &request, Tick arrival) override
    {
        inner_.onDelivered(request, arrival);
    }

    const char *name() const override { return inner_.name(); }

    std::uint64_t calls() const { return calls_; }

  private:
    traffic::TrafficGenerator &inner_;
    std::uint64_t calls_ = 0;
};

/** Everything one chunked run of a network workload yields. */
struct NetSample
{
    double setupS = 0.0;  ///< construction + attach (host)
    double wallS = 0.0;   ///< runUntilCycle chunks + collect (host)
    double cpuS = 0.0;    ///< thread CPU time over the same calls
    double collectMs = 0.0;
    std::vector<double> chunkMs;

    network::RunResults results;
    std::string resultsEcho;  ///< lossless JSON echo, for bit-identity

    std::uint64_t events = 0;
    std::uint64_t pendingPeak = 0;
    std::uint64_t backlogMax = 0;  ///< over every chunk boundary
    std::vector<double> measureBacklog;  ///< per measured chunk boundary
    std::uint64_t created = 0;
    std::uint64_t nodes = 0;
    std::uint64_t injectCalls = 0;  ///< traced runs only
    bool conserved = false;
    bool windowConserved = false;

    std::map<std::string, std::uint64_t> counters;
    core::ControllerStats control;
};

const char *const kCounterNames[] = {
    "network.cycles",    "network.router_steps", "network.router_wakes",
    "link.flits_sent",   "link.flit_bursts",     "link.credit_bursts",
    "dvs.steps_started", "dvs.steps_completed",  "dvs.steps_rejected",
};

std::uint64_t
sourceBacklog(const network::Network &net)
{
    std::uint64_t total = 0;
    for (NodeId n = 0; n < net.topology().numNodes(); ++n)
        total += net.sourceQueueDepth(n);
    return total;
}

std::string
echo(const network::RunResults &results)
{
    return network::toJson(results).dump();
}

/**
 * Build, attach and step `w` to its end in `w.chunk`-cycle slices of
 * runUntilCycle, then collect.  With tracing on, spans cover set-up,
 * every chunk and collect(), and a sink wrapper counts injections.
 */
NetSample
runChunked(const NetWorkload &w, std::uint64_t seed, Tracer &tracer,
           int parent)
{
    NetSample s;
    ScopedSpan rep(tracer, "evaluation", parent);

    const auto t0 = Clock::now();
    const int setupSpan = tracer.begin("setup", rep.id());
    network::Network net(w.config);
    net.observability().setFailFast(false);
    const auto generator = w.generator(net.topology(), seed);
    std::unique_ptr<CountingGenerator> counting;
    if (tracer.enabled()) {
        counting = std::make_unique<CountingGenerator>(*generator);
        net.attachTraffic(*counting);
    } else {
        net.attachTraffic(*generator);
    }
    tracer.end(setupSpan);
    s.setupS = secondsSince(t0);

    std::uint64_t ejectedInWarmup = 0;
    for (Cycle now = 0; now < w.total(); now += w.chunk) {
        const auto c0 = Clock::now();
        const double cpu0 = threadCpuSeconds();
        const int span = tracer.begin("runUntilCycle", rep.id());
        if (now == w.warmup) {
            ejectedInWarmup = net.metrics().packetsEjected();
            net.beginMeasurement();
        }
        net.runUntilCycle(now + w.chunk);
        tracer.end(span);
        const double dt = secondsSince(c0);
        s.cpuS += threadCpuSeconds() - cpu0;
        s.chunkMs.push_back(dt * 1e3);
        s.wallS += dt;

        ScopedSpan probe(tracer, "probe", rep.id());
        s.pendingPeak = std::max<std::uint64_t>(
            s.pendingPeak, net.kernel().pendingEvents());
        const std::uint64_t backlog = sourceBacklog(net);
        s.backlogMax = std::max(s.backlogMax, backlog);
        if (now + w.chunk > w.warmup)
            s.measureBacklog.push_back(static_cast<double>(backlog));
    }

    {
        const auto c0 = Clock::now();
        ScopedSpan span(tracer, "collect", rep.id());
        s.results = net.collect();
        const double dt = secondsSince(c0);
        s.collectMs = dt * 1e3;
        s.wallS += dt;
    }

    ScopedSpan probe(tracer, "probe", rep.id());
    s.resultsEcho = echo(s.results);
    s.events = net.kernel().executedEvents();
    s.nodes = static_cast<std::uint64_t>(net.topology().numNodes());
    for (NodeId n = 0; n < net.topology().numNodes(); ++n)
        s.created += net.packetsCreatedAt(n);
    const auto &metrics = net.metrics();
    s.conserved = s.created == ejectedInWarmup + metrics.packetsEjected() +
                                   metrics.inFlight();
    s.windowConserved = s.results.packetsCreated ==
                        s.results.packetsDelivered + metrics.windowInFlight();
    for (const char *name : kCounterNames)
        s.counters[name] = net.observability().counterValue(name);
    for (std::size_t id = 0; id < net.numChannels(); ++id) {
        if (const auto *ctrl = net.controller(static_cast<ChannelId>(id))) {
            const auto &st = ctrl->stats();
            s.control.windows += st.windows;
            s.control.stepsFaster += st.stepsFaster;
            s.control.stepsSlower += st.stepsSlower;
            s.control.holds += st.holds;
            s.control.skippedBusy += st.skippedBusy;
        }
    }
    if (counting)
        s.injectCalls = counting->calls();
    return s;
}

/** Set-up alone (construct + attach), host seconds. */
double
timeSetup(const NetWorkload &w, std::uint64_t seed)
{
    const auto t0 = Clock::now();
    network::Network net(w.config);
    const auto generator = w.generator(net.topology(), seed);
    net.attachTraffic(*generator);
    return secondsSince(t0);
}

/** The unchunked reference, Network::run(warmup, measure), as its echo. */
std::string
runReference(const NetWorkload &w, std::uint64_t seed, Checks &checks)
{
    network::Network net(w.config);
    net.observability().setFailFast(false);
    const auto generator = w.generator(net.topology(), seed);
    net.attachTraffic(*generator);
    const auto results = net.run(w.warmup, w.measure);
    checks.addEvaluations(1);
    checks.addInvariants(results.invariantChecks, results.invariantFailures);
    return echo(results);
}

/** The generator alone on a bare kernel with a counting sink. */
struct TrafficSample
{
    std::uint64_t packets = 0;
    std::uint64_t events = 0;
    double hostS = 0.0;
};

TrafficSample
runTrafficAlone(const NetWorkload &w, std::uint64_t seed, Tracer &tracer,
                int parent)
{
    ScopedSpan span(tracer, "traffic_alone", parent);
    TrafficSample t;
    sim::Kernel kernel;
    const topo::KAryNCube topo(w.config.radix, w.config.dims,
                               w.config.torus);
    const auto generator = w.generator(topo, seed);
    const auto t0 = Clock::now();
    generator->start(kernel,
                     [&t](const traffic::PacketRequest &) { ++t.packets; });
    kernel.run(cyclesToTicks(w.total()));
    t.hostS = secondsSince(t0);
    t.events = kernel.executedEvents();
    return t;
}

// ---------------------------------------------------------------------
// Metric output.

struct Metric
{
    double value;
    const char *unit;
};

using Metrics = std::map<std::string, Metric>;

Json
metricsJson(const Metrics &metrics)
{
    Json out = Json::object();
    for (const auto &[name, m] : metrics) {
        Json entry = Json::object();
        entry["value"] = Json(m.value);
        entry["unit"] = Json(m.unit);
        out[name] = std::move(entry);
    }
    return out;
}

/**
 * Scale the end-to-end host timings to a machine on which
 * calibrationMs() takes kCalibrationRefMs; `kernelMs` is the run's
 * median kernel time.
 */
void
scaleToReference(Metrics &m, double kernelMs)
{
    const double factor = kCalibrationRefMs / kernelMs;
    for (const char *time : {"setup_s", "wall_s", "chunk_ms_p50",
                             "chunk_ms_p95"})
        m.at(time).value *= factor;
    for (const char *rate : {"sim_cycles_per_s", "evals_per_s"})
        m.at(rate).value /= factor;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** Per-layer metrics of one traced network sample (sim through model). */
void
addLayerMetrics(Metrics &m, const NetSample &s, const TrafficSample &t,
                Cycle cycles, double untracedWallS, double setupS)
{
    const auto cyc = static_cast<double>(cycles);
    const auto ev = static_cast<double>(s.events);
    const auto created = static_cast<double>(s.created);

    m["sim.events"] = {ev, "count"};
    m["sim.events_per_cycle"] = {ratio(ev, cyc), "events/cycle"};
    m["sim.events_per_pkt"] = {ratio(ev, created), "events/pkt"};
    m["sim.ns_per_event"] = {ratio(untracedWallS * 1e9, ev), "ns"};
    m["sim.pending_peak"] = {static_cast<double>(s.pendingPeak), "count"};

    const auto tpk = static_cast<double>(t.packets);
    m["traffic.packets"] = {tpk, "count"};
    m["traffic.events"] = {static_cast<double>(t.events), "count"};
    m["traffic.events_per_pkt"] = {
        ratio(static_cast<double>(t.events), tpk), "events/pkt"};
    m["traffic.host_s"] = {t.hostS, "s"};
    m["traffic.share"] = {ratio(t.hostS, untracedWallS), "ratio"};

    m["network.cycles"] = {
        static_cast<double>(s.counters.at("network.cycles")), "count"};
    m["network.setup_s"] = {setupS, "s"};
    m["network.collect_ms"] = {s.collectMs, "ms"};
    m["network.source_backlog_max"] = {static_cast<double>(s.backlogMax),
                                       "flits"};
    m["network.inject_calls"] = {static_cast<double>(s.injectCalls),
                                 "count"};

    const auto steps =
        static_cast<double>(s.counters.at("network.router_steps"));
    const auto flits = static_cast<double>(s.counters.at("link.flits_sent"));
    m["router.steps"] = {steps, "count"};
    m["router.wakes"] = {
        static_cast<double>(s.counters.at("network.router_wakes")), "count"};
    m["router.steps_per_cycle"] = {ratio(steps, cyc), "steps/cycle"};
    m["router.flits_per_step"] = {ratio(flits, steps), "flits/step"};
    m["router.ns_per_step"] = {ratio(untracedWallS * 1e9, steps), "ns"};

    const auto bursts =
        static_cast<double>(s.counters.at("link.flit_bursts"));
    m["link.flits_sent"] = {flits, "count"};
    m["link.flit_bursts"] = {bursts, "count"};
    m["link.credit_bursts"] = {
        static_cast<double>(s.counters.at("link.credit_bursts")), "count"};
    m["link.flits_per_burst"] = {ratio(flits, bursts), "flits/burst"};
    const auto started =
        static_cast<double>(s.counters.at("dvs.steps_started"));
    const auto rejected =
        static_cast<double>(s.counters.at("dvs.steps_rejected"));
    m["dvs.steps_started"] = {started, "count"};
    m["dvs.steps_completed"] = {
        static_cast<double>(s.counters.at("dvs.steps_completed")), "count"};
    m["dvs.steps_rejected"] = {rejected, "count"};
    m["dvs.step_accept_ratio"] = {ratio(started, started + rejected),
                                  "ratio"};

    const auto &c = s.control;
    const auto windows = static_cast<double>(c.windows);
    m["core.windows"] = {windows, "count"};
    m["core.steps_faster"] = {static_cast<double>(c.stepsFaster), "count"};
    m["core.steps_slower"] = {static_cast<double>(c.stepsSlower), "count"};
    m["core.holds"] = {static_cast<double>(c.holds), "count"};
    m["core.skipped_busy"] = {static_cast<double>(c.skippedBusy), "count"};
    m["core.action_ratio"] = {
        ratio(static_cast<double>(c.stepsFaster + c.stepsSlower), windows),
        "ratio"};

    const auto &r = s.results;
    m["model.packets_delivered"] = {static_cast<double>(r.packetsDelivered),
                                    "count"};
    m["model.avg_latency_cycles"] = {r.avgLatencyCycles, "cycles"};
    m["model.throughput_flits_per_cycle"] = {r.throughputFlitsPerCycle,
                                             "flits/cycle"};
    m["model.avg_power_w"] = {r.avgPowerW, "W"};
    m["model.savings_factor"] = {r.savingsFactor, "ratio"};
    m["model.transition_energy_j"] = {r.transitionEnergyJ, "J"};
    m["model.avg_channel_level"] = {r.avgChannelLevel, "level"};
}

/** Checks every chunked sample of a network workload shares. */
void
checkSample(Checks &checks, const NetWorkload &w, const NetSample &s,
            const std::string &reference, const char *what)
{
    const std::string tag = std::string(what) + ": ";
    checks.addEvaluations(1);
    checks.addInvariants(s.results.invariantChecks,
                         s.results.invariantFailures);
    checks.expect(s.resultsEcho == reference,
                  tag + "chunked runUntilCycle results differ from "
                        "Network::run");
    checks.expect(s.conserved,
                  tag + "created != delivered + in flight (whole run)");
    checks.expect(s.windowConserved,
                  tag + "window created != delivered + in flight");
    checks.expect(s.counters.at("network.cycles") == w.total(),
                  tag + "network.cycles != simulated span");
    if (!w.steadyLoad)
        return;
    // Steadiness guard: accepted throughput keeps up with offered load
    // and the source backlog does not grow across the window (slack: one
    // packet per source).  A saturated network fails both; a steady one
    // sits well inside.
    const auto &r = s.results;
    checks.expect(r.throughputPktsPerCycle >=
                      0.98 * r.offeredLoadPktsPerCycle,
                  tag + "accepted throughput below offered load");
    const auto &b = s.measureBacklog;
    const auto half = static_cast<std::ptrdiff_t>(b.size() / 2);
    const double firstMax = *std::max_element(b.begin(), b.begin() + half);
    const double secondMax = *std::max_element(b.begin() + half, b.end());
    const double slack =
        static_cast<double>(w.config.packetLength * s.nodes);
    checks.expect(secondMax <= 2.0 * firstMax + slack,
                  tag + "source backlog grows across the window");
}

struct Outcome
{
    Metrics metrics;
    Json detail = Json::object();
};

Outcome
runNetworkWorkload(const NetWorkload &w, std::uint64_t seed, double seconds,
                   Tracer &tracer, Checks &checks)
{
    Outcome out;

    // The reference run doubles as the cache-warming pass.  Memory is
    // read after it, before the measuring threads each build a network.
    const std::string reference = runReference(w, seed, checks);
    const double rssMb = peakRssMb();

    /** What one measuring thread collects. */
    struct Replica
    {
        std::vector<NetSample> plain;
        std::vector<NetSample> traced;
        std::vector<double> setups;  ///< set-up-only samples
        std::vector<double> calibrations;  ///< calibrationMs() samples
        Checks checks;
    };

    // A traced run keeps one thread: the tracer is not thread-safe, and
    // its untraced reps are the base of trace.overhead_frac.
    const std::size_t threads = tracer.enabled() ? 1 : measuringThreads();
    std::vector<Replica> replicas(threads);
    const int root = tracer.begin("measure_loop", -1);
    const auto loopStart = Clock::now();
    const auto measure = [&](Replica &r) {
        Tracer none(false);
        const auto sampleSetup = [&] {
            for (int i = 0; i < kSetupSamplesPerPoint; ++i)
                r.setups.push_back(timeSetup(w, seed));
            calibrate(r.calibrations);
        };
        sampleSetup();
        double lastRep = 0.0;
        while (r.plain.size() < 2 ||
               secondsSince(loopStart) + lastRep <= seconds) {
            const auto r0 = Clock::now();
            r.plain.push_back(runChunked(w, seed, none, -1));
            checkSample(r.checks, w, r.plain.back(), reference, "untraced");
            if (tracer.enabled()) {
                r.traced.push_back(runChunked(w, seed, tracer, root));
                checkSample(r.checks, w, r.traced.back(), reference,
                            "traced");
            }
            lastRep = secondsSince(r0);
            sampleSetup();
        }
    };
    std::vector<std::thread> pool;
    for (auto &r : replicas) {
        pool.emplace_back([&measure, &r] {
            try {
                measure(r);
            } catch (const std::exception &e) {
                r.checks.expect(false,
                                std::string("measuring thread: ") + e.what());
            }
        });
    }
    for (auto &t : pool)
        t.join();
    tracer.end(root);

    std::vector<NetSample> plain;
    std::vector<NetSample> traced;
    std::vector<double> setups;
    std::vector<double> calibrations;
    for (auto &r : replicas) {
        std::move(r.plain.begin(), r.plain.end(), std::back_inserter(plain));
        std::move(r.traced.begin(), r.traced.end(),
                  std::back_inserter(traced));
        setups.insert(setups.end(), r.setups.begin(), r.setups.end());
        calibrations.insert(calibrations.end(), r.calibrations.begin(),
                            r.calibrations.end());
        checks.merge(r.checks);
    }
    if (plain.empty() || (tracer.enabled() && traced.empty()))
        throw std::runtime_error("no repetition completed");

    // Every rep steps the same simulated chunks, so each chunk position
    // gets the median of its reps' times: a host hiccup during one rep's
    // chunk is dropped, while a chunk that is slow in every rep (a DVS
    // transition, a burst) keeps its time.  wall_s sums those medians.
    std::vector<double> walls;
    std::vector<double> collects;
    for (const auto &s : plain) {
        walls.push_back(s.wallS);
        collects.push_back(s.collectMs);
        setups.push_back(s.setupS);
    }
    std::vector<double> chunks;
    for (std::size_t i = 0; i < plain.front().chunkMs.size(); ++i) {
        std::vector<double> position;
        for (const auto &s : plain)
            position.push_back(s.chunkMs[i]);
        chunks.push_back(median(position));
    }
    const double wall = (sum(chunks) + median(collects)) / 1e3;
    const double setup = median(setups);
    const auto cycles = static_cast<double>(w.total());

    Metrics &m = out.metrics;
    if (!tracer.enabled()) {
        m["setup_s"] = {setup, "s"};
        m["wall_s"] = {wall, "s"};
        m["sim_cycles_per_s"] = {cycles / wall, "cycles/s"};
        m["chunk_ms_p50"] = {quantile(chunks, 0.50), "ms"};
        m["chunk_ms_p95"] = {quantile(chunks, 0.95), "ms"};
        m["evals_per_s"] = {1.0 / wall, "1/s"};
        m["peak_rss_mb"] = {rssMb, "MB"};
        scaleToReference(m, median(calibrations));
    } else {
        const NetSample &s = traced.front();
        const TrafficSample t = runTrafficAlone(w, seed, tracer, -1);
        checks.expect(t.packets == s.created,
                      "standalone generator packets != in-network created");
        checks.expect(s.injectCalls == s.created,
                      "sink-wrapper inject calls != in-network created");
        addLayerMetrics(m, s, t, w.total(), wall, setup);

        // Each rep is one serial network evaluation.
        std::vector<double> tracedWalls;
        std::vector<double> evalSpans;
        double selfS = 0.0;
        for (const auto &ts : traced)
            tracedWalls.push_back(ts.wallS);
        for (std::size_t id = 0; id < tracer.spans().size(); ++id) {
            if (tracer.spans()[id].name == "evaluation") {
                evalSpans.push_back(tracer.duration(static_cast<int>(id)));
                selfS += tracer.selfTime(static_cast<int>(id));
            }
        }
        const double tracedWall = median(tracedWalls);
        m["search.candidates"] = {0.0, "count"};
        m["search.network_evals"] = {
            static_cast<double>(plain.size() + traced.size() + 1), "count"};
        m["search.network_evals_full"] = m["search.network_evals"];
        m["search.cache_hits"] = {0.0, "count"};
        m["search.culled"] = {0.0, "count"};
        m["search.cull_ratio"] = {0.0, "ratio"};
        m["search.front_size"] = {0.0, "count"};
        m["search.eval_s_p50"] = {quantile(evalSpans, 0.5), "s"};
        m["search.eval_s_p90"] = {quantile(evalSpans, 0.9), "s"};
        m["search.driver_self_s"] = {selfS, "s"};
        m["exp.threads"] = {1.0, "count"};
        m["exp.parallel_eff"] = {ratio(median(evalSpans), wall), "ratio"};
        const double plainWall = median(walls);
        m["trace.overhead_frac"] = {(tracedWall - plainWall) / plainWall,
                                    "ratio"};
        m["host.calib_ms"] = {median(calibrations), "ms"};
    }

    Json &d = out.detail;
    d["measuring_threads"] = Json(static_cast<std::uint64_t>(threads));
    d["reps_untraced"] = Json(static_cast<std::uint64_t>(plain.size()));
    d["reps_traced"] = Json(static_cast<std::uint64_t>(traced.size()));
    d["chunk_positions"] = Json(static_cast<std::uint64_t>(chunks.size()));
    d["simulated_cycles_per_rep"] = Json(static_cast<std::uint64_t>(w.total()));
    d["wall_s_per_rep"] = toJsonArray(walls);
    d["setup_s_samples"] = toJsonArray(setups);
    d["calibration_ms_samples"] = toJsonArray(calibrations);
    std::vector<double> cpu;
    for (const auto &s : plain)
        cpu.push_back(s.cpuS);
    d["cpu_s_per_rep"] = toJsonArray(cpu);
    Json chunkArr = Json::array();
    for (const auto &s : plain)
        chunkArr.push(toJsonArray(s.chunkMs));
    d["chunk_ms_per_rep"] = std::move(chunkArr);
    d["results"] = Json::parse(reference);
    return out;
}

// ---------------------------------------------------------------------
// Search workload (pareto_search).

/**
 * Successive halving over 6 seeded Table 2 threshold settings plus 18
 * sampled candidates, three rungs (measure 1k/2k/4k cycles after a 2k
 * warm-up) on a 48-task x 16-source two-level load: many short
 * evaluations, so construction, scheduling and the driver's own work
 * weigh as much as any one event loop.
 *
 * slack=1000 (x the rung's objective spread) keeps cull() from ever
 * terminating a candidate, so every seed runs the same 72 evaluations.
 * With the default spread-relative slack the outcome is bimodal across
 * seeds (0 to 22 of 24 culled at rung 0), which halves the work on some
 * seeds and would swamp any host-time change.
 */
search::SearchConfig
searchConfig(std::uint64_t seed, std::size_t threads,
             const std::string &journal)
{
    search::SearchConfig config;
    config.base.network = paperMesh();
    config.base.workload.avgConcurrentTasks = 48;
    config.base.workload.sourcesPerTask = 16;
    config.base.warmup = 2000;
    config.base.measure = 4000;
    config.injectionRate = 1.2;
    config.seed = seed;
    config.threads = threads;
    for (int setting = 0; setting < 6; ++setting) {
        const auto params = core::HistoryDvsParams::thresholdSetting(setting);
        search::Candidate c;
        c.tlLow = params.tlLow;
        c.tlHigh = params.tlHigh;
        config.seeded.push_back(c);
    }
    search::applySearchSpec(
        config, search::SearchSpec::parse(
                    "successive-halving:candidates=18,rungs=3,step=2,slack=1000"));
    config.journalPath = journal;
    return config;
}

/** The network workload one search evaluation runs. */
NetWorkload
evaluationWorkload(const network::ExperimentSpec &spec, double rate)
{
    NetWorkload w;
    w.config = spec.network;
    w.generator = [spec, rate](const topo::KAryNCube &topo,
                               std::uint64_t seed) {
        const workload::WorkloadContext context{topo, rate, seed,
                                                spec.workload};
        return workload::buildWorkload(spec.workloadSpec, context);
    };
    w.warmup = spec.warmup;
    w.measure = spec.measure;
    w.chunk = 500;
    return w;
}

/** Driver + candidate set + the first evaluation's network and load. */
double
timeSearchSetup(const search::SearchConfig &config)
{
    const auto t0 = Clock::now();
    const search::SearchDriver driver(config);
    const auto candidates = search::SearchDriver::candidateSet(config);
    const auto spec = driver.specFor(candidates.front(), config.rungs.front());
    network::Network net(spec.network);
    const workload::WorkloadContext context{
        net.topology(), config.injectionRate,
        driver.seedFor(candidates.front(), 0), spec.workload};
    const auto generator = workload::buildWorkload(spec.workloadSpec, context);
    net.attachTraffic(*generator);
    return secondsSince(t0);
}

/** FNV-1a 64 of a file's bytes as hex; "" when it is missing or empty. */
std::string
fileHash(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    if (bytes.str().empty())
        return "";
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : bytes.str()) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

struct SearchSample
{
    double wallS = 0.0;
    search::SearchOutcome outcome;
    std::string journalHash;
    std::uint64_t simulatedCycles = 0;  ///< summed over journaled evals
    std::vector<double> evalS;  ///< per evaluation, timed evaluator only
};

/**
 * One whole search.  `evaluator` selects the path: "parallel" is the
 * default ExperimentRunner pool; "serial" and "timed" install a
 * setEvaluator() wrapper around exp::runPoint, which the driver calls
 * one evaluation at a time ("timed" adds a span per evaluation).
 */
SearchSample
runSearch(const search::SearchConfig &config, const std::string &evaluator,
          Tracer &tracer, Checks &checks)
{
    SearchSample s;
    ScopedSpan root(tracer, "search." + evaluator, -1);
    CounterRegistry registry;
    search::SearchDriver driver(config, &registry);
    if (evaluator != "parallel") {
        const bool timed = evaluator == "timed";
        driver.setEvaluator([&s, &tracer, &root, timed](
                                const network::ExperimentSpec &spec,
                                double rate, std::uint64_t seed) {
            const auto t0 = Clock::now();
            const int span = timed ? tracer.begin("evaluation", root.id())
                                   : -1;
            auto results = exp::runPoint(spec, rate, seed);
            tracer.end(span);
            if (timed)
                s.evalS.push_back(secondsSince(t0));
            return results;
        });
    }

    const auto t0 = Clock::now();
    try {
        s.outcome = driver.run();
    } catch (const std::exception &e) {
        checks.expect(false, std::string("search failed: ") + e.what());
    }
    s.wallS = secondsSince(t0);

    const auto &o = s.outcome;
    s.journalHash = fileHash(config.journalPath);
    std::uint64_t invariantChecks = 0;
    std::uint64_t invariantFailures = 0;
    for (const auto &rec : o.journal) {
        s.simulatedCycles += rec.warmup + rec.measure;
        invariantChecks += rec.results.invariantChecks;
        invariantFailures += rec.results.invariantFailures;
    }
    checks.addEvaluations(o.networkEvals);
    checks.addInvariants(invariantChecks, invariantFailures);
    checks.expect(!s.journalHash.empty(), "search wrote no journal");
    checks.expect(o.completed, "search did not complete");
    checks.expect(o.front.size() > 0, "empty Pareto front");
    checks.expect(o.journal.size() == o.networkEvals + o.cacheHits,
                  "journal records != evaluations + cache hits");
    return s;
}

Outcome
runSearchWorkload(std::uint64_t seed, double seconds,
                  const std::string &workdir, Tracer &tracer, Checks &checks)
{
    Outcome out;
    Tracer untraced(false);
    const std::size_t threads = measuringThreads();
    const std::string journal =
        workdir + "/journal-" + std::to_string(getpid()) + ".jsonl";
    const auto config = searchConfig(seed, threads, journal);

    // Untraced parallel searches; the first one warms caches and is not
    // timed.  Every search must journal the same bytes.
    std::string hash = runSearch(config, "parallel", untraced, checks)
                           .journalHash;

    std::vector<double> setups;
    std::vector<double> calibrations;
    const auto sampleSetup = [&] {
        for (int i = 0; i < kSetupSamplesPerPoint; ++i)
            setups.push_back(timeSearchSetup(config));
        // The search runs on every worker's CPU, so the kernel does too.
        std::vector<std::vector<double>> perThread(threads);
        std::vector<std::thread> pool;
        for (auto &samples : perThread)
            pool.emplace_back([&samples] { calibrate(samples); });
        for (auto &t : pool)
            t.join();
        for (const auto &samples : perThread)
            calibrations.insert(calibrations.end(), samples.begin(),
                                samples.end());
    };
    sampleSetup();
    std::vector<SearchSample> plain;
    const auto loopStart = Clock::now();
    const std::size_t minReps = tracer.enabled() ? 2 : 3;
    const double budget = tracer.enabled() ? seconds / 4 : seconds;
    double lastRep = 0.0;
    while (plain.size() < minReps ||
           secondsSince(loopStart) + lastRep <= budget) {
        const auto r0 = Clock::now();
        plain.push_back(runSearch(config, "parallel", untraced, checks));
        checks.expect(plain.back().journalHash == hash,
                      "journal hash differs between searches");
        lastRep = secondsSince(r0);
        sampleSetup();
    }

    std::vector<double> walls;
    std::vector<double> cyclesPerS;
    std::vector<double> evalsPerS;
    for (const auto &s : plain) {
        walls.push_back(s.wallS);
        cyclesPerS.push_back(static_cast<double>(s.simulatedCycles) /
                             s.wallS);
        evalsPerS.push_back(static_cast<double>(s.outcome.networkEvals) /
                            s.wallS);
    }
    const double wall = median(walls);
    const double setup = median(setups);
    const auto &outcome = plain.front().outcome;

    Metrics &m = out.metrics;
    if (!tracer.enabled()) {
        std::vector<double> wallMs;
        for (const double w : walls)
            wallMs.push_back(w * 1e3);
        m["setup_s"] = {setup, "s"};
        m["wall_s"] = {wall, "s"};
        m["sim_cycles_per_s"] = {median(cyclesPerS), "cycles/s"};
        m["chunk_ms_p50"] = {quantile(wallMs, 0.50), "ms"};
        m["chunk_ms_p95"] = {quantile(wallMs, 0.95), "ms"};
        m["evals_per_s"] = {median(evalsPerS), "1/s"};
        m["peak_rss_mb"] = {peakRssMb(), "MB"};
        scaleToReference(m, median(calibrations));
    } else {
        const SearchSample serial =
            runSearch(config, "serial", untraced, checks);
        const SearchSample timed =
            runSearch(config, "timed", tracer, checks);
        checks.expect(serial.journalHash == hash &&
                          timed.journalHash == hash,
                      "evaluator wrapper changed the journal");

        // One final-rung evaluation, stepped in chunks with full
        // per-layer accounting: what each evaluation costs, by layer.
        search::SearchDriver driver(config);
        const std::size_t rung = config.rungs.size() - 1;
        const auto &candidate =
            outcome.candidates.at(outcome.finalSurvivors.at(0));
        const auto spec = driver.specFor(candidate, config.rungs[rung]);
        const std::uint64_t evalSeed = driver.seedFor(candidate, rung);
        const NetWorkload w = evaluationWorkload(spec, config.injectionRate);
        const std::string reference = runReference(w, evalSeed, checks);
        const std::string key =
            search::evalKey(spec, config.injectionRate, evalSeed);
        bool journaled = false;
        for (const auto &rec : outcome.journal) {
            if (rec.key == key)
                journaled = echo(rec.results) == reference;
        }
        checks.expect(journaled,
                      "search record differs from Network::run");
        const NetSample evalPlain = runChunked(w, evalSeed, untraced, -1);
        checkSample(checks, w, evalPlain, reference, "evaluation untraced");
        const NetSample evalTraced = runChunked(w, evalSeed, tracer, -1);
        checkSample(checks, w, evalTraced, reference, "evaluation traced");
        const TrafficSample t = runTrafficAlone(w, evalSeed, tracer, -1);
        checks.expect(t.packets == evalTraced.created,
                      "standalone generator packets != in-network created");
        addLayerMetrics(m, evalTraced, t, w.total(), evalPlain.wallS,
                        evalPlain.setupS);

        const auto candidates =
            static_cast<double>(outcome.candidates.size());
        const auto culled = static_cast<double>(outcome.culled);
        const double evalSum = sum(timed.evalS);
        m["search.candidates"] = {candidates, "count"};
        m["search.network_evals"] = {
            static_cast<double>(outcome.networkEvals), "count"};
        m["search.network_evals_full"] = {
            static_cast<double>(outcome.networkEvalsFull), "count"};
        m["search.cache_hits"] = {static_cast<double>(outcome.cacheHits),
                                  "count"};
        m["search.culled"] = {culled, "count"};
        m["search.cull_ratio"] = {ratio(culled, candidates), "ratio"};
        m["search.front_size"] = {
            static_cast<double>(outcome.front.size()), "count"};
        m["search.eval_s_p50"] = {quantile(timed.evalS, 0.5), "s"};
        m["search.eval_s_p90"] = {quantile(timed.evalS, 0.9), "s"};
        m["search.driver_self_s"] = {timed.wallS - evalSum, "s"};
        m["exp.threads"] = {static_cast<double>(threads), "count"};
        m["exp.parallel_eff"] = {
            ratio(evalSum, wall * static_cast<double>(threads)), "ratio"};
        m["trace.overhead_frac"] = {
            (timed.wallS - serial.wallS) / serial.wallS, "ratio"};
        m["host.calib_ms"] = {median(calibrations), "ms"};
    }
    std::remove(journal.c_str());

    Json &d = out.detail;
    d["threads"] = Json(static_cast<std::uint64_t>(threads));
    d["searches_timed"] = Json(static_cast<std::uint64_t>(plain.size()));
    d["journal_hash"] = Json(hash);
    d["network_evals"] = Json(outcome.networkEvals);
    d["culled"] = Json(outcome.culled);
    d["front_size"] = Json(static_cast<std::uint64_t>(outcome.front.size()));
    d["wall_s_per_search"] = toJsonArray(walls);
    d["setup_s_samples"] = toJsonArray(setups);
    d["calibration_ms_samples"] = toJsonArray(calibrations);
    return out;
}

// ---------------------------------------------------------------------
// Provenance and command line.

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

Json
provenance(const std::string &workload, std::uint64_t seed, double seconds,
           bool trace, const std::string &git)
{
    Json p = Json::object();
    p["workload"] = Json(workload);
    p["seed"] = Json(seed);
    p["seconds"] = Json(seconds);
    p["trace"] = Json(trace);
    p["nproc"] = Json(static_cast<std::uint64_t>(availableCpus()));
    p["hardware_concurrency"] =
        Json(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    p["cpu_model"] = Json(cpuModel());
    p["compiler"] = Json(std::string(PERFBENCH_COMPILER) + " (" +
                         __VERSION__ + ")");
    p["build_type"] = Json(PERFBENCH_BUILD_TYPE);
    p["git_describe"] = Json(git);
    return p;
}

[[noreturn]] void
usage(const std::string &problem)
{
    std::fprintf(stderr,
                 "dvsnet_bench: %s\nusage: dvsnet_bench --workload "
                 "twolevel_dvs|uniform_loaded|pareto_search --seed N "
                 "--seconds S --trace 0|1 --artifact PATH --workdir DIR "
                 "[--git DESC]\n",
                 problem.c_str());
    std::exit(2);
}

int
runBenchmark(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag.rfind("--", 0) != 0)
            usage("unexpected argument '" + flag + "'");
        args[flag.substr(2)] = argv[i + 1];
    }
    if (argc % 2 == 0)
        usage("every flag takes a value");
    for (const char *required :
         {"workload", "seed", "seconds", "trace", "artifact", "workdir"}) {
        if (args.find(required) == args.end())
            usage(std::string("missing --") + required);
    }
    const std::string workload = args["workload"];
    const std::uint64_t seed = std::stoull(args["seed"]);
    const double seconds = std::stod(args["seconds"]);
    const bool trace = args["trace"] == "1";
    if (!trace && args["trace"] != "0")
        usage("--trace must be 0 or 1");

    Tracer tracer(trace);
    Checks checks;
    Outcome outcome;
    if (workload == "twolevel_dvs") {
        outcome = runNetworkWorkload(twoLevelWorkload(), seed, seconds,
                                     tracer, checks);
    } else if (workload == "uniform_loaded") {
        outcome = runNetworkWorkload(uniformWorkload(), seed, seconds,
                                     tracer, checks);
    } else if (workload == "pareto_search") {
        outcome = runSearchWorkload(seed, seconds, args["workdir"], tracer,
                                    checks);
    } else {
        usage("unknown workload '" + workload + "'");
    }
    if (trace) {
        outcome.metrics["check.fail_frac"] = {
            ratio(static_cast<double>(checks.failed()),
                  static_cast<double>(checks.attempted())),
            "ratio"};
    }

    const bool correct = checks.failed() == 0 && checks.attempted() > 0;
    Json result = Json::object();
    result["correct"] = Json(correct);
    result["attempted"] = Json(checks.attempted());
    result["failed"] = Json(checks.failed());
    result["metrics"] = metricsJson(outcome.metrics);

    const Json prov =
        provenance(workload, seed, seconds, trace, args.count("git")
                                                        ? args["git"]
                                                        : "unknown");
    Json artifact = Json::object();
    artifact["schema"] = Json("dvsnet-perfbench-v1");
    artifact["provenance"] = prov;
    artifact["result"] = result;
    artifact["detail"] = outcome.detail;
    Json failures = Json::array();
    for (const auto &f : checks.failures())
        failures.push(Json(f));
    artifact["check_failures"] = std::move(failures);
    artifact["spans"] = tracer.toJson();
    std::ofstream(args["artifact"]) << artifact.dump(1) << "\n";

    for (const auto &f : checks.failures())
        std::fprintf(stderr, "check failed: %s\n", f.c_str());
    std::printf("provenance %s\n", prov.dump().c_str());
    std::printf("%s\n", result.dump().c_str());
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runBenchmark(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "dvsnet_bench: %s\n", e.what());
        return 1;
    }
}
