#include "exp/runner.hpp"

#include <chrono>
#include <cmath>
#include <utility>

#include "common/fatal.hpp"
#include "common/rng.hpp"
#include "network/network.hpp"
#include "workload/factory.hpp"

namespace dvsnet::exp
{

Json
toJson(const PointResult &result)
{
    Json j = Json::object();
    j["injection_rate"] = Json(result.injectionRate);
    // Full-range uint64 (splitmix64 stream); decimal string, not number.
    j["seed"] = Json(std::to_string(result.seed));
    if (!result.label.empty())
        j["label"] = Json(result.label);
    j["ok"] = Json(result.ok);
    j["wall_seconds"] = Json(result.wallSeconds);
    if (result.ok) {
        j["results"] = network::toJson(result.results);
        j["storage_bytes"] =
            Json(static_cast<std::uint64_t>(result.storageBytes));
    } else {
        j["error"] = Json(result.error);
    }
    return j;
}

std::uint64_t
pointSeed(std::uint64_t baseSeed, std::uint64_t index)
{
    // Golden-ratio stream spacing, finalized by one splitmix64 step.
    std::uint64_t state = baseSeed + 0x9e3779b97f4a7c15ull * (index + 1);
    return splitmix64(state);
}

std::uint64_t
pointSeed(std::uint64_t baseSeed, const std::string &key)
{
    std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64-bit
    for (const unsigned char c : key) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return pointSeed(baseSeed, h);
}

network::RunResults
runPoint(const network::ExperimentSpec &spec, double injectionRate,
         std::uint64_t seed, std::size_t *storageBytes)
{
    auto problems = spec.validate();
    if (!(injectionRate > 0.0) || !std::isfinite(injectionRate)) {
        problems.push_back("injection rate must be positive and finite");
    }
    if (!problems.empty())
        throw ConfigError(joinProblems("invalid experiment", problems));

    network::Network net(spec.network);
    workload::WorkloadContext context{net.topology(), injectionRate, seed,
                                      spec.workload};
    const auto generator =
        workload::buildWorkload(spec.workloadSpec, context);
    net.attachTraffic(*generator);
    network::RunResults results = net.run(spec.warmup, spec.measure);
    if (storageBytes != nullptr)
        *storageBytes = net.storageBytes();
    return results;
}

ExperimentRunner::ExperimentRunner(RunnerOptions options)
    : options_(std::move(options)), pool_(options_.threads)
{
}

ExperimentRunner::~ExperimentRunner() = default;

std::size_t
ExperimentRunner::submit(PointJob job)
{
    std::size_t index;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        index = results_.size();
        results_.emplace_back();
        ++submitted_;
    }
    pool_.post([this, index, job = std::move(job)] {
        execute(index, job);
    });
    return index;
}

std::size_t
ExperimentRunner::submitSweep(const network::ExperimentSpec &spec,
                              const std::vector<double> &rates)
{
    if (rates.empty())
        throw ConfigError("invalid experiment: empty rate grid");
    std::size_t first = 0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
        PointJob job;
        job.spec = spec;
        job.injectionRate = rates[i];
        job.seed = pointSeed(spec.workload.seed, i);
        const std::size_t index = submit(std::move(job));
        if (i == 0)
            first = index;
    }
    return first;
}

void
ExperimentRunner::execute(std::size_t index, const PointJob &job)
{
    PointResult result;
    result.injectionRate = job.injectionRate;
    result.seed = job.seed;
    result.label = job.label;

    const auto start = std::chrono::steady_clock::now();
    try {
        result.results = runPoint(job.spec, job.injectionRate, job.seed,
                                  &result.storageBytes);
        result.ok = true;
    } catch (const std::exception &e) {
        result.error = e.what();
    } catch (...) {
        result.error = "unknown error";
    }
    result.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    {
        std::lock_guard<std::mutex> lock(mutex_);
        results_[index] = std::move(result);
        ++completed_;
        // The callback runs under the lock: serialized by construction,
        // so callers may update un-synchronized state from it.
        if (options_.onProgress)
            options_.onProgress(Progress{completed_, submitted_});
    }
}

std::vector<PointResult>
ExperimentRunner::collect()
{
    pool_.wait();
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<PointResult> out = std::move(results_);
    results_.clear();
    submitted_ = 0;
    completed_ = 0;
    return out;
}

std::vector<network::SweepPoint>
ExperimentRunner::sweep(const network::ExperimentSpec &spec,
                        const std::vector<double> &rates,
                        RunnerOptions options)
{
    ExperimentRunner runner(std::move(options));
    runner.submitSweep(spec, rates);
    const auto results = runner.collect();

    std::vector<network::SweepPoint> series;
    series.reserve(results.size());
    for (const auto &r : results) {
        if (!r.ok) {
            throw ConfigError("sweep point at rate " +
                              std::to_string(r.injectionRate) +
                              " failed: " + r.error);
        }
        series.push_back(r.toSweepPoint());
    }
    return series;
}

} // namespace dvsnet::exp
