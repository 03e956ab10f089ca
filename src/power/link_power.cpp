#include "power/link_power.hpp"

#include <bit>

#include "common/fatal.hpp"
#include "common/rng.hpp"

namespace dvsnet::power
{

namespace
{

std::unique_ptr<LinkPowerModel>
buildTable(const Spec &, const LinkPowerContext &context)
{
    return std::make_unique<TableLinkPowerModel>(context.coeffA,
                                                 context.coeffB);
}

std::unique_ptr<LinkPowerModel>
buildToggle(const Spec &spec, const LinkPowerContext &context)
{
    double idle = 0.5;
    if (spec.read("idle", idle) && !(idle >= 0.0 && idle <= 1.0)) {
        throw ConfigError(detail::concat(
            "key 'idle': must be in [0, 1], got ", *spec.find("idle")));
    }
    std::uint32_t width = 32;
    if (spec.read("width", width) && (width < 1 || width > 64)) {
        throw ConfigError(detail::concat(
            "key 'width': must be in [1, 64], got ", *spec.find("width")));
    }
    // Calibrate for the final idle fraction and width, then let an
    // explicit cw/cc override.  An explicit Cw keeps the Cc = Cw/2
    // coupling ratio unless the spec also pins Cc.
    auto params = ToggleLinkPowerModel::defaultParams(context, idle, width);
    if (spec.read("cw", params.toggleCapacitanceF)) {
        if (params.toggleCapacitanceF < 0.0) {
            throw ConfigError(detail::concat(
                "key 'cw': must be >= 0, got ", *spec.find("cw")));
        }
        params.couplingCapacitanceF = params.toggleCapacitanceF / 2.0;
    }
    if (spec.read("cc", params.couplingCapacitanceF) &&
        params.couplingCapacitanceF < 0.0) {
        throw ConfigError(detail::concat("key 'cc': must be >= 0, got ",
                                         *spec.find("cc")));
    }
    return std::make_unique<ToggleLinkPowerModel>(params, context.coeffA,
                                                  context.coeffB);
}

} // namespace

std::uint64_t
flitPayloadWord(const router::Flit &flit)
{
    // Golden-ratio mix of the flit's deterministic identity; splitmix64
    // gives avalanche so consecutive seq numbers produce ~random words.
    std::uint64_t state =
        flit.packet * 0x9e3779b97f4a7c15ull + flit.seq;
    return splitmix64(state);
}

ToggleLinkPowerModel::Params
ToggleLinkPowerModel::defaultParams(const LinkPowerContext &context,
                                    double idleFraction,
                                    std::uint32_t payloadWidth)
{
    Params p;
    p.idleFraction = idleFraction;
    p.payloadWidth = payloadWidth;
    // Calibrate so a fully utilized channel carrying random data matches
    // the table backend's dynamic power: random consecutive words toggle
    // width/2 bits and couple ~width/4 adjacent pairs per flit, and one
    // flit per link period means E_flit * f must equal the non-idle
    // share (1 - idle) * a * V^2 * f * linksPerChannel.  With
    // Cc = Cw/2 that gives Cw = 8*(1-idle)*a*L / (5*width).
    const double width = static_cast<double>(p.payloadWidth);
    p.toggleCapacitanceF =
        8.0 * (1.0 - p.idleFraction) * context.coeffA *
        static_cast<double>(context.linksPerChannel) / (5.0 * width);
    p.couplingCapacitanceF = p.toggleCapacitanceF / 2.0;
    return p;
}

ToggleLinkPowerModel::ToggleLinkPowerModel(const Params &params,
                                           double coeffA, double coeffB)
    : params_(params), coeffA_(coeffA), coeffB_(coeffB)
{
    DVSNET_ASSERT(params_.payloadWidth >= 1 && params_.payloadWidth <= 64,
                  "toggle payload width out of range");
    payloadMask_ = params_.payloadWidth == 64
                       ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << params_.payloadWidth) - 1;
}

double
ToggleLinkPowerModel::flitEnergyJ(std::uint64_t payload,
                                  std::uint64_t prevPayload,
                                  double voltage) const
{
    const std::uint64_t flips = (payload ^ prevPayload) & payloadMask_;
    const int toggles = std::popcount(flips);
    const int couplings = std::popcount(flips & (flips >> 1));
    return (static_cast<double>(toggles) * params_.toggleCapacitanceF +
            static_cast<double>(couplings) * params_.couplingCapacitanceF) *
           voltage * voltage;
}

const LinkPowerRegistry &
linkPowerRegistry()
{
    static const LinkPowerRegistry registry(
        "link-power backend",
        {
            {"table", "the paper's fitted P(V,f) = a*V^2*f + b per-level law",
             {}, buildTable},
            {"toggle",
             "data-dependent toggle/coupling energy per flit on top of a "
             "static floor",
             {"cw", "cc", "idle", "width"}, buildToggle},
        });
    return registry;
}

std::vector<std::string>
validateLinkPowerSpec(const std::string &text)
{
    return linkPowerRegistry().validate(text);
}

std::unique_ptr<LinkPowerModel>
buildLinkPowerModel(const std::string &text,
                    const LinkPowerContext &context)
{
    return linkPowerRegistry().build(Spec::parse(text), context);
}

} // namespace dvsnet::power
