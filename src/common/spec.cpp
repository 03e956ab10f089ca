#include "common/spec.hpp"

#include <charconv>
#include <cmath>

namespace dvsnet
{

Spec
Spec::parse(const std::string &text)
{
    Spec spec;
    const std::size_t colon = text.find(':');
    spec.name = text.substr(0, colon);
    if (spec.name.empty())
        throw ConfigError(detail::concat("spec '", text, "': empty name"));

    if (colon == std::string::npos)
        return spec;
    std::size_t pos = colon + 1;
    while (pos <= text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string item = text.substr(pos, comma - pos);
        const std::size_t eq = item.find('=');
        if (item.empty() || eq == std::string::npos || eq == 0) {
            throw ConfigError(detail::concat(
                "spec '", text, "': expected key=value, got '", item, "'"));
        }
        spec.params.emplace_back(item.substr(0, eq), item.substr(eq + 1));
        pos = comma + 1;
    }
    return spec;
}

std::string
Spec::toString() const
{
    std::string out = name;
    for (std::size_t i = 0; i < params.size(); ++i) {
        out += i == 0 ? ':' : ',';
        out += params[i].first;
        out += '=';
        out += params[i].second;
    }
    return out;
}

const std::string *
Spec::find(const std::string &key) const
{
    for (const auto &[k, v] : params) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

double
readDouble(const std::string &key, const std::string &value)
{
    double out = 0.0;
    const char *end = value.data() + value.size();
    auto [ptr, ec] = std::from_chars(value.data(), end, out);
    if (ec != std::errc{} || ptr != end || !std::isfinite(out)) {
        throw ConfigError(detail::concat(
            "key '", key, "': expected a finite number, got '", value, "'"));
    }
    return out;
}

bool
readBool(const std::string &key, const std::string &value)
{
    if (value == "true" || value == "1")
        return true;
    if (value == "false" || value == "0")
        return false;
    throw ConfigError(detail::concat("key '", key,
                                     "': expected true/false, got '",
                                     value, "'"));
}

std::int64_t
detail::readIntIn(const std::string &key, const std::string &value,
                  std::int64_t lo, std::int64_t hi)
{
    std::int64_t out = 0;
    const char *end = value.data() + value.size();
    auto [ptr, ec] = std::from_chars(value.data(), end, out);
    if (ec == std::errc::invalid_argument || ptr != end) {
        throw ConfigError(detail::concat(
            "key '", key, "': expected an integer, got '", value, "'"));
    }
    if (ec == std::errc::result_out_of_range || out < lo || out > hi) {
        throw ConfigError(detail::concat("key '", key, "': ", value,
                                         " is out of range [", lo, ", ",
                                         hi, "]"));
    }
    return out;
}

std::string
joinList(const std::vector<std::string> &items)
{
    std::string out;
    for (const auto &item : items) {
        if (!out.empty())
            out += ", ";
        out += item;
    }
    return out;
}

} // namespace dvsnet
