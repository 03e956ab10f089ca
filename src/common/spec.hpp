/**
 * @file
 * The `<name>[:key=val,...]` spec grammar shared by every pluggable
 * part of an experiment, with its typed value readers and the one
 * registry type that maps a spec's name to a builder:
 *
 *     cmp:window=8,hot_nodes=4,p_hot=0.3          (workload)
 *     toggle:idle=0.3,width=32                    (link-power backend)
 *     successive-halving:candidates=18,rungs=3    (search strategy)
 *
 * A registry is built once from a constant entry list.  Unknown names
 * and unknown keys are rejected up front, listing what *is* registered,
 * before anything is built; value errors surface from the builder as
 * ConfigErrors thrown by the readers.  Lookup is a linear scan: no
 * registry holds more than a dozen entries.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/fatal.hpp"

namespace dvsnet
{

/** Parsed `<name>[:key=val,...]` specification. */
struct Spec
{
    std::string name;
    std::vector<std::pair<std::string, std::string>> params;

    /**
     * Parse a spec string.  Grammar: name, optionally followed by ':'
     * and a comma-separated key=value list.  Nothing is trimmed.
     * @throws ConfigError on a syntactically malformed spec (empty
     * name, empty item, missing '=', empty key).
     */
    static Spec parse(const std::string &text);

    /** Canonical `<name>[:key=val,...]` rendering. */
    std::string toString() const;

    /** Value for `key`, or nullptr when absent. */
    const std::string *find(const std::string &key) const;

    /**
     * When `key` is present, read its value into `out` with the reader
     * for T (readBool, readDouble or readInt<T>) and return true;
     * otherwise leave `out` alone and return false.
     * @throws ConfigError on a value T cannot take.
     */
    template <typename T>
    bool read(const std::string &key, T &out) const;
};

/** A finite number: NaN, infinities, overflow and junk are rejected. */
double readDouble(const std::string &key, const std::string &value);

/** `true`/`1` or `false`/`0`. */
bool readBool(const std::string &key, const std::string &value);

namespace detail
{

/** Decimal integer within [lo, hi]; the message names that range. */
std::int64_t readIntIn(const std::string &key, const std::string &value,
                       std::int64_t lo, std::int64_t hi);

} // namespace detail

/** A decimal integer T can hold (capped at int64's range). */
template <typename T>
T
readInt(const std::string &key, const std::string &value)
{
    constexpr std::int64_t kMax = static_cast<std::int64_t>(
        std::min<std::uint64_t>(std::numeric_limits<T>::max(),
                                std::numeric_limits<std::int64_t>::max()));
    return static_cast<T>(detail::readIntIn(
        key, value, std::numeric_limits<T>::min(), kMax));
}

template <typename T>
bool
Spec::read(const std::string &key, T &out) const
{
    const std::string *value = find(key);
    if (value == nullptr)
        return false;
    if constexpr (std::is_same_v<T, bool>)
        out = readBool(key, *value);
    else if constexpr (std::is_floating_point_v<T>)
        out = readDouble(key, *value);
    else
        out = readInt<T>(key, *value);
    return true;
}

/** "a, b, c". */
std::string joinList(const std::vector<std::string> &items);

template <typename Signature>
class SpecRegistry;

/**
 * Registry of named builders with signature
 * `Result(const Spec &, Args...)`.  `kind` labels every message
 * ("unknown <kind> 'x'", "invalid <kind> spec", "<kind> 'x': ...").
 */
template <typename Result, typename... Args>
class SpecRegistry<Result(const Spec &, Args...)>
{
  public:
    struct Entry
    {
        std::string name;
        std::string description;
        std::vector<std::string> keys;  ///< every key the builder accepts
        std::function<Result(const Spec &, Args...)> builder;
    };

    SpecRegistry(std::string kind, std::vector<Entry> entries)
        : kind_(std::move(kind)), entries_(std::move(entries))
    {}

    /** The entry registered as `name`, or nullptr. */
    const Entry *
    find(const std::string &name) const
    {
        for (const auto &entry : entries_) {
            if (entry.name == name)
                return &entry;
        }
        return nullptr;
    }

    /** Registered names, sorted. */
    std::vector<std::string>
    names() const
    {
        std::vector<std::string> out;
        for (const auto &entry : entries_)
            out.push_back(entry.name);
        std::sort(out.begin(), out.end());
        return out;
    }

    /** One-line description of `name` ("" if unknown). */
    std::string
    description(const std::string &name) const
    {
        const Entry *entry = find(name);
        return entry != nullptr ? entry->description : std::string();
    }

    /**
     * Problems with `spec`: unknown name (listing the registered ones)
     * or unknown keys (listing the valid ones); empty = valid.
     */
    std::vector<std::string>
    validate(const Spec &spec) const
    {
        const Entry *entry = find(spec.name);
        if (entry == nullptr) {
            return {detail::concat("unknown ", kind_, " '", spec.name,
                                   "' (registered: ", joinList(names()),
                                   ")")};
        }
        std::vector<std::string> problems;
        for (const auto &param : spec.params) {
            if (std::find(entry->keys.begin(), entry->keys.end(),
                          param.first) != entry->keys.end())
                continue;
            problems.push_back(detail::concat(
                kind_, " '", spec.name, "': unknown key '", param.first,
                "' (",
                entry->keys.empty() ? "takes no keys"
                                    : "valid: " + joinList(entry->keys),
                ")"));
        }
        return problems;
    }

    /** Parse + validate a raw spec string; a parse error is a problem. */
    std::vector<std::string>
    validate(const std::string &text) const
    {
        try {
            return validate(Spec::parse(text));
        } catch (const ConfigError &e) {
            return {e.what()};
        }
    }

    /** Validate, then build.  @throws ConfigError naming the spec. */
    Result
    build(const Spec &spec, Args... args) const
    {
        const auto problems = validate(spec);
        if (!problems.empty())
            throw ConfigError(joinProblems("invalid " + kind_ + " spec",
                                           problems));
        try {
            return find(spec.name)->builder(spec,
                                            std::forward<Args>(args)...);
        } catch (const ConfigError &e) {
            throw ConfigError(
                detail::concat(kind_, " '", spec.name, "': ", e.what()));
        }
    }

  private:
    std::string kind_;
    std::vector<Entry> entries_;
};

} // namespace dvsnet
