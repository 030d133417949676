#include "stats/registry.hh"

#include <algorithm>
#include <cmath>

#include "support/json.hh"
#include "support/logging.hh"

namespace critics::stats
{

double
VectorElem::eval() const
{
    if (counter)
        return static_cast<double>(*counter);
    if (value)
        return *value;
    return 0.0;
}

double
StatDef::eval() const
{
    switch (kind) {
      case StatKind::Counter:
        return counter ? static_cast<double>(*counter) : 0.0;
      case StatKind::Value:
        return value ? *value : 0.0;
      case StatKind::Formula: {
        const double v = formula ? formula() : 0.0;
        return std::isfinite(v) ? v : 0.0;
      }
      case StatKind::Vector: {
        double sum = 0.0;
        for (const auto &elem : elems)
            sum += elem.eval();
        return sum;
      }
      case StatKind::Latency:
        return latency ? static_cast<double>(latency->count()) : 0.0;
    }
    return 0.0;
}

const StatDef &
StatRegistry::add(StatDef def)
{
    critics_assert(!def.name.empty(), "unnamed stat");
    for (const auto &existing : defs_) {
        if (existing.name == def.name)
            critics_panic("duplicate stat '", def.name, "'");
        // A leaf name may not double as a group prefix (and vice
        // versa): that could not nest into one JSON tree.
        const auto &shorter = existing.name.size() < def.name.size()
            ? existing.name : def.name;
        const auto &longer = existing.name.size() < def.name.size()
            ? def.name : existing.name;
        if (longer.size() > shorter.size() &&
            longer.compare(0, shorter.size(), shorter) == 0 &&
            longer[shorter.size()] == '.') {
            critics_panic("stat '", def.name, "' conflicts with group '",
                          existing.name, "'");
        }
    }
    defs_.push_back(std::move(def));
    sorted_ = false;
    return defs_.back();
}

void
StatRegistry::addCounter(const std::string &name, const std::uint64_t &v,
                         std::string desc)
{
    StatDef def;
    def.name = name;
    def.desc = std::move(desc);
    def.kind = StatKind::Counter;
    def.counter = &v;
    add(std::move(def));
}

void
StatRegistry::addValue(const std::string &name, const double &v,
                       std::string desc)
{
    StatDef def;
    def.name = name;
    def.desc = std::move(desc);
    def.kind = StatKind::Value;
    def.value = &v;
    add(std::move(def));
}

void
StatRegistry::addFormula(const std::string &name,
                         std::function<double()> formula,
                         std::string desc)
{
    critics_assert(formula != nullptr, "formula stat '", name,
                   "' without a formula");
    StatDef def;
    def.name = name;
    def.desc = std::move(desc);
    def.kind = StatKind::Formula;
    def.formula = std::move(formula);
    add(std::move(def));
}

void
StatRegistry::addVector(const std::string &name,
                        std::vector<VectorElem> elems, std::string desc)
{
    critics_assert(!elems.empty(), "empty vector stat '", name, "'");
    StatDef def;
    def.name = name;
    def.desc = std::move(desc);
    def.kind = StatKind::Vector;
    def.elems = std::move(elems);
    add(std::move(def));
}

void
StatRegistry::addLatency(const std::string &name,
                         const LatencyHistogram &h, std::string desc)
{
    StatDef def;
    def.name = name;
    def.desc = std::move(desc);
    def.kind = StatKind::Latency;
    def.latency = &h;
    add(std::move(def));
}

void
StatRegistry::sortIfNeeded() const
{
    if (sorted_)
        return;
    std::sort(defs_.begin(), defs_.end(),
              [](const StatDef &a, const StatDef &b) {
                  return a.name < b.name;
              });
    sorted_ = true;
}

const StatDef *
StatRegistry::find(const std::string &name) const
{
    sortIfNeeded();
    const auto it = std::lower_bound(
        defs_.begin(), defs_.end(), name,
        [](const StatDef &def, const std::string &key) {
            return def.name < key;
        });
    if (it == defs_.end() || it->name != name)
        return nullptr;
    return &*it;
}

void
StatRegistry::forEach(const std::function<void(const StatDef &)> &fn) const
{
    sortIfNeeded();
    for (const auto &def : defs_)
        fn(def);
}

std::vector<std::pair<std::string, double>>
StatRegistry::snapshot() const
{
    std::vector<std::pair<std::string, double>> out;
    out.reserve(defs_.size());
    forEach([&](const StatDef &def) {
        switch (def.kind) {
          case StatKind::Vector:
            for (const auto &elem : def.elems)
                out.emplace_back(def.name + "." + elem.name, elem.eval());
            break;
          case StatKind::Latency:
            out.emplace_back(def.name + ".count",
                             static_cast<double>(def.latency->count()));
            out.emplace_back(def.name + ".mean", def.latency->mean());
            out.emplace_back(def.name + ".p50",
                             def.latency->percentile(0.50));
            out.emplace_back(def.name + ".p90",
                             def.latency->percentile(0.90));
            out.emplace_back(def.name + ".p99",
                             def.latency->percentile(0.99));
            break;
          default:
            out.emplace_back(def.name, def.eval());
        }
    });
    return out;
}

namespace
{

void
writeLeaf(json::JsonWriter &w, const char *key, const StatDef &def)
{
    switch (def.kind) {
      case StatKind::Counter:
        w.field(key, def.counter ? *def.counter : 0);
        break;
      case StatKind::Value:
      case StatKind::Formula:
        w.fieldReadable(key, def.eval());
        break;
      case StatKind::Vector:
        w.beginObject(key);
        for (const auto &elem : def.elems) {
            if (elem.counter)
                w.field(elem.name.c_str(), *elem.counter);
            else
                w.fieldReadable(elem.name.c_str(), elem.eval());
        }
        w.endObject();
        break;
      case StatKind::Latency: {
        w.beginObject(key);
        w.field("count", def.latency->count());
        w.fieldReadable("mean", def.latency->mean());
        w.fieldReadable("max", def.latency->max());
        w.fieldReadable("p50", def.latency->percentile(0.50));
        w.fieldReadable("p90", def.latency->percentile(0.90));
        w.fieldReadable("p99", def.latency->percentile(0.99));
        w.endObject();
        break;
      }
    }
}

} // namespace

std::size_t
sharedGroups(const std::vector<std::string> &open,
             const std::vector<std::string> &parts)
{
    std::size_t n = 0;
    // parts.back() is the leaf key and can never match a group.
    const std::size_t limit = std::min(open.size(), parts.size() - 1);
    while (n < limit && open[n] == parts[n])
        ++n;
    return n;
}

std::vector<std::string>
splitDots(const std::string &name)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (true) {
        const std::size_t dot = name.find('.', start);
        if (dot == std::string::npos) {
            parts.push_back(name.substr(start));
            return parts;
        }
        parts.push_back(name.substr(start, dot - start));
        start = dot + 1;
    }
}

void
StatRegistry::writeJson(json::JsonWriter &w) const
{
    // Names are sorted, so a simple open/close walk over the shared
    // prefix depth produces correctly nested groups.
    std::vector<std::string> open;
    forEach([&](const StatDef &def) {
        const auto parts = splitDots(def.name);
        const std::size_t keep = sharedGroups(open, parts);
        while (open.size() > keep) {
            w.endObject();
            open.pop_back();
        }
        for (std::size_t i = open.size(); i + 1 < parts.size(); ++i) {
            w.beginObject(parts[i].c_str());
            open.push_back(parts[i]);
        }
        writeLeaf(w, parts.back().c_str(), def);
    });
    while (!open.empty()) {
        w.endObject();
        open.pop_back();
    }
}

std::string
StatRegistry::toJson() const
{
    json::JsonWriter w;
    w.beginObject();
    writeJson(w);
    w.endObject();
    return w.str();
}

} // namespace critics::stats
