#include "obs/span.hh"

#include <cstdint>

#include "support/json.hh"

namespace critics::obs
{

std::string
renderSpanEvent(const SpanRecord &span, const std::string &traceId)
{
    json::JsonWriter w;
    w.beginObject()
        .field("event", "span")
        .field("trace", traceId)
        .field("name", span.name)
        .field("cat", span.category)
        .field("ts", span.startUs)
        .field("dur", span.durUs)
        .field("tid", static_cast<std::uint64_t>(span.tid))
        .endObject();
    return w.str();
}

std::optional<SpanRecord>
parseSpanEvent(const std::string &line, std::string *traceId)
{
    const auto doc = json::parseJson(line);
    if (!doc || !doc->isObject())
        return std::nullopt;
    const auto *kind = doc->find("event");
    const auto kindText = kind ? kind->asString() : std::nullopt;
    if (!kindText || *kindText != "span")
        return std::nullopt;

    SpanRecord span;
    const auto *name = doc->find("name");
    const auto nameText = name ? name->asString() : std::nullopt;
    if (!nameText || nameText->empty())
        return std::nullopt;
    span.name = *nameText;
    const auto *ts = doc->find("ts");
    const auto tsVal = ts ? ts->asUint() : std::nullopt;
    if (!tsVal)
        return std::nullopt;
    span.startUs = *tsVal;
    if (const auto *f = doc->find("cat"))
        span.category = f->asString().value_or("");
    if (const auto *f = doc->find("dur"))
        span.durUs = f->asUint().value_or(0);
    if (const auto *f = doc->find("tid")) {
        const std::uint64_t tid = f->asUint().value_or(0);
        if (tid > UINT32_MAX) // would wrap onto another thread's track
            return std::nullopt;
        span.tid = static_cast<std::uint32_t>(tid);
    }
    if (traceId != nullptr) {
        const auto *trace = doc->find("trace");
        *traceId = trace ? trace->asString().value_or("") : "";
    }
    return span;
}

} // namespace critics::obs
