#include "stats/trace_event.hh"

#include <cstdio>

#include "support/json.hh"
#include "support/logging.hh"

namespace critics::stats
{

void
TraceEventWriter::push(Event event)
{
    std::lock_guard<std::mutex> guard(lock_);
    // Metadata events always land: they are few and a trace without
    // track names is much harder to read than one missing spans.
    if (event.phase != 'M' && events_.size() >= maxEvents_) {
        ++dropped_;
        return;
    }
    events_.push_back(std::move(event));
}

void
TraceEventWriter::complete(const std::string &name,
                           const std::string &category, std::uint64_t ts,
                           std::uint64_t dur, std::uint32_t pid,
                           std::uint32_t tid)
{
    Event e;
    e.phase = 'X';
    e.name = name;
    e.category = category;
    e.ts = ts;
    e.dur = dur;
    e.pid = pid;
    e.tid = tid;
    push(std::move(e));
}

void
TraceEventWriter::complete(const std::string &name,
                           const std::string &category, std::uint64_t ts,
                           std::uint64_t dur, std::uint32_t pid,
                           std::uint32_t tid, const std::string &argName,
                           double argValue)
{
    Event e;
    e.phase = 'X';
    e.name = name;
    e.category = category;
    e.ts = ts;
    e.dur = dur;
    e.pid = pid;
    e.tid = tid;
    e.numArgs.emplace_back(argName, argValue);
    push(std::move(e));
}

void
TraceEventWriter::complete(const std::string &name,
                           const std::string &category, std::uint64_t ts,
                           std::uint64_t dur, std::uint32_t pid,
                           std::uint32_t tid, const std::string &argName,
                           const std::string &argValue)
{
    Event e;
    e.phase = 'X';
    e.name = name;
    e.category = category;
    e.ts = ts;
    e.dur = dur;
    e.pid = pid;
    e.tid = tid;
    e.strArgs.emplace_back(argName, argValue);
    push(std::move(e));
}

void
TraceEventWriter::setProcessName(std::uint32_t pid, const std::string &name)
{
    Event e;
    e.phase = 'M';
    e.name = "process_name";
    e.pid = pid;
    e.strArgs.emplace_back("name", name);
    push(std::move(e));
}

void
TraceEventWriter::setThreadName(std::uint32_t pid, std::uint32_t tid,
                                const std::string &name)
{
    Event e;
    e.phase = 'M';
    e.name = "thread_name";
    e.pid = pid;
    e.tid = tid;
    e.strArgs.emplace_back("name", name);
    push(std::move(e));
}

std::size_t
TraceEventWriter::size() const
{
    std::lock_guard<std::mutex> guard(lock_);
    return events_.size();
}

std::uint64_t
TraceEventWriter::dropped() const
{
    std::lock_guard<std::mutex> guard(lock_);
    return dropped_;
}

std::string
TraceEventWriter::toJson() const
{
    std::lock_guard<std::mutex> guard(lock_);
    json::JsonWriter w;
    w.beginObject();
    w.beginArray("traceEvents");
    for (const auto &e : events_) {
        w.elementObject();
        w.field("name", e.name);
        const char phase[2] = {e.phase, '\0'};
        w.field("ph", phase);
        if (!e.category.empty())
            w.field("cat", e.category);
        w.field("ts", e.ts);
        if (e.phase == 'X')
            w.field("dur", e.dur);
        w.field("pid", e.pid);
        w.field("tid", e.tid);
        if (!e.numArgs.empty() || !e.strArgs.empty()) {
            w.beginObject("args");
            for (const auto &[key, value] : e.numArgs)
                w.fieldReadable(key.c_str(), value);
            for (const auto &[key, value] : e.strArgs)
                w.field(key.c_str(), value);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.field("displayTimeUnit", "ms");
    w.endObject();
    return w.str();
}

bool
TraceEventWriter::writeTo(const std::string &path) const
{
    const std::string doc = toJson();
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out) {
        critics_warn("cannot open trace output '", path, "'");
        return false;
    }
    const bool ok =
        std::fwrite(doc.data(), 1, doc.size(), out) == doc.size();
    std::fclose(out);
    if (!ok)
        critics_warn("short write to trace output '", path, "'");
    return ok;
}

} // namespace critics::stats
