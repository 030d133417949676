#include "serve/protocol.hh"

#include <cerrno>
#include <cmath>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include "runner/job.hh"
#include "runner/result_store.hh"
#include "support/json.hh"

namespace critics::serve
{

void
setNoDelay(int fd)
{
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool
sendAll(int fd, std::string_view bytes)
{
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + sent,
                                 bytes.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

void
LineReader::feed(const char *data, std::size_t len)
{
    if (!overflowed_)
        buffer_.append(data, len);
}

std::optional<std::string>
LineReader::nextLine()
{
    const auto pos = buffer_.find('\n', scanned_);
    const std::size_t length =
        pos == std::string::npos ? buffer_.size() : pos;
    if (length > maxLine_) {
        overflowed_ = true;
        std::string().swap(buffer_);
        scanned_ = 0;
        return std::nullopt;
    }
    if (pos == std::string::npos) {
        scanned_ = buffer_.size();
        return std::nullopt;
    }
    std::string line = buffer_.substr(0, pos);
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
    buffer_.erase(0, pos + 1);
    scanned_ = 0;
    return line;
}

namespace
{

const char *
opName(Request::Op op)
{
    switch (op) {
      case Request::Op::Submit: return "submit";
      case Request::Op::Status: return "status";
      case Request::Op::Wait: return "wait";
      case Request::Op::Ping: return "ping";
      case Request::Op::Stats: return "stats";
      case Request::Op::Shutdown: return "shutdown";
    }
    return "ping";
}

std::optional<Request::Op>
opOf(const std::string &name)
{
    if (name == "submit")
        return Request::Op::Submit;
    if (name == "status")
        return Request::Op::Status;
    if (name == "wait")
        return Request::Op::Wait;
    if (name == "ping")
        return Request::Op::Ping;
    if (name == "stats")
        return Request::Op::Stats;
    if (name == "shutdown")
        return Request::Op::Shutdown;
    return std::nullopt;
}

void
fail(std::string *error, const std::string &what)
{
    if (error != nullptr)
        *error = what;
}

const std::string kInstsRange = "\"insts\" must be an integer in 1.." +
                                std::to_string(runner::kMaxInsts);

} // namespace

std::optional<Request>
parseRequest(const std::string &line, std::string *error)
{
    const auto doc = json::parseJson(line);
    if (!doc || !doc->isObject()) {
        fail(error, "request is not a JSON object");
        return std::nullopt;
    }
    const auto *opField = doc->find("op");
    const auto opText = opField ? opField->asString() : std::nullopt;
    if (!opText) {
        fail(error, "request has no \"op\"");
        return std::nullopt;
    }
    const auto op = opOf(*opText);
    if (!op) {
        fail(error, "unknown op '" + *opText + "'");
        return std::nullopt;
    }

    Request request;
    request.op = *op;
    if (*op == Request::Op::Status || *op == Request::Op::Wait) {
        const auto *job = doc->find("job");
        const auto id = job ? job->asString() : std::nullopt;
        if (!id || id->empty()) {
            fail(error, "status/wait needs a \"job\" id");
            return std::nullopt;
        }
        request.job = *id;
    }
    if (*op == Request::Op::Submit) {
        SubmitRequest &s = request.submit;
        if (const auto *f = doc->find("batch")) {
            const auto v = f->asString();
            if (!v || v->empty()) {
                fail(error, "\"batch\" must be a non-empty string");
                return std::nullopt;
            }
            s.batch = *v;
        }
        if (const auto *f = doc->find("apps")) {
            const auto v = f->asString();
            if (!v) {
                fail(error, "\"apps\" must be a string");
                return std::nullopt;
            }
            s.apps = *v;
        }
        if (const auto *f = doc->find("variants")) {
            const auto v = f->asString();
            if (!v) {
                fail(error, "\"variants\" must be a string");
                return std::nullopt;
            }
            s.variants = *v;
        }
        if (const auto *f = doc->find("insts")) {
            const auto v = f->asUint();
            if (!v || *v == 0 || *v > runner::kMaxInsts) {
                fail(error, kInstsRange);
                return std::nullopt;
            }
            s.insts = *v;
        }
        if (const auto *f = doc->find("refresh")) {
            const auto v = f->asBool();
            if (!v) {
                fail(error, "\"refresh\" must be a bool");
                return std::nullopt;
            }
            s.refresh = *v;
        }
        if (const auto *f = doc->find("sleep-ms")) {
            const auto v = f->asUint();
            if (!v) {
                fail(error, "\"sleep-ms\" must be an integer");
                return std::nullopt;
            }
            s.sleepMs = *v;
        }
    }
    return request;
}

std::string
renderRequest(const Request &request)
{
    json::JsonWriter w;
    w.beginObject().field("op", opName(request.op));
    if (request.op == Request::Op::Status ||
        request.op == Request::Op::Wait) {
        w.field("job", request.job);
    }
    if (request.op == Request::Op::Submit) {
        const SubmitRequest &s = request.submit;
        w.field("batch", s.batch)
            .field("apps", s.apps)
            .field("variants", s.variants)
            .field("insts", s.insts)
            .field("refresh", s.refresh);
        if (s.sleepMs > 0)
            w.field("sleep-ms", s.sleepMs);
    }
    w.endObject();
    return w.str();
}

std::string
renderJobEvent(const JobEvent &event)
{
    json::JsonWriter w;
    w.beginObject()
        .field("event", "job")
        .field("hash", event.hash)
        .field("app", event.app)
        .field("variant", event.variant)
        .field("ok", event.ok)
        .field("from-cache", event.fromCache);
    if (event.wallSeconds > 0.0)
        w.fieldReadable("wall-s", event.wallSeconds);
    if (!event.error.empty())
        w.field("error", event.error);
    if (event.result) // the store's bit-exact rendering, verbatim
        return w.str() + ",\"result\":" +
               runner::resultToJson(*event.result) + "}";
    w.endObject();
    return w.str();
}

std::optional<JobEvent>
parseJobEvent(const std::string &line, bool fromWorker)
{
    const auto doc = json::parseJson(line);
    if (!doc || !doc->isObject())
        return std::nullopt;
    const auto *kind = doc->find("event");
    const auto kindText = kind ? kind->asString() : std::nullopt;
    if (!kindText || *kindText != "job")
        return std::nullopt;

    JobEvent event;
    const auto *hash = doc->find("hash");
    const auto hashText = hash ? hash->asString() : std::nullopt;
    if (!hashText || hashText->empty())
        return std::nullopt;
    event.hash = *hashText;
    if (const auto *f = doc->find("app"))
        event.app = f->asString().value_or("");
    if (const auto *f = doc->find("variant"))
        event.variant = f->asString().value_or("");
    if (const auto *f = doc->find("ok"))
        event.ok = f->asBool().value_or(false);
    if (const auto *f = doc->find("from-cache"))
        event.fromCache = f->asBool().value_or(false);
    if (const auto *f = doc->find("wall-s")) {
        // renderJobEvent writes only finite positive times; a negative,
        // infinite or NaN one would not survive a re-render.
        const auto wall = f->asDouble();
        if (!wall || !std::isfinite(*wall) || *wall < 0.0)
            return std::nullopt;
        event.wallSeconds = *wall;
    }
    if (const auto *f = doc->find("error"))
        event.error = f->asString().value_or("");
    if (const auto *f = doc->find("result")) {
        event.result = runner::resultFromJson(*f);
        if (!event.result)
            return std::nullopt;
    }
    if (fromWorker && event.ok && !event.fromCache && !event.result)
        return std::nullopt;
    return event;
}

std::string
renderWorkerBatch(const WorkerBatch &batch)
{
    json::JsonWriter w;
    w.beginObject()
        .field("op", "batch")
        .field("batch", batch.batch)
        .field("apps", batch.apps)
        .field("variants", batch.variants)
        .field("insts", batch.insts);
    w.beginArray("hashes");
    for (const auto &hash : batch.hashes)
        w.element(hash);
    w.endArray();
    if (batch.sleepMs > 0)
        w.field("sleep-ms", batch.sleepMs);
    if (!batch.traceId.empty())
        w.field("trace-id", batch.traceId);
    if (!batch.profile.empty())
        w.field("profile", batch.profile);
    w.endObject();
    return w.str();
}

std::optional<WorkerBatch>
parseWorkerBatch(const std::string &line, std::string *error)
{
    const auto doc = json::parseJson(line);
    if (!doc || !doc->isObject()) {
        fail(error, "batch line is not a JSON object");
        return std::nullopt;
    }
    const auto *op = doc->find("op");
    if (op == nullptr || op->asString() != "batch") {
        fail(error, "batch line has no \"op\":\"batch\"");
        return std::nullopt;
    }
    WorkerBatch batch;
    // A required string must be there and non-empty; an optional one
    // may be absent but not empty (the renderer leaves it out).
    auto text = [&](const char *key, std::string &out, bool required) {
        const auto *f = doc->find(key);
        if (f == nullptr && !required)
            return true;
        const auto v = f ? f->asString() : std::nullopt;
        if (!v || v->empty()) {
            fail(error, std::string("\"") + key +
                            "\" must be a non-empty string");
            return false;
        }
        out = *v;
        return true;
    };
    if (!text("batch", batch.batch, true) ||
        !text("apps", batch.apps, true) ||
        !text("variants", batch.variants, true) ||
        !text("trace-id", batch.traceId, false) ||
        !text("profile", batch.profile, false))
        return std::nullopt;

    const auto *insts = doc->find("insts");
    const auto instsVal = insts ? insts->asUint() : std::nullopt;
    if (!instsVal || *instsVal == 0 || *instsVal > runner::kMaxInsts) {
        fail(error, kInstsRange);
        return std::nullopt;
    }
    batch.insts = *instsVal;
    if (const auto *f = doc->find("sleep-ms")) {
        // Rendered only when positive.
        const auto v = f->asUint();
        if (!v || *v == 0) {
            fail(error, "\"sleep-ms\" must be a positive integer");
            return std::nullopt;
        }
        batch.sleepMs = *v;
    }
    const auto *hashes = doc->find("hashes");
    if (hashes == nullptr || !hashes->isArray()) {
        fail(error, "\"hashes\" must be an array");
        return std::nullopt;
    }
    for (const auto &element : hashes->elements) {
        const auto hash = element.asString();
        if (!hash || hash->empty()) {
            fail(error, "\"hashes\" must hold non-empty strings");
            return std::nullopt;
        }
        batch.hashes.push_back(*hash);
    }
    return batch;
}

std::string
renderShardDone()
{
    return "{\"event\":\"shard-done\"}";
}

bool
parseShardDone(const std::string &line)
{
    const auto doc = json::parseJson(line);
    const auto *kind = doc && doc->isObject() ? doc->find("event") : nullptr;
    return kind != nullptr && kind->asString() == "shard-done";
}

} // namespace critics::serve
