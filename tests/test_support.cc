/**
 * @file
 * Unit tests for histograms, logging, the JSON
 * reader under repeated keys and seeded mutations, strict number
 * parsing, the flag table and the table renderer.
 */

#include <gtest/gtest.h>

#include "support/flags.hh"
#include "support/histogram.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/number.hh"
#include "support/rng.hh"
#include "support/table.hh"

#include <cstdlib>

using namespace critics;

TEST(Histogram, FractionsAndPercentiles)
{
    Histogram h;
    h.add(1, 1.0);
    h.add(2, 2.0);
    h.add(10, 1.0);
    EXPECT_DOUBLE_EQ(h.fraction(2), 0.5);
    EXPECT_DOUBLE_EQ(h.fraction(3), 0.0);
    EXPECT_EQ(h.maxBucket(), 10);
    EXPECT_EQ(h.percentile(0.5), 2);
    EXPECT_EQ(h.percentile(0.99), 10);
}

TEST(Histogram, MergeAdds)
{
    Histogram a, b;
    a.add(1);
    b.add(1);
    b.add(5, 3.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.at(1), 2.0);
    EXPECT_DOUBLE_EQ(a.at(5), 3.0);
    EXPECT_DOUBLE_EQ(a.fraction(5), 0.6); // the totals add too
}

TEST(Histogram, EmptyIsSafe)
{
    Histogram h;
    EXPECT_DOUBLE_EQ(h.fraction(3), 0.0);
    EXPECT_EQ(h.percentile(0.5), 0);
    EXPECT_EQ(h.maxBucket(), 0);
}

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(critics_panic("boom ", 42), std::logic_error);
}

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(critics_fatal("bad config"), std::runtime_error);
}

TEST(Logging, AssertPassesAndFails)
{
    EXPECT_NO_THROW(critics_assert(1 + 1 == 2, "fine"));
    EXPECT_THROW(critics_assert(false, "nope"), std::logic_error);
}

TEST(Table, RendersAllCells)
{
    Table t({"app", "speedup"});
    t.addRow({"Acrobat", "15%"});
    t.addRow({"Music", "9%"});
    const std::string text = t.render();
    for (const char *needle : {"app", "speedup", "Acrobat", "15%",
                               "Music", "9%"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsWrongWidth)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::logic_error);
}

TEST(Formatting, Helpers)
{
    EXPECT_EQ(fmt(12.3456, 2), "12.35");
    EXPECT_EQ(pct(0.1265, 2), "12.65%");
    EXPECT_EQ(gainPct(1.1265, 2), "12.65%");
    EXPECT_EQ(gainPct(0.95, 1), "-5.0%");
}

// ---------------------------------------------------------------------------
// The shared JSON escape helper (sim/report and runner/json both rely
// on it for every string they serialize).

TEST(JsonEscape, QuotesAndBackslashes)
{
    EXPECT_EQ(critics::json::jsonEscape("say \"hi\""),
              "say \\\"hi\\\"");
    EXPECT_EQ(critics::json::jsonEscape("a\\b"), "a\\\\b");
}

TEST(JsonEscape, ControlCharacters)
{
    EXPECT_EQ(critics::json::jsonEscape("a\nb\tc\rd"),
              "a\\nb\\tc\\rd");
    // Other C0 controls become \u00XX.
    EXPECT_EQ(critics::json::jsonEscape(std::string("\x01\x1f", 2)),
              "\\u0001\\u001f");
    EXPECT_EQ(critics::json::jsonEscape(std::string("\0", 1)),
              "\\u0000");
}

TEST(JsonEscape, NonAsciiPassesThrough)
{
    // UTF-8 multi-byte sequences are legal in JSON strings unescaped.
    const std::string utf8 = "caf\xc3\xa9 \xe2\x82\xac";
    EXPECT_EQ(critics::json::jsonEscape(utf8), utf8);
}

TEST(JsonEscape, RoundTripsThroughParser)
{
    const std::string nasty = "line1\nline2\t\"quoted\" \\ end";
    const auto doc = critics::json::parseJson(
        "{\"key\":\"" + critics::json::jsonEscape(nasty) + "\"}");
    ASSERT_TRUE(doc.has_value());
    const auto *value = doc->find("key");
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(value->asString().value_or(""), nasty);
}

// ---------------------------------------------------------------------------
// The JSON reader

namespace
{

/** Canonical text of a parsed value: members in parsed order, strings
 *  through jsonEscape, numbers as their raw spelling. */
std::string
render(const json::JsonValue &v)
{
    using Kind = json::JsonValue::Kind;
    switch (v.kind) {
      case Kind::Null: return "null";
      case Kind::Bool: return v.boolean ? "true" : "false";
      case Kind::Number: return v.text;
      case Kind::String: return "\"" + json::jsonEscape(v.text) + "\"";
      case Kind::Object: {
        std::string out = "{";
        for (const auto &[key, member] : v.members) {
            if (out.size() > 1)
                out += ',';
            out += "\"" + json::jsonEscape(key) + "\":" + render(member);
        }
        return out + "}";
      }
      case Kind::Array: {
        std::string out = "[";
        for (const auto &element : v.elements) {
            if (out.size() > 1)
                out += ',';
            out += render(element);
        }
        return out + "]";
      }
    }
    return "?";
}

bool
sameValue(const json::JsonValue &a, const json::JsonValue &b)
{
    if (a.kind != b.kind || a.boolean != b.boolean || a.text != b.text ||
        a.members.size() != b.members.size() ||
        a.elements.size() != b.elements.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.members.size(); ++i) {
        if (a.members[i].first != b.members[i].first ||
            !sameValue(a.members[i].second, b.members[i].second)) {
            return false;
        }
    }
    for (std::size_t i = 0; i < a.elements.size(); ++i) {
        if (!sameValue(a.elements[i], b.elements[i]))
            return false;
    }
    return true;
}

} // namespace

TEST(Json, RepeatedKeyIsRefused)
{
    // find() answers with the first match, so a repeated key would let
    // a document say two things and be read as the first.
    EXPECT_FALSE(json::parseJson("{\"a\":1,\"a\":2}").has_value());
    EXPECT_FALSE(json::parseJson("{\"a\":1,\"a\":1}").has_value());
    EXPECT_FALSE(
        json::parseJson("{\"o\":{\"k\":true,\"k\":false}}").has_value());
    EXPECT_FALSE(
        json::parseJson("[{\"x\":null},{\"y\":1,\"y\":[]}]").has_value());
    // Escapes decode before the comparison: "\u0061" is "a".
    EXPECT_FALSE(json::parseJson("{\"a\":1,\"\\u0061\":2}").has_value());
    // The same key in sibling or nested objects is no repeat.
    const auto doc = json::parseJson(
        "{\"a\":{\"a\":1},\"b\":[{\"a\":2},{\"a\":3}]}");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->members.size(), 2u);
}

TEST(Json, NestingBeyondTheCapIsRefused)
{
    auto nested = [](std::size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_TRUE(json::parseJson(nested(128)).has_value());
    EXPECT_FALSE(json::parseJson(nested(129)).has_value());
    // Deep enough to overflow the stack without the cap.
    EXPECT_FALSE(json::parseJson(nested(1000000)).has_value());
    EXPECT_FALSE(json::parseJson("{\"a\":" + nested(200) + "}").has_value());
}

TEST(Json, MutatedDocumentsRoundTripOrAreRejected)
{
    // Seeded byte flips, truncations and inserted quotes or braces in
    // documents that use every kind of value.  A mutant is refused, or
    // it decodes to a value whose canonical rendering parses back to
    // the same value — what its bytes encode, nothing half-read.  A
    // truncated document lost its closing brace: never accepted.
    const std::vector<std::string> good = {
        "{\"schema\":7,\"hash\":\"9f86d081884c7d65\",\"ok\":true,"
        "\"none\":null,\"wall\":\"0x1.8p+1\",\"n\":-12.5e+3}",
        "{\"op\":\"submit\",\"apps\":\"Acrobat,Office\","
        "\"list\":[1,[2,{\"k\":false}],\"s\"],\"nested\":{\"a\":{}}}",
        "{\"text\":\"tab\\there \\\"quoted\\\" \\\\ \\u00e9 \\/\",\"e\":[]}",
    };
    for (const auto &doc : good)
        ASSERT_TRUE(json::parseJson(doc).has_value()) << doc;

    constexpr int kMutations = 4000;
    Rng rng(20261018);
    int accepted = 0;
    for (int i = 0; i < kMutations; ++i) {
        std::string text = good[rng.below(good.size())];
        const std::uint64_t op = rng.below(3);
        if (op == 0) { // flip bits of one byte
            char &c = text[rng.below(text.size())];
            c = static_cast<char>(c ^ static_cast<char>(1 + rng.below(255)));
        } else if (op == 1) {
            text.resize(rng.below(text.size()));
        } else {
            text.insert(rng.below(text.size() + 1), 1, "\"{}"[rng.below(3)]);
        }
        SCOPED_TRACE("mutation " + std::to_string(i) + ": " + text);

        const auto parsed = json::parseJson(text);
        if (!parsed)
            continue;
        ++accepted;
        EXPECT_NE(op, 1u);
        const std::string canonical = render(*parsed);
        const auto back = json::parseJson(canonical);
        ASSERT_TRUE(back.has_value()) << canonical;
        EXPECT_TRUE(sameValue(*parsed, *back)) << canonical;
        EXPECT_EQ(render(*back), canonical);
    }
    // Most mutations break the document; a few only change a value.
    EXPECT_GT(accepted, 0);
    EXPECT_LT(accepted, kMutations / 2);
}

TEST(Logging, QuietFlagToggles)
{
    const bool before = critics::quiet();
    critics::setQuiet(true);
    EXPECT_TRUE(critics::quiet());
    critics::setQuiet(false);
    EXPECT_FALSE(critics::quiet());
    critics::setQuiet(before);
}

TEST(Logging, DebugGatedByEnvironment)
{
    // The test binary runs without CRITICS_DEBUG, so no component is
    // enabled (a debug build of the harness may set it; then "all" or
    // the named component would flip these to true, which is fine —
    // only assert the unset case when it really is unset).
    if (::getenv("CRITICS_DEBUG") == nullptr) {
        EXPECT_FALSE(critics::debugEnabled("cpu"));
        EXPECT_FALSE(critics::debugEnabled("no-such-component"));
    }
}

TEST(StrictNumber, UintRejectsWhatStoullHalfAccepts)
{
    EXPECT_EQ(parseUint("5"), 5u);
    EXPECT_EQ(parseUint("18446744073709551615"), kUintMax);
    EXPECT_EQ(parseUint("65535", 65535), 65535u);
    for (const char *bad : {"", "0x", "5x", "-1", "+1", " 5", "5 ", "1e3",
                            "18446744073709551616"}) {
        EXPECT_FALSE(parseUint(bad).has_value()) << "'" << bad << "'";
    }
    EXPECT_FALSE(parseUint("70000", 65535).has_value());
    EXPECT_FALSE(parseUint(std::string("5\0", 2)).has_value());
}

TEST(StrictNumber, DoubleTakesHexFloatsAndRejectsTrailingBytes)
{
    EXPECT_EQ(parseDouble("0.25"), 0.25);
    EXPECT_EQ(parseDouble("0x1.8p+1"), 3.0);
    EXPECT_EQ(parseDouble("-2"), -2.0);
    EXPECT_EQ(parseDouble("0x1p-1074"), 0x1p-1074); // subnormal
    for (const char *bad : {"", "0.5x", " 0.5", "x", "0.5 "})
        EXPECT_FALSE(parseDouble(bad).has_value()) << "'" << bad << "'";
}

TEST(StrictNumber, FlagRejectionIsFatalAndNamesTheFlag)
{
    // The inputs std::stoul used to half-accept: `--reps 0x` ran 5
    // reps, `--insts -1` became 2^64 - 1, `--port 70000` wrapped.
    const std::pair<const char *, const char *> cases[] = {
        {"--reps", "0x"}, {"--insts", "-1"}, {"--port", "70000"},
        {"--rel", "0.5x"}};
    for (const auto &[flag, value] : cases) {
        try {
            if (std::string(flag) == "--rel")
                doubleFlag(flag, value);
            else
                uintFlag(flag, value, 65535);
            ADD_FAILURE() << flag << " " << value << " was accepted";
        } catch (const std::runtime_error &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(flag), std::string::npos) << what;
            EXPECT_NE(what.find(value), std::string::npos) << what;
        }
    }
    EXPECT_EQ(uintFlag("--port", "8080", 65535), 8080u);
    EXPECT_EQ(doubleFlag("--rel", "0.05"), 0.05);
}

TEST(StrictNumber, DurationsAndSizesTakeOneUnitSuffix)
{
    EXPECT_EQ(parseDuration("--max-age", "900"), 900u);
    EXPECT_EQ(parseDuration("--max-age", "15m"), 900u);
    EXPECT_EQ(parseDuration("--max-age", "30d"), 30u * 86400u);
    EXPECT_EQ(parseBytes("--max-bytes", "65536"), 65536u);
    EXPECT_EQ(parseBytes("--max-bytes", "512K"), 512u * 1024u);
    EXPECT_EQ(parseBytes("--max-bytes", "2G"), 2ull << 30);
    for (const char *bad : {"", "d", "1w", "-1d", "1.5h"})
        EXPECT_THROW(parseDuration("--max-age", bad), std::runtime_error)
            << "'" << bad << "'";
    for (const char *bad : {"", "M", "1T", "-1K"})
        EXPECT_THROW(parseBytes("--max-bytes", bad), std::runtime_error)
            << "'" << bad << "'";
}

namespace
{

/** A mutable argv over `strings`. */
struct Argv
{
    explicit Argv(std::vector<std::string> args) : strings(std::move(args))
    {
        for (auto &arg : strings)
            pointers.push_back(arg.data());
    }

    int argc() const { return static_cast<int>(pointers.size()); }
    char **argv() { return pointers.data(); }

    std::vector<std::string> strings;
    std::vector<char *> pointers;
};

/** One flag of each kind, bound to members. */
struct SampleCommand
{
    std::string out = "default";
    std::uint64_t count = 0;
    double rel = 0.0;
    bool quick = false;

    FlagTable
    table(std::size_t minArgs = 0, std::size_t maxArgs = 0)
    {
        return {"tool sample [options] [file]",
                "a sample command whose summary is long enough to wrap "
                "onto a second line of the rendered help",
                {Flag::text("--out", "<file>", "output path", out),
                 Flag::integer("--count", "<n>", "how many", count),
                 Flag::real("--rel", "<frac>", "threshold", rel),
                 Flag::toggle("--quick", "small run", quick)},
                minArgs, maxArgs};
    }
};

} // namespace

TEST(FlagTable, SetsValueFlagsAndSwitches)
{
    SampleCommand cmd;
    Argv argv({"--out", "x.json", "--quick", "--count", "7"});
    std::vector<std::string> args;
    std::string error;
    ASSERT_TRUE(cmd.table().parse(argv.argc(), argv.argv(), &args, &error))
        << error;
    EXPECT_EQ(cmd.out, "x.json");
    EXPECT_EQ(cmd.count, 7u);
    EXPECT_TRUE(cmd.quick);
    EXPECT_EQ(cmd.rel, 0.0); // untouched rows keep their defaults
    EXPECT_TRUE(args.empty());
}

TEST(FlagTable, ValueBeginningWithDashIsTheValue)
{
    SampleCommand cmd;
    Argv argv({"--rel", "-0.5", "--out", "--quick"});
    std::string error;
    ASSERT_TRUE(cmd.table().parse(argv.argc(), argv.argv(), nullptr, &error))
        << error;
    EXPECT_EQ(cmd.rel, -0.5);
    EXPECT_EQ(cmd.out, "--quick");
    EXPECT_FALSE(cmd.quick);
    // ...and a numeric row still rejects it by name.
    Argv negative({"--count", "-1"});
    EXPECT_THROW(cmd.table().parse(negative.argc(), negative.argv(),
                                   nullptr, &error),
                 std::runtime_error);
}

TEST(FlagTable, ValueFlagInLastPlaceIsFatal)
{
    SampleCommand cmd;
    Argv argv({"--quick", "--out"});
    std::string error;
    try {
        cmd.table().parse(argv.argc(), argv.argv(), nullptr, &error);
        ADD_FAILURE() << "a missing value was accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "fatal: --out needs a value");
    }
}

TEST(FlagTable, UnknownFlagIsRefused)
{
    SampleCommand cmd;
    Argv argv({"--quick", "--bogus", "a.jsonl"});
    std::string error;
    EXPECT_FALSE(cmd.table(0, 1).parse(argv.argc(), argv.argv(), nullptr,
                                       &error));
    EXPECT_EQ(error, "unknown flag '--bogus'");
}

TEST(FlagTable, PositionalArityAtMinAndMax)
{
    const struct
    {
        std::size_t lo, hi, given;
        bool ok;
        const char *error;
    } cases[] = {
        {0, 0, 0, true, ""},
        {0, 0, 1, false, "takes no arguments, got 1 ('a')"},
        {1, 1, 0, false, "takes 1 argument, got 0"},
        {1, 1, 1, true, ""},
        {1, 1, 2, false, "takes 1 argument, got 2"},
        {0, 1, 1, true, ""},
        {0, 1, 2, false, "takes at most 1 argument, got 2"},
        {2, FlagTable::kUnbounded, 1, false,
         "takes at least 2 arguments, got 1"},
        {2, FlagTable::kUnbounded, 2, true, ""},
        {2, FlagTable::kUnbounded, 3, true, ""},
    };
    for (const auto &c : cases) {
        SampleCommand cmd;
        std::vector<std::string> words{"--quick"};
        for (std::size_t i = 0; i < c.given; ++i)
            words.push_back(std::string(1, static_cast<char>('a' + i)));
        Argv argv(std::move(words));
        std::vector<std::string> args;
        std::string error;
        EXPECT_EQ(cmd.table(c.lo, c.hi).parse(argv.argc(), argv.argv(),
                                              &args, &error),
                  c.ok)
            << c.lo << ".." << c.hi << " given " << c.given;
        EXPECT_EQ(error, c.error);
        if (c.ok) {
            EXPECT_EQ(args.size(), c.given);
            EXPECT_TRUE(cmd.quick);
        }
    }
}

TEST(FlagTable, HelpRendersEachRowOnce)
{
    SampleCommand cmd;
    const FlagTable table = cmd.table();
    const std::string help = table.help();
    for (const Flag &row : table.flags) {
        std::size_t seen = 0;
        for (auto at = help.find(row.name); at != std::string::npos;
             at = help.find(row.name, at + 1)) {
            ++seen;
        }
        EXPECT_EQ(seen, 1u) << row.name << " in\n" << help;
    }
    EXPECT_NE(help.find("  --count <n>         how many\n"),
              std::string::npos)
        << help;
    EXPECT_NE(help.find("  --quick             small run\n"),
              std::string::npos)
        << help;
    // The synopsis is wider than the help column: the summary starts on
    // the next line and wraps within 72 columns.
    EXPECT_EQ(help.rfind("tool sample [options] [file]\n", 0), 0u) << help;
    std::size_t start = 0;
    for (auto end = help.find('\n'); end != std::string::npos;
         start = end + 1, end = help.find('\n', start)) {
        EXPECT_LE(end - start, 72u) << help.substr(start, end - start);
    }
}
