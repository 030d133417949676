#include "support/flags.hh"

#include <algorithm>
#include <sstream>

#include "support/logging.hh"

namespace critics
{

namespace
{

/** Help text starts in this column and wraps before kWidth. */
constexpr std::size_t kHelpColumn = 22;
constexpr std::size_t kWidth = 72;

/** `left` followed by `text` word-wrapped into the help column; the
 *  text starts on the next line when `left` reaches the column. */
void
renderEntry(std::ostringstream &out, const std::string &left,
            const std::string &text)
{
    std::string line = left;
    bool lineHasWords = false;
    auto breakLine = [&] {
        out << line << "\n";
        line.clear();
        lineHasWords = false;
    };
    if (line.size() + 1 > kHelpColumn)
        breakLine();
    std::istringstream words(text);
    std::string word;
    while (words >> word) {
        if (lineHasWords && line.size() + 1 + word.size() > kWidth)
            breakLine();
        line.resize(std::max(line.size(), kHelpColumn), ' ');
        if (lineHasWords)
            line += ' ';
        line += word;
        lineHasWords = true;
    }
    if (lineHasWords || !line.empty())
        breakLine();
}

std::string
arityText(std::size_t lo, std::size_t hi)
{
    const auto count = [](std::size_t n) {
        return std::to_string(n) + (n == 1 ? " argument" : " arguments");
    };
    if (hi == FlagTable::kUnbounded)
        return "at least " + count(lo);
    if (lo == hi)
        return lo == 0 ? "no arguments" : count(lo);
    if (lo == 0)
        return "at most " + count(hi);
    return std::to_string(lo) + " to " + count(hi);
}

} // namespace

bool
FlagTable::parse(int argc, char **argv, std::vector<std::string> *args,
                 std::string *error) const
{
    std::vector<std::string> positional;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.empty() || arg[0] != '-') {
            positional.push_back(arg);
            continue;
        }
        const auto row =
            std::find_if(flags.begin(), flags.end(),
                         [&arg](const Flag &f) { return f.name == arg; });
        if (row == flags.end()) {
            *error = "unknown flag '" + arg + "'";
            return false;
        }
        if (row->value.empty()) {
            row->setter(arg, "");
            continue;
        }
        if (i + 1 >= argc)
            critics_fatal(arg, " needs a value");
        row->setter(arg, argv[++i]);
    }
    if (positional.size() < minArgs || positional.size() > maxArgs) {
        *error = "takes " + arityText(minArgs, maxArgs) + ", got " +
                 std::to_string(positional.size());
        if (maxArgs == 0)
            *error += " ('" + positional.front() + "')";
        return false;
    }
    if (args != nullptr)
        *args = std::move(positional);
    return true;
}

std::string
FlagTable::help() const
{
    std::ostringstream out;
    renderEntry(out, synopsis, summary);
    for (const Flag &f : flags) {
        renderEntry(out,
                    "  " + f.name + (f.value.empty() ? "" : " " + f.value),
                    f.help);
    }
    return out.str();
}

} // namespace critics
