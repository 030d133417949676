/**
 * @file
 * One flag table per command line.  A command declares its flags as
 * rows of {flag, value name, help, setter} plus how many positional
 * arguments it takes; one walk parses argv against the rows and one
 * renderer prints the help from the same rows, so each flag's name is
 * written once.
 *
 * The walk is strict, in the spirit of support/number.hh: a value flag
 * in last place is fatal and names the flag, and an unknown flag or a
 * positional count outside the command's arity is refused instead of
 * half-accepted.  A value is the argument after its flag whatever it
 * looks like, so `--rel -0.5` reads -0.5 and `--insts -1` reaches
 * uintFlag(), which rejects it by name.
 */

#ifndef CRITICS_SUPPORT_FLAGS_HH
#define CRITICS_SUPPORT_FLAGS_HH

#include <cstddef>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "support/number.hh"

namespace critics
{

/** One row of a flag table. */
struct Flag
{
    std::string name;  ///< "--insts"
    std::string value; ///< value name for the help ("<n>"); "" = switch
    std::string help;  ///< one paragraph; the renderer wraps it
    /** Receives the flag's name and its value ("" for a switch). */
    std::function<void(const std::string &flag, const std::string &value)>
        setter;

    /** `name <value>` stores the value verbatim. */
    static Flag
    text(std::string name, std::string value, std::string help,
         std::string &out)
    {
        return {std::move(name), std::move(value), std::move(help),
                [&out](const std::string &, const std::string &v) {
                    out = v;
                }};
    }

    /** The switch `name` sets `out` to `to`. */
    static Flag
    toggle(std::string name, std::string help, bool &out, bool to = true)
    {
        return {std::move(name), "", std::move(help),
                [&out, to](const std::string &, const std::string &) {
                    out = to;
                }};
    }

    /** An unsigned integer no larger than `max`, by default the
     *  largest `T` holds (uintFlag()). */
    template <typename T>
    static Flag
    integer(std::string name, std::string value, std::string help, T &out,
            std::uint64_t max = std::numeric_limits<T>::max())
    {
        return {std::move(name), std::move(value), std::move(help),
                [&out, max](const std::string &flag, const std::string &v) {
                    out = static_cast<T>(uintFlag(flag, v, max));
                }};
    }

    /** A number as doubleFlag() reads it. */
    static Flag
    real(std::string name, std::string value, std::string help,
         double &out)
    {
        return {std::move(name), std::move(value), std::move(help),
                [&out](const std::string &flag, const std::string &v) {
                    out = doubleFlag(flag, v);
                }};
    }
};

/** A command line's flag table and positional arity. */
struct FlagTable
{
    static constexpr std::size_t kUnbounded =
        std::numeric_limits<std::size_t>::max();

    std::string synopsis; ///< "critics_cli run [options]"
    std::string summary;  ///< what the command does
    std::vector<Flag> flags;
    std::size_t minArgs = 0; ///< positional arguments accepted
    std::size_t maxArgs = 0;

    /**
     * Walk `argv`: each flag calls its row's setter, everything that
     * does not begin with '-' is positional.  Returns false, with
     * `*error` saying why, on an unknown flag or a positional count
     * outside [minArgs, maxArgs]; the positionals land in `*args`.
     * A value flag in last place is fatal.
     */
    bool parse(int argc, char **argv, std::vector<std::string> *args,
               std::string *error) const;

    /** The synopsis, the summary and one entry per row, wrapped. */
    std::string help() const;
};

} // namespace critics

#endif // CRITICS_SUPPORT_FLAGS_HH
