/**
 * @file
 * Strict text → number conversion, shared by the JSON reader and the
 * command-line flag parsers.  The whole text must be one number or
 * the conversion fails; nothing is half-accepted: no trailing bytes
 * ("0x" is not 0), no sign on an unsigned value ("-1" is not
 * 2^64 - 1), no leading whitespace and no silent wrap past a bound
 * ("70000" is not a port).
 */

#ifndef CRITICS_SUPPORT_NUMBER_HH
#define CRITICS_SUPPORT_NUMBER_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

#include "support/logging.hh"

namespace critics
{

constexpr std::uint64_t kUintMax = std::numeric_limits<std::uint64_t>::max();

/** Decimal digits only, with a value of at most `max`. */
inline std::optional<std::uint64_t>
parseUint(const std::string &text, std::uint64_t max = kUintMax)
{
    // strtoull alone would skip leading space, take a sign and stop
    // quietly at the first non-digit.
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const std::uint64_t value = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end != text.c_str() + text.size() || value > max)
        return std::nullopt;
    return value;
}

/** Anything strtod reads (decimal, hex-float "0x1.8p+1", inf, nan),
 *  spanning the whole text. */
inline std::optional<double>
parseDouble(const std::string &text)
{
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    // No errno check: strtod flags a subnormal result with ERANGE, and
    // subnormals are exact values the result store must round-trip.
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size())
        return std::nullopt;
    return value;
}

/** The value of command-line flag `flag` as parseUint() reads it;
 *  fatal, naming the flag, when it is not one. */
inline std::uint64_t
uintFlag(const std::string &flag, const std::string &value,
         std::uint64_t max = kUintMax)
{
    const auto parsed = parseUint(value, max);
    if (!parsed) {
        critics_fatal(flag, " wants an unsigned integer",
                      max < kUintMax ? " <= " + std::to_string(max) : "",
                      ", got '", value, "'");
    }
    return *parsed;
}

/** The value of `flag` as parseDouble() reads it; fatal if not one or
 *  not finite (a nan threshold compares false with everything, so it
 *  would quietly pass every check). */
inline double
doubleFlag(const std::string &flag, const std::string &value)
{
    const auto parsed = parseDouble(value);
    if (!parsed || !std::isfinite(*parsed))
        critics_fatal(flag, " wants a finite number, got '", value, "'");
    return *parsed;
}

/** `flag`'s value "900", "900s", "15m", "12h" or "30d" → seconds. */
inline std::uint64_t
parseDuration(const std::string &flag, const std::string &text)
{
    std::uint64_t scale = 1;
    std::string digits = text;
    switch (text.empty() ? '\0' : text.back()) {
      case 'd': scale = 86400; digits.pop_back(); break;
      case 'h': scale = 3600; digits.pop_back(); break;
      case 'm': scale = 60; digits.pop_back(); break;
      case 's': scale = 1; digits.pop_back(); break;
      default: break;
    }
    const auto value = parseUint(digits, kUintMax / scale);
    if (!value) {
        critics_fatal(flag, " wants a duration like 900, 900s, 15m, ",
                      "12h or 30d, got '", text, "'");
    }
    return *value * scale;
}

/** `flag`'s value "65536", "512K", "512M" or "2G" → bytes. */
inline std::uintmax_t
parseBytes(const std::string &flag, const std::string &text)
{
    std::uintmax_t scale = 1;
    std::string digits = text;
    switch (text.empty() ? '\0' : text.back()) {
      case 'K': case 'k': scale = 1024ull; digits.pop_back(); break;
      case 'M': case 'm': scale = 1024ull << 10; digits.pop_back(); break;
      case 'G': case 'g': scale = 1024ull << 20; digits.pop_back(); break;
      default: break;
    }
    const auto value = parseUint(digits, kUintMax / scale);
    if (!value) {
        critics_fatal(flag, " wants a size like 65536, 512K, 512M or ",
                      "2G, got '", text, "'");
    }
    return *value * scale;
}

} // namespace critics

#endif // CRITICS_SUPPORT_NUMBER_HH
