#ifndef AGGCACHE_COMMON_STRING_UTIL_H_
#define AGGCACHE_COMMON_STRING_UTIL_H_

#include <cstdarg>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace aggcache {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Joins `parts` with `separator`.
std::string StrJoin(const std::vector<std::string>& parts,
                    const std::string& separator);

/// Splits a comma-separated option list ("events=4096,threads=32", the
/// AGGCACHE_* spec style) into its key=value pairs, in order. Parts
/// without an '=' are skipped.
std::vector<std::pair<std::string, std::string>> SplitKeyValues(
    std::string_view spec);

/// Appends `s` to `out` escaped for the inside of a JSON string literal:
/// quote and backslash are backslash-escaped, newline and tab become \n
/// and \t, every other control byte becomes \u00XX. Bytes >= 0x20 pass
/// through unchanged (UTF-8 stays UTF-8).
void AppendJsonEscaped(std::string* out, std::string_view s);

/// AppendJsonEscaped into a fresh string, for stream-style callers.
std::string JsonEscape(std::string_view s);

/// Renders a byte count as "12.3 KiB" / "4.5 MiB" etc.
std::string HumanBytes(size_t bytes);

}  // namespace aggcache

#endif  // AGGCACHE_COMMON_STRING_UTIL_H_
