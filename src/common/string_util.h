#ifndef EVA_COMMON_STRING_UTIL_H_
#define EVA_COMMON_STRING_UTIL_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace eva {

/// ASCII lower-casing (identifiers in EVA-QL are case-insensitive).
std::string ToLower(const std::string& s);
std::string ToUpper(const std::string& s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// True if `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Percent-escaping for the whitespace-separated text lines of the
/// manifest, lifecycle, WAL and predicate encodings: every byte <= 0x20,
/// 0x7f and '%' becomes %XX, and the empty string becomes "%" so a token
/// is never empty. PercentUnescape inverts it exactly and rejects a
/// truncated escape or a non-hex digit.
std::string PercentEscape(const std::string& s);
Result<std::string> PercentUnescape(const std::string& s);

}  // namespace eva

#endif  // EVA_COMMON_STRING_UTIL_H_
