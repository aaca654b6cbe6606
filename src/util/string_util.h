#ifndef MMDB_UTIL_STRING_UTIL_H_
#define MMDB_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mmdb {

// printf-style formatting into a std::string.
std::string StringPrintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> StrSplit(std::string_view s, char sep);

// "1234567" -> "1,234,567" (for bench tables).
std::string WithThousandsSeparators(uint64_t n);

// Human-readable byte/word counts: 8192 -> "8.0Ki".
std::string HumanReadableCount(double n);

// Parses all of `text` as a base-10 unsigned integer, or as a finite
// double. False, leaving *out untouched, on an empty string, a leading
// sign or space (unsigned) or space (double), trailing characters, or a
// value out of range — so "banana", "5%" and "-1" never read as numbers.
bool ParseNumber(std::string_view text, uint64_t* out);
bool ParseNumber(std::string_view text, double* out);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

}  // namespace mmdb

#endif  // MMDB_UTIL_STRING_UTIL_H_
