#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace mmdb {

std::string StringPrintf(const char* format, ...) {
  va_list ap;
  va_start(ap, format);
  char fixed[512];
  int n = std::vsnprintf(fixed, sizeof(fixed), format, ap);
  va_end(ap);
  if (n < 0) return std::string();
  if (static_cast<size_t>(n) < sizeof(fixed)) return std::string(fixed, n);
  std::string result(n, '\0');
  va_start(ap, format);
  std::vsnprintf(result.data(), n + 1, format, ap);
  va_end(ap);
  return result;
}

std::vector<std::string> StrSplit(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string WithThousandsSeparators(uint64_t n) {
  std::string digits = std::to_string(n);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  return std::string(out.rbegin(), out.rend());
}

std::string HumanReadableCount(double n) {
  static const char* kSuffixes[] = {"", "Ki", "Mi", "Gi", "Ti"};
  int i = 0;
  while (n >= 1024.0 && i < 4) {
    n /= 1024.0;
    ++i;
  }
  return StringPrintf("%.1f%s", n, kSuffixes[i]);
}

bool ParseNumber(std::string_view text, uint64_t* out) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  const std::string s(text);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

bool ParseNumber(std::string_view text, double* out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  const std::string s(text);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (*end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

}  // namespace mmdb
