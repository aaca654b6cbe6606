#ifndef MMDB_UTIL_CRC32C_H_
#define MMDB_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mmdb {
namespace crc32c {

// Returns the CRC-32C (Castagnoli) of data[0..n-1], continuing from
// `init_crc` (the CRC of a preceding byte stretch, or 0 to start fresh).
// Runs the fastest kernel this CPU supports, chosen once at first use:
// SSE4.2 `crc32` over three interleaved lanes combined with PCLMULQDQ on
// x86-64, otherwise a slice-by-8 table loop. Every kernel returns the same
// value (util/crc32c_internal.h lists them).
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }
inline uint32_t Value(std::string_view s) { return Extend(0, s.data(), s.size()); }

// Masking (as in LevelDB): storing the CRC of data that itself embeds CRCs
// is error-prone; the mask permutes the value so nested CRCs stay distinct.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}

inline uint32_t Unmask(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace crc32c
}  // namespace mmdb

#endif  // MMDB_UTIL_CRC32C_H_
