#include "util/crc32c.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "util/crc32c_internal.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
// The hardware kernel is compiled with a per-function target attribute, so
// the rest of the binary keeps the baseline ISA and still runs on CPUs
// without SSE4.2; dispatch only calls the kernel on CPUs that have it.
#define MMDB_CRC32C_HW 1
#define MMDB_CRC32C_HW_TARGET __attribute__((target("sse4.2,pclmul")))
#include <immintrin.h>
#endif

namespace mmdb {
namespace crc32c {
namespace {

// CRC-32C polynomial, reflected.
constexpr uint32_t kPoly = 0x82f63b78u;

// Slice-by-8 (Intel's "slicing-by-8" technique, pure table C++ — no
// intrinsics): table[0] is the classic byte-at-a-time table; table[k][b]
// is the CRC contribution of byte b seen k positions earlier in the
// 8-byte block, so one loop iteration folds 8 input bytes with 8 table
// lookups and two 32-bit loads instead of 8 dependent byte steps.
struct Tables {
  std::array<std::array<uint32_t, 256>, 8> t;
};

Tables MakeTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables.t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = tables.t[0][i];
    for (int k = 1; k < 8; ++k) {
      crc = tables.t[0][crc & 0xff] ^ (crc >> 8);
      tables.t[k][i] = crc;
    }
  }
  return tables;
}

const Tables& SlicedTables() {
  static const Tables tables = MakeTables();
  return tables;
}

inline uint32_t LoadLE32(const char* p) {
  // Byte-shift assembly keeps the kernel endian-independent; compilers
  // collapse it to a single load on little-endian targets.
  const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

uint32_t ExtendSliceBy8(uint32_t init_crc, const char* data, size_t n) {
  const Tables& tables = SlicedTables();
  const auto& t = tables.t;
  uint32_t crc = init_crc ^ 0xffffffffu;
  // Below ~16 bytes the setup outweighs the slicing win; the byte loop at
  // the bottom handles short inputs and the tail alike.
  while (n >= 8) {
    uint32_t lo = LoadLE32(data) ^ crc;
    uint32_t hi = LoadLE32(data + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
          t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^ t[3][hi & 0xff] ^
          t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    data += 8;
    n -= 8;
  }
  for (size_t i = 0; i < n; ++i) {
    crc = t[0][(crc ^ static_cast<unsigned char>(data[i])) & 0xff] ^
          (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

#ifdef MMDB_CRC32C_HW

// x^n mod P, reflected (bit 31 - i holds the coefficient of x^i).
constexpr uint32_t XPowModP(size_t n) {
  uint32_t v = 0x80000000u;  // x^0
  for (size_t i = 0; i < n; ++i) v = (v & 1) ? (v >> 1) ^ kPoly : v >> 1;
  return v;
}

// The multiplier that advances a CRC register past `bytes` more bytes,
// S -> S * x^(8 bytes) mod P. Read as a reflected 64-bit value, the
// carry-less product of two reflected 32-bit values is their product
// times x, and crc32 of a 64-bit word from a zero register multiplies it
// by x^32 mod P, so the constant is x^(8 bytes - 33).
constexpr uint32_t ShiftConstant(size_t bytes) {
  return XPowModP(8 * bytes - 33);
}

inline uint64_t Load64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

MMDB_CRC32C_HW_TARGET inline uint64_t ClMul(uint64_t a, uint32_t b) {
  const __m128i product = _mm_clmulepi64_si128(
      _mm_cvtsi64_si128(static_cast<long long>(a)),
      _mm_cvtsi32_si128(static_cast<int>(b)), 0x00);
  return static_cast<uint64_t>(_mm_cvtsi128_si64(product));
}

// One block of three kLane-byte lanes. crc32 has a latency of three cycles
// and a throughput of one, so three independent chains keep the unit
// busy. Lanes 1 and 2 start from zero; lane 0's register is then shifted
// past the two lanes after it and lane 1's past one, each with a single
// carry-less multiply, and the products fold into lane 2 (CRC is linear).
template <size_t kLane>
MMDB_CRC32C_HW_TARGET inline uint64_t ThreeLaneBlock(uint64_t crc,
                                                     const char* p) {
  static_assert(kLane % 8 == 0 && 8 * kLane > 33);
  constexpr uint32_t kPastOneLane = ShiftConstant(kLane);
  constexpr uint32_t kPastTwoLanes = ShiftConstant(2 * kLane);
  uint64_t crc1 = 0;
  uint64_t crc2 = 0;
  for (size_t i = 0; i < kLane; i += 8) {
    crc = _mm_crc32_u64(crc, Load64(p + i));
    crc1 = _mm_crc32_u64(crc1, Load64(p + kLane + i));
    crc2 = _mm_crc32_u64(crc2, Load64(p + 2 * kLane + i));
  }
  return _mm_crc32_u64(0, ClMul(crc, kPastTwoLanes) ^
                              ClMul(crc1, kPastOneLane)) ^
         crc2;
}

MMDB_CRC32C_HW_TARGET uint32_t ExtendSse42(uint32_t init_crc,
                                           const char* data, size_t n) {
  constexpr size_t kLong = internal::kHwLongBlock / 3;
  constexpr size_t kShort = internal::kHwShortBlock / 3;
  uint64_t crc = init_crc ^ 0xffffffffu;
  for (; n >= 3 * kLong; n -= 3 * kLong, data += 3 * kLong) {
    crc = ThreeLaneBlock<kLong>(crc, data);
  }
  for (; n >= 3 * kShort; n -= 3 * kShort, data += 3 * kShort) {
    crc = ThreeLaneBlock<kShort>(crc, data);
  }
  // Short inputs and tails: a single lane, eight bytes at a time.
  for (; n >= 8; n -= 8, data += 8) crc = _mm_crc32_u64(crc, Load64(data));
  uint32_t tail = static_cast<uint32_t>(crc);
  for (; n > 0; --n, ++data) {
    tail = _mm_crc32_u8(tail, static_cast<unsigned char>(*data));
  }
  return tail ^ 0xffffffffu;
}

bool CpuHasSse42Clmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") && __builtin_cpu_supports("pclmul");
}

#endif  // MMDB_CRC32C_HW

}  // namespace

namespace internal {

std::span<const Kernel> Kernels() {
  static const Kernel kernels[] = {
#ifdef MMDB_CRC32C_HW
      {"sse42_clmul", ExtendSse42, CpuHasSse42Clmul()},
#endif
      {"slice_by_8", ExtendSliceBy8, true},
  };
  return kernels;
}

const Kernel& Dispatched() {
  // slice_by_8 comes last and runs anywhere, so the search always hits.
  static const Kernel& chosen =
      *std::ranges::find_if(Kernels(), &Kernel::supported);
  return chosen;
}

uint32_t ExtendBytewise(uint32_t init_crc, const char* data, size_t n) {
  const auto& table = SlicedTables().t[0];
  uint32_t crc = init_crc ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ static_cast<unsigned char>(data[i])) & 0xff] ^
          (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace internal

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  static const internal::ExtendFn extend = internal::Dispatched().extend;
  return extend(init_crc, data, n);
}

}  // namespace crc32c
}  // namespace mmdb
