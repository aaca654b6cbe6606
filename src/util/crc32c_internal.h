#ifndef MMDB_UTIL_CRC32C_INTERNAL_H_
#define MMDB_UTIL_CRC32C_INTERNAL_H_

// The individual CRC32C kernels behind crc32c::Extend, for util_test (which
// checks each against the bytewise reference) and micro_engine (which times
// each). Production code calls crc32c::Extend/Value only.

#include <cstddef>
#include <cstdint>
#include <span>

namespace mmdb {
namespace crc32c {
namespace internal {

using ExtendFn = uint32_t (*)(uint32_t init_crc, const char* data, size_t n);

struct Kernel {
  const char* name;
  ExtendFn extend;
  // Whether this CPU has the instructions the kernel needs. Calling an
  // unsupported kernel raises SIGILL.
  bool supported;
};

// Every kernel compiled into this binary, in dispatch preference order: the
// SSE4.2 + PCLMULQDQ kernel (x86-64 builds only), then slice-by-8, which
// runs anywhere.
std::span<const Kernel> Kernels();

// The kernel Extend runs: the first supported entry of Kernels(), chosen
// once, at first use.
const Kernel& Dispatched();

// The hardware kernel's block sizes: it folds inputs in three-lane blocks
// of kHwLongBlock bytes, then kHwShortBlock bytes, then one 8-byte lane.
// Exposed so tests can probe lengths on both sides of each boundary.
inline constexpr size_t kHwLongBlock = 3 * 1024;
inline constexpr size_t kHwShortBlock = 3 * 128;

// The classic byte-at-a-time table loop: the reference every kernel is
// checked against. Not for production call sites.
uint32_t ExtendBytewise(uint32_t init_crc, const char* data, size_t n);

}  // namespace internal
}  // namespace crc32c
}  // namespace mmdb

#endif  // MMDB_UTIL_CRC32C_INTERNAL_H_
