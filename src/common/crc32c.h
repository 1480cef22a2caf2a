#ifndef C5_COMMON_CRC32C_H_
#define C5_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace c5 {

// CRC32C (Castagnoli). Used by the log wire format and the checkpoint file
// format to detect torn and corrupted frames. Runs the SSE4.2 `crc32`
// instruction when the CPU has it (checked once, at the first call) and a
// byte-at-a-time table otherwise; both compute the same checksum.
std::uint32_t Crc32c(const void* data, std::size_t len,
                     std::uint32_t seed = 0);

namespace internal {

// The portable table-driven path, exposed so tests can check the hardware
// path against it.
std::uint32_t Crc32cPortable(const void* data, std::size_t len,
                             std::uint32_t seed = 0);

// True when Crc32c runs the hardware path.
bool Crc32cIsHardware();

}  // namespace internal

}  // namespace c5

#endif  // C5_COMMON_CRC32C_H_
