#ifndef GISTCR_UTIL_CRC32_H_
#define GISTCR_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace gistcr {

/// CRC-32 (IEEE 802.3 polynomial) over \p n bytes starting at \p data,
/// seeded with \p init (chaining: Crc32(b, m, Crc32(a, n)) is the CRC of
/// a followed by b). Guards every log record (torn or garbage records at
/// the log tail end restart's scan) and every data page (stamped on
/// write-back, verified on each buffer-pool miss). Slicing-by-8: eight
/// table lookups per eight bytes, one portable code path.
uint32_t Crc32(const char* data, size_t n, uint32_t init = 0);

}  // namespace gistcr

#endif  // GISTCR_UTIL_CRC32_H_
