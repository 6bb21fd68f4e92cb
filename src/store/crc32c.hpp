// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78): the
// checksum guarding every WAL record and snapshot on disk. Chosen over plain
// CRC32 for its better error-detection properties on storage workloads (the
// same polynomial iSCSI, ext4 metadata, and LevelDB/RocksDB use), and over a
// cryptographic hash because the threat model here is bit rot and torn
// writes, not an adversary with write access to the data directory — an
// attacker who can forge a CRC can simply replace the whole file.
//
// Two kernels, chosen once per process on the first call: on x86-64 CPUs
// with SSE4.2, the `crc32` instruction folds eight bytes per step (~7 GB/s
// on one core); everywhere else, a portable slice-by-8 table loop (~2 GB/s,
// tables built at first use). Both produce identical results; the portable
// kernel is also the oracle the tests hold the hardware one against.
#pragma once

#include <cstdint>
#include <span>

namespace leopard::store {

/// CRC32C of `data`, with optional chaining: pass a previous crc32c() result
/// as `seed` to extend the checksum over discontiguous buffers.
[[nodiscard]] std::uint32_t crc32c(std::span<const std::uint8_t> data,
                                   std::uint32_t seed = 0);

namespace detail {

/// The portable slice-by-8 kernel, whatever crc32c() dispatched to.
[[nodiscard]] std::uint32_t crc32c_portable(std::span<const std::uint8_t> data,
                                            std::uint32_t seed = 0);

}  // namespace detail

}  // namespace leopard::store
