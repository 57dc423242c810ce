// Layer probes: timed calls into the public functions of the layers below
// the volume, on the geometry of the workload that is running. They give
// the per-layer rates (codec, CRC32C, superblock persist) that the traced
// run turns into estimated shares of the measured wall time.
#pragma once

#include <cstdint>
#include <span>

#include "liberation/raid/array.hpp"

namespace bench_stack {

struct codec_probe {
    double encode_s = 0.0;         ///< median seconds per encode_crc of one stripe
    double decode_s = 0.0;         ///< median seconds per two-column decode
    double encode_GBps = 0.0;      ///< stripe data bytes / encode_s
    double decode_GBps = 0.0;      ///< stripe data bytes / decode_s
    double xors_per_encode = 0.0;  ///< exact region XORs of one encode_crc
    double xors_per_decode = 0.0;  ///< exact XORs, mean over the patterns
};

/// Time `shard.code().encode_crc` and `decode` on one stripe of the
/// shard's geometry (hot in L2). The decode patterns are the codeword
/// columns `failed_disks` occupy across one parity rotation, so a
/// degraded workload's mix of erasure patterns is what gets timed.
[[nodiscard]] codec_probe probe_codec(const liberation::raid::raid6_array& shard,
                                      std::span<const std::uint32_t> failed_disks,
                                      std::uint64_t seed);

/// Median GB/s of `integrity::crc32c` over one strip-sized buffer.
[[nodiscard]] double probe_crc_GBps(std::size_t strip_bytes, std::uint64_t seed);

/// Median microseconds of `persistence()->persist(slot)` on a persistent
/// shard: one shadow write of the slot's superblock (the image is
/// unchanged, so the store state stays valid).
[[nodiscard]] double probe_persist_us(liberation::raid::raid6_array& shard,
                                      std::uint32_t slot, int reps);

}  // namespace bench_stack
