// Background scrubber: walks every stripe checksum-first — the per-disk
// integrity regions pinpoint corrupt columns with no single-corruption
// assumption, the optimal decoder repairs up to two of them per stripe,
// and *degraded* stripes (up to two unavailable columns) are scrubbed
// rather than skipped. The Section-5 parity cross-check survives as a
// defense-in-depth fallback for damage the checksum layer cannot see
// (e.g. corruption that also struck the stored checksum in a matching
// way).
#pragma once

#include <cstdint>

#include "liberation/raid/array.hpp"

namespace liberation::raid {

struct scrub_summary {
    std::size_t stripes_scanned = 0;
    std::size_t clean = 0;
    std::size_t repaired_data = 0;
    std::size_t repaired_parity = 0;
    /// Columns whose *stored checksum* was the damaged side (the bytes on
    /// disk were corroborated by parity); the metadata was refreshed.
    std::size_t repaired_metadata = 0;
    std::size_t uncorrectable = 0;
    /// Stripes with more than two unavailable columns (beyond the decode
    /// budget): skipped until a disk is rebuilt or a sector healed.
    std::size_t skipped_degraded = 0;
    /// Stripes whose only unavailability was a transient error that
    /// survived the retry budget: worth re-scrubbing soon, the data on the
    /// medium is intact.
    std::size_t skipped_transient = 0;
    /// Stripes still journaled in the intent log: their checksum
    /// mismatches are half-landed updates, not corruption —
    /// recover_write_hole() owns that classification.
    std::size_t skipped_torn = 0;
    /// Degraded stripes (1-2 unavailable columns) that were still scrubbed
    /// — the capability the checksum layer adds over parity cross-checking,
    /// which needs every column present.
    std::size_t degraded_scrubbed = 0;
    /// Corrupt columns repaired on those degraded stripes.
    std::size_t repaired_on_degraded = 0;
    /// Columns whose bytes failed their stored checksum across the scan
    /// (before classification into data vs metadata damage).
    std::size_t checksum_mismatch_columns = 0;
    /// Repairs made by the parity cross-check fallback on stripes whose
    /// checksums were clean — i.e. damage the checksum domain could not
    /// see, such as a stripe left torn without being journaled. (Subset of
    /// repaired_data/repaired_parity.)
    std::size_t parity_fallback_repairs = 0;
    /// Columns unreadable due to latent sector errors across the scan.
    std::size_t latent_columns = 0;
    /// Columns that failed transiently (after retries) across the scan.
    std::size_t transient_columns = 0;
    /// Bytes whose checksum verification rode the single fused traversal
    /// of the checksum-first sweep. Each scanned byte is charged ONCE
    /// here — the old accounting implicitly charged a CRC pass and a
    /// parity cross-check pass separately, double-counting scrub
    /// throughput on clean stripes. Added to the array's counter
    /// raid_scrub_bytes_single_pass_total.
    std::size_t scrub_bytes_single_pass = 0;
    /// Extra bytes traversed by the parity cross-check fallback (stripes
    /// whose checksums were clean; defense-in-depth only). Kept separate
    /// so dashboards can still see the fallback's cost without it
    /// inflating the scrub-throughput figure above.
    std::size_t scrub_bytes_crosscheck = 0;
};

/// Scrub the whole array: checksum-first classification, decode-based
/// repair of up to two bad columns per stripe (including on degraded
/// stripes), metadata repair when the stored checksum is the damaged side,
/// and a parity cross-check fallback on stripes the checksum layer calls
/// clean. Repairs are written back to the disks. Host reads verify only
/// what they touch; scrubbing is the patrol that catches what the read
/// path never touches.
scrub_summary scrub_array(raid6_array& array);

}  // namespace liberation::raid
