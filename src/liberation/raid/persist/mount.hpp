// Mount / create entry points for persistent RAID-6 arrays.
//
// create_array() formats a fresh store (one backing file per disk, file
// header + A/B cores + two checksum-table copies + data area) and returns
// a live array wired to it. mount_array() reassembles an array from
// whatever the directory holds, md-style:
//
//   1. *Probe* every disk file read-only: decode the write-once header,
//      both cores and the checksum pages each references (a torn core or
//      page invalidates that superblock and the other one is used). A
//      header of another on-disk format version refuses the mount,
//      naming the version found and the one this build reads.
//   2. *Elect an authority*: among the decodable superblocks, the
//      majority array-UUID wins, and within it the copy with the highest
//      (events, seq) — the member that saw the most recent membership
//      epoch. Its replicated tables (geometry, slot states, rebuild
//      watermarks, intent log, spare level) describe the array.
//   3. *Classify each slot* and degrade gracefully instead of refusing
//      to assemble:
//        - foreign UUID or mismatched geometry -> the slot is failed and
//          its file is left alone (it belongs to some other array);
//        - missing file, file shorter than its data area's end,
//          unreadable header, or both superblocks invalid -> the disk is
//          re-initialized blank and *kicked* to a rebuild target
//          (stale_disks_kicked);
//        - events more than one epoch behind the authority -> the data
//          cannot be trusted (an old copy was restored); kicked likewise;
//        - otherwise the member is current: its private checksum table
//          is restored.
//      Every slot but a foreign one then has its file's data area mapped
//      as its medium — nothing is read back into memory. A member whose
//      mapping fails does not join (it counts as failed). More than two
//      failed or kicked slots fails the mount loudly — that is data loss,
//      not a degraded mode.
//   4. *Resume*: rebuilding members continue from their persisted
//      watermarks; the persisted intent log is restored and replayed
//      (each journaled stripe re-synced, oldest hazard first) before the
//      array is handed to the caller.
//
// Both paths return arrays whose every subsequent mutation lands in the
// store (stores into the mapped data areas + superblock persists);
// raid6_array::unmount() stamps the images clean and unmaps. Both refuse
// store_config::direct_io by name. See docs/PERSISTENCE.md.
#pragma once

#include <memory>
#include <string>

#include "liberation/raid/array.hpp"
#include "liberation/raid/persist/store.hpp"

namespace liberation::raid::persist {

/// Runtime knobs for mounting. Geometry, spare level, and intent-log
/// capacity come from the superblocks; everything here is per-process
/// policy that is deliberately *not* persisted.
struct mount_options {
    store_config store;
    std::size_t io_queue_depth = 8;
    io_policy_config io_retry{};
    health_config health{};
    /// Fail-slow tolerance (hedged reads, quarantine). Thresholds are
    /// per-process policy; the quarantine *state* is persisted (slot-state
    /// slow bit) and re-entered at mount when this layer is enabled.
    latency_config latency{};
    std::size_t rebuild_batch_stripes = 4;
    bool auto_failover = true;
    bool obs_virtual_time = false;
    /// Replay the persisted intent log before returning (on by default;
    /// tests disable it to inspect the restored journal).
    bool replay_intent = true;
};

/// What mount found and did. `ok == false` leaves `array` null and
/// `error` set; everything else is informational.
struct mount_report {
    bool ok = false;
    std::string error;
    std::uint32_t disks_total = 0;
    std::uint32_t disks_online = 0;       ///< current members (incl. rebuilding)
    std::uint32_t torn_superblock_slots = 0;  ///< A/B copies failing their CRC
    std::uint32_t stale_kicked = 0;  ///< members demoted to blank rebuild targets
    std::uint32_t foreign = 0;       ///< files of another array (left alone)
    std::uint32_t unreadable = 0;    ///< missing/unreadable files re-initialized
    bool unclean = false;            ///< last shutdown was not unmount()
    std::size_t intent_entries = 0;  ///< journal entries restored
    std::size_t intent_replayed = 0; ///< journaled stripes re-synced now
    std::uint32_t rebuilds_resumed = 0;  ///< members resuming from a watermark
    double mount_s = 0.0;            ///< wall time, also in raid_mount_ns
};

struct mounted_array {
    std::unique_ptr<raid6_array> array;
    mount_report report;
};

/// Format a fresh persistent array in `scfg.dir`. A zero `uuid` draws a
/// random one. `cfg.intent_log_entries == 0` (unbounded) is forced to a
/// bounded default of 64 — the serialized intent area must have a fixed
/// worst-case size. Returns null if the backing files cannot be created,
/// preallocated or mapped, or when `scfg.direct_io` is set (refused on
/// stderr by name: the data areas are mapped).
[[nodiscard]] std::unique_ptr<raid6_array> create_array(
    const array_config& cfg, const store_config& scfg, std::uint64_t uuid = 0);

/// Reassemble the array persisted in `opts.store.dir` (see file header).
[[nodiscard]] mounted_array mount_array(const mount_options& opts);

}  // namespace liberation::raid::persist
