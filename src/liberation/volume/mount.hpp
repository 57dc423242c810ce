// Create / mount entry points for persistent volumes.
//
// A persistent volume is a directory of per-shard array stores plus the
// volume manifest (see volume/manifest.hpp for the layout). Mounting is
// a two-phase shard census, deliberately read-only until the set is
// known good:
//
//   1. *Manifest election*: decode both manifest slots, keep the valid
//      copy with the larger seq. A torn newest slot falls back to the
//      previous epoch (reported); both slots torn refuses loudly.
//   2. *Read-only census*: probe every `shard-NN/` directory against the
//      manifest before mounting anything. A missing directory, a shard
//      whose superblocks carry a different array UUID (a foreign shard
//      dropped into the slot), or a geometry that contradicts the
//      manifest is *reported* in the census and fails the mount — the
//      foreign shard's files are never opened for writing.
//   3. *Assemble*: only a fully clean census proceeds to per-shard
//      mount_array (which runs the usual member election, stale-kick,
//      and intent replay inside each shard). Any shard refusing to
//      assemble fails the volume mount; the census carries each shard's
//      full mount_report either way.
//   4. *Activate*: the manifest is persisted unclean before the volume
//      is handed out; volume::unmount() unmounts every shard and stamps
//      it clean again.
//
// See docs/VOLUME.md for the mount state machine.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "liberation/raid/persist/mount.hpp"
#include "liberation/volume/volume.hpp"

namespace liberation::volume::persist {

/// Backing-store knobs shared by every shard directory.
struct volume_store_config {
    std::string dir;
    /// Refused when true, like raid::persist::store_config::direct_io
    /// (the shards' data areas are mapped).
    bool direct_io = false;
    bool sync_meta = false;
    bool sync_data = false;
};

/// Runtime policy for mounting (geometry and shard set come from the
/// manifest; none of this is persisted). Mirrors raid::persist::
/// mount_options, applied to every shard.
struct volume_mount_options {
    volume_store_config store;
    std::size_t io_queue_depth = 8;
    /// Refused when false, like raid::array_config::verify_reads: every
    /// host read is verified. The field stays only until its last
    /// assignment in the stack bench is gone.
    bool verify_reads = true;
    raid::io_policy_config io_retry{};
    raid::health_config health{};
    raid::latency_config latency{};
    std::size_t rebuild_batch_stripes = 4;
    bool auto_failover = true;
    bool obs_virtual_time = false;
    bool replay_intent = true;
    /// Fan multi-shard ops out on dispatcher threads (volume_config::
    /// threaded_dispatch).
    bool threaded_dispatch = true;
};

/// One shard's slot in the mount census.
struct shard_census_entry {
    std::uint32_t shard = 0;
    bool dir_present = false;        ///< shard-NN/ held at least one disk file
    bool foreign = false;            ///< superblock UUID not in the manifest
    bool geometry_mismatch = false;  ///< superblock contradicts the manifest
    bool mounted = false;
    raid::persist::mount_report report;  ///< per-shard detail (when attempted)
};

struct volume_mount_report {
    bool ok = false;
    std::string error;
    int manifest_torn_slots = 0;
    bool manifest_fell_back = false;  ///< previous manifest epoch used
    bool unclean = false;             ///< last shutdown was not unmount()
    std::uint32_t shards_expected = 0;
    std::uint32_t shards_mounted = 0;
    std::vector<shard_census_entry> census;
};

struct mounted_volume {
    std::unique_ptr<volume> vol;
    volume_mount_report report;
};

/// Format a fresh persistent volume in `scfg.dir`: one store directory
/// per shard plus the primed manifest. A zero `uuid` draws a random one;
/// shard UUIDs are derived from it. Returns null when any backing file
/// cannot be created.
[[nodiscard]] std::unique_ptr<volume> create_volume(
    const volume_config& cfg, const volume_store_config& scfg,
    std::uint64_t uuid = 0);

/// Reassemble the volume persisted in `opts.store.dir` (see file header).
[[nodiscard]] mounted_volume mount_volume(const volume_mount_options& opts);

}  // namespace liberation::volume::persist
