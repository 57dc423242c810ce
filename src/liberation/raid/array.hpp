// RAID-6 array controller over virtual disks, coded with the optimal
// Liberation algorithms.
//
// Supported operations:
//   * extent reads, transparently degraded when disks are failed or return
//     latent sector errors (up to two columns per stripe);
//   * extent writes: full-stripe writes encode in one pass; sub-stripe
//     writes take the read-modify-write small-write path, patching exactly
//     the 2 (occasionally 3) parity elements the Liberation update rule
//     names — the update-optimality the paper motivates in Section I;
//   * disk fail / replace, rebuild (see rebuild.hpp) and scrubbing
//     (see scrubber.hpp);
//   * fault tolerance: every disk read/write funnels through a retrying
//     io_policy (transient errors are retried with backoff), outcomes feed
//     a per-disk health_monitor that trips error-prone disks to failed,
//     and failed disks are automatically replaced from a hot-spare pool
//     with an incremental background rebuild (md's recovery window)
//     interleaved with foreground I/O;
//   * async I/O pipeline: the stripe-range paths (full-stripe writes,
//     rebuild slices, scrub passes) always run over an io_uring-style
//     submission/completion queue pair (aio/) that batches per-disk I/O,
//     coalesces adjacent reads, and overlaps parity computation with
//     in-flight column writes. Retry/backoff and health accounting stay
//     in the execution stage (disk_read/disk_write are the queue's
//     backend); checksum verification runs as a completion-stage
//     decorator. io_queue_depth only sizes the window: depth 1 is a
//     window of one stripe.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "liberation/aio/queue_pair.hpp"
#include "liberation/codes/stripe.hpp"
#include "liberation/obs/obs.hpp"
#include "liberation/core/hybrid_rebuild.hpp"
#include "liberation/core/liberation_optimal_code.hpp"
#include "liberation/integrity/integrity_region.hpp"
#include "liberation/raid/health.hpp"
#include "liberation/raid/intent_log.hpp"
#include "liberation/raid/io_policy.hpp"
#include "liberation/raid/latency_monitor.hpp"
#include "liberation/raid/stripe_map.hpp"
#include "liberation/raid/vdisk.hpp"

namespace liberation::aio {
class stripe_writer;
}  // namespace liberation::aio

namespace liberation::raid {

namespace persist {
class store;
struct mounter;
}  // namespace persist

struct array_config {
    std::uint32_t k = 4;            ///< data disks
    std::uint32_t p = 0;            ///< code prime; 0 = smallest odd prime >= k
    std::size_t element_size = 4096;
    std::size_t stripes = 32;
    std::size_t sector_size = 4096;
    /// parity_first enables add_data_disk(); pick p large enough for the
    /// anticipated maximum k (the paper's "Case (b)" deployment).
    parity_layout layout = parity_layout::rotating;

    // ---- fault tolerance ---------------------------------------------
    /// Blank standby disks. When a disk fails (operator, injected, or
    /// health-tripped) one is promoted automatically and rebuilt in the
    /// background. 0 = no spares, failures wait for the operator.
    std::uint32_t hot_spares = 0;
    /// Promote spares automatically on failure (requires hot_spares > 0).
    bool auto_failover = true;
    /// Stripes of background rebuild serviced per foreground read/write.
    std::size_t rebuild_batch_stripes = 4;
    /// Retry/backoff policy for every disk I/O.
    io_policy_config io_retry{};
    /// Error thresholds that trip a disk to failed.
    health_config health{};
    /// Fail-slow tolerance: adaptive per-disk read deadlines, hedged
    /// reconstructed reads, and slow-disk quarantine (latency_monitor.hpp).
    /// Off by default — hedging changes virtual-time accounting.
    latency_config latency{};

    // ---- end-to-end integrity ----------------------------------------
    /// Every host read is verified against the per-disk checksum regions;
    /// a mismatch demotes the column to an erasure, the stripe is decoded,
    /// the recovered bytes are re-verified, and the repair is written back
    /// (read-repair). There is no unverified mode: false is refused by the
    /// constructor. The field stays only until its last assignment in the
    /// stack bench is gone.
    bool verify_reads = true;
    /// Intent-log capacity in stripes; 0 = unbounded. When the log is
    /// full, writes that would need a new entry fail loudly
    /// (writes_rejected_log_full) instead of proceeding unjournaled.
    std::size_t intent_log_entries = 0;

    // ---- async I/O pipeline ------------------------------------------
    /// Per-disk in-flight window of the submission-queue engine (aio/),
    /// which is also the stripe window of every stripe-range path:
    /// full-stripe writes submit all k+2 column I/Os of each stripe in the
    /// window and encode parity while data is in flight; rebuild and
    /// scrub window-prefetch stripes with per-disk read coalescing. 1 is
    /// a window of one stripe; a completed operation leaves the same
    /// bytes on disk at every depth.
    std::size_t io_queue_depth = 8;

    // ---- observability -----------------------------------------------
    /// Drive the array's metrics/tracing hub off its virtual clock
    /// instead of the steady clock: every latency a histogram or trace
    /// span sees is then deterministic (virtual time only advances when
    /// the retry policy charges backoff or a test advances it), which is
    /// what the latency-distribution tests run on. Real deployments keep
    /// the default steady clock.
    bool obs_virtual_time = false;
};

/// Copyable snapshot of the array's operation counters: a typed view of
/// the counters kArrayCounters declares in the array's obs registry (the
/// array's thread increments them while a metrics scrape on another
/// thread may read them; stats() reads each with a relaxed load). Retry
/// outcomes are counted once, by the io_policy (io_stats()); the aio
/// engine's own counters are aio_engine().stats().
struct array_stats {
    std::uint64_t full_stripe_writes = 0;
    std::uint64_t small_writes = 0;
    std::uint64_t parity_elements_updated = 0;  ///< by small writes
    std::uint64_t degraded_stripe_reads = 0;    ///< full-stripe decodes
    std::uint64_t degraded_element_reads = 0;   ///< row-parity fast path
    std::uint64_t media_errors_recovered = 0;   ///< latent errors healed by decode
    std::uint64_t disks_tripped = 0;            ///< failed by the health monitor
    std::uint64_t spares_promoted = 0;
    std::uint64_t rebuilds_completed = 0;       ///< background sessions finished
    std::uint64_t rebuild_stripes_failed = 0;   ///< unrecoverable during bg rebuild
    std::uint64_t rebuild_sessions_stalled = 0; ///< > 2 losses, operator needed
    std::uint64_t checksum_mismatches = 0;      ///< blocks failing their CRC
    std::uint64_t reads_self_healed = 0;        ///< stripes repaired on read
    std::uint64_t corrupt_columns_healed = 0;   ///< rot rewritten by write_back
    std::uint64_t reads_unrecoverable = 0;      ///< verified reads refused
    std::uint64_t checksum_metadata_repaired = 0;  ///< stale/damaged CRCs fixed
    std::uint64_t writes_rejected_log_full = 0; ///< intent log at capacity
    // ---- fail-slow tolerance (latency_monitor.hpp) ---------------------
    std::uint64_t deadline_exceeded = 0;   ///< reads outliving their deadline
    std::uint64_t hedged_reads = 0;        ///< reconstruction hedges issued
    std::uint64_t hedge_wins = 0;          ///< hedges that beat the straggler
    std::uint64_t slow_trips = 0;          ///< disks quarantined suspect_slow
    std::uint64_t slow_recoveries = 0;     ///< quarantines lifted by probes
    std::uint64_t slow_routed_reads = 0;   ///< reads routed around quarantine
    // ---- persistence (raid/persist/) ----------------------------------
    std::uint64_t intent_replayed = 0;     ///< journaled stripes re-synced at mount
    std::uint64_t stale_disks_kicked = 0;  ///< members demoted to rebuild at mount
    // ---- scrub (scrubber.hpp) -----------------------------------------
    std::uint64_t scrub_bytes_single_pass = 0;  ///< see scrub_summary
    std::uint64_t scrub_bytes_crosscheck = 0;   ///< see scrub_summary
};

/// The array's counters (see obs::counter_def).
inline constexpr obs::counter_def<array_stats> kArrayCounters[] = {
    {"raid_full_stripe_writes_total", "full-stripe writes",
     &array_stats::full_stripe_writes},
    {"raid_small_writes_total", "read-modify-write small writes",
     &array_stats::small_writes},
    {"raid_parity_elements_updated_total",
     "parity elements patched by small writes (elements)",
     &array_stats::parity_elements_updated},
    {"raid_degraded_stripe_reads_total", "full-stripe decodes on read",
     &array_stats::degraded_stripe_reads},
    {"raid_degraded_element_reads_total", "row-parity fast-path decodes",
     &array_stats::degraded_element_reads},
    {"raid_media_errors_recovered_total",
     "latent sector errors healed by decode",
     &array_stats::media_errors_recovered},
    {"raid_disks_tripped_total", "disks failed by the health monitor",
     &array_stats::disks_tripped},
    {"raid_spares_promoted_total", "hot spares promoted",
     &array_stats::spares_promoted},
    {"raid_rebuilds_completed_total",
     "background rebuild members finished (members)",
     &array_stats::rebuilds_completed},
    {"raid_rebuild_stripes_failed_total",
     "stripes unrecoverable during background rebuild (stripes)",
     &array_stats::rebuild_stripes_failed},
    {"raid_rebuild_sessions_stalled_total",
     "rebuild sessions needing the operator",
     &array_stats::rebuild_sessions_stalled},
    {"raid_checksum_mismatches_total",
     "blocks failing their stored CRC (blocks)",
     &array_stats::checksum_mismatches},
    {"raid_reads_self_healed_total", "stripes repaired on read",
     &array_stats::reads_self_healed},
    {"raid_corrupt_columns_healed_total",
     "silently corrupt columns rewritten from a verified reconstruction by "
     "scrub, read-repair or rebuild (columns)",
     &array_stats::corrupt_columns_healed},
    {"raid_reads_unrecoverable_total", "verified reads refused",
     &array_stats::reads_unrecoverable},
    {"raid_checksum_metadata_repaired_total",
     "stale or damaged stored checksums refreshed",
     &array_stats::checksum_metadata_repaired},
    {"raid_writes_rejected_log_full_total",
     "writes refused because the intent log was at capacity",
     &array_stats::writes_rejected_log_full},
    {"raid_deadline_exceeded_total",
     "reads that outlived their adaptive deadline",
     &array_stats::deadline_exceeded},
    {"raid_hedged_reads_total", "reconstruction hedges issued",
     &array_stats::hedged_reads},
    {"raid_hedge_wins_total", "hedges that beat the straggler",
     &array_stats::hedge_wins},
    {"raid_slow_trips_total", "disks quarantined as suspect_slow",
     &array_stats::slow_trips},
    {"raid_slow_recoveries_total", "quarantines lifted by on-time probes",
     &array_stats::slow_recoveries},
    {"raid_slow_routed_reads_total",
     "reads routed around a quarantined disk via decode",
     &array_stats::slow_routed_reads},
    {"raid_intent_replayed_total",
     "journaled stripes re-synced during mount replay (stripes)",
     &array_stats::intent_replayed},
    {"raid_stale_disks_kicked_total",
     "stale or unreadable members demoted to rebuild at mount",
     &array_stats::stale_disks_kicked},
    {"raid_scrub_bytes_single_pass_total",
     "stripe bytes scrubbed by the fused single-pass CRC sweep, each "
     "scanned byte counted once (bytes)",
     &array_stats::scrub_bytes_single_pass},
    {"raid_scrub_bytes_crosscheck_total",
     "extra bytes traversed by the parity cross-check fallback (bytes)",
     &array_stats::scrub_bytes_crosscheck},
};

/// Per-slot counters of one disk slot, exported as disk="N" series.
/// Counted where the event happens, so they stay monotonic when the slot
/// takes new hardware — unlike the health and latency monitors' ledgers,
/// which reset then because their trip decisions are per hardware.
struct disk_slot_stats {
    std::uint64_t transient_errors = 0;  ///< transient errors, even if masked
    std::uint64_t hard_errors = 0;       ///< latent sectors, exhausted retries
    std::uint64_t deadline_misses = 0;   ///< reads outliving the deadline
    std::uint64_t slow_trips = 0;        ///< suspect_slow quarantine entries
    std::uint64_t hedged_reads = 0;      ///< reconstruction hedges issued
};

inline constexpr obs::counter_def<disk_slot_stats> kDiskSlotCounters[] = {
    {"disk_transient_errors_total", "per-disk transient errors seen",
     &disk_slot_stats::transient_errors},
    {"disk_hard_errors_total", "per-disk hard (medium/device) errors",
     &disk_slot_stats::hard_errors},
    {"disk_deadline_misses_total", "per-disk reads missing their deadline",
     &disk_slot_stats::deadline_misses},
    {"disk_slow_trips_total", "per-disk suspect_slow quarantine entries",
     &disk_slot_stats::slow_trips},
    {"disk_hedged_reads_total", "per-disk reconstruction hedges issued",
     &disk_slot_stats::hedged_reads},
};

/// One piece of an extent scattered over several host buffers: the
/// `host` bytes live at array address `addr`. A piece list describes one
/// gapless array extent: each piece starts where the previous one ends,
/// and every piece but the first starts on a stripe boundary (the volume's
/// pieces are whole placement chunks, so only the first and last can be
/// partial stripes).
struct read_piece {
    std::size_t addr = 0;
    std::span<std::byte> host;
};
struct write_piece {
    std::size_t addr = 0;
    std::span<const std::byte> host;
};

class raid6_array {
public:
    explicit raid6_array(const array_config& cfg)
        : raid6_array(cfg, /*allocate_members=*/true) {}
    /// Out of line: ~unique_ptr<persist::store> needs the complete type.
    ~raid6_array();

    raid6_array(const raid6_array&) = delete;
    raid6_array& operator=(const raid6_array&) = delete;

    [[nodiscard]] const stripe_map& map() const noexcept { return map_; }
    [[nodiscard]] const core::liberation_optimal_code& code() const noexcept {
        return code_;
    }
    [[nodiscard]] std::size_t capacity() const noexcept {
        return map_.capacity();
    }
    [[nodiscard]] std::uint32_t disk_count() const noexcept {
        return map_.n();
    }
    [[nodiscard]] vdisk& disk(std::uint32_t d) { return *disks_[d]; }
    [[nodiscard]] const vdisk& disk(std::uint32_t d) const { return *disks_[d]; }
    [[nodiscard]] array_stats stats() const noexcept {
        return ctr_.snapshot();
    }
    /// Slot `d`'s disk="N" counters (see disk_slot_stats).
    [[nodiscard]] disk_slot_stats slot_stats(std::uint32_t d) const {
        return slot_ctr_[d].snapshot();
    }
    /// Charge one scrub pass's byte counts (scrub_array()).
    void note_scrub_bytes(std::uint64_t single_pass,
                          std::uint64_t crosscheck) noexcept {
        ctr_.inc<&array_stats::scrub_bytes_single_pass>(single_pass);
        ctr_.inc<&array_stats::scrub_bytes_crosscheck>(crosscheck);
    }

    // ---- observability -----------------------------------------------
    /// The array's metrics + tracing hub: the home of the counters of the
    /// array, its io_policy and its aio engine, plus latency histograms
    /// (raid_*_ns/io_*_ns/aio_*_ns) and gauges, all updated live on the
    /// hot paths — obs().metrics_text() is one Prometheus exposition of
    /// the whole pipeline. Enable obs().trace().enable() to capture
    /// Chrome trace spans.
    [[nodiscard]] obs::hub& obs() noexcept { return obs_; }
    [[nodiscard]] const obs::hub& obs() const noexcept { return obs_; }

    // ---- end-to-end integrity ----------------------------------------

    /// Checksum granularity: gcd(sector_size, element_size), so every
    /// element-aligned disk I/O is block-aligned.
    [[nodiscard]] std::size_t integrity_block() const noexcept {
        return integrity_block_;
    }
    /// Battery-backed checksum region of disk slot `d`. Preserved across
    /// fail/replace/promote: it describes the slot's last-known contents,
    /// which is what rebuild verification checks reconstructions against.
    [[nodiscard]] integrity::integrity_region& integrity(std::uint32_t d) {
        return regions_[d];
    }
    [[nodiscard]] const integrity::integrity_region& integrity(
        std::uint32_t d) const {
        return regions_[d];
    }

    [[nodiscard]] std::uint32_t failed_disk_count() const noexcept;

    /// Read [addr, addr+out.size()); false only if more than two columns of
    /// some stripe are unavailable (data loss).
    [[nodiscard]] bool read(std::size_t addr, std::span<std::byte> out);
    /// Read one gapless extent straight into scattered host buffers (see
    /// read_piece). Same I/O, stripe by stripe, as the contiguous read of
    /// the extent.
    [[nodiscard]] bool read(std::span<const read_piece> pieces);

    /// Write [addr, addr+in.size()). Returns false on unrecoverable layout
    /// damage (> 2 unavailable columns in a touched stripe).
    [[nodiscard]] bool write(std::size_t addr, std::span<const std::byte> in);
    /// Write one gapless extent straight from scattered host buffers (see
    /// write_piece). Same I/O as the contiguous write of the extent: a run
    /// of full stripes spanning several pieces is still one pipelined run.
    [[nodiscard]] bool write(std::span<const write_piece> pieces);

    /// Fail-stop a disk. If a hot spare is available (and auto_failover is
    /// on) it is promoted and a background rebuild starts on the next
    /// foreground operation — or call service_background_rebuild directly.
    void fail_disk(std::uint32_t d);

    /// Install a blank replacement (contents must be rebuilt afterwards).
    /// Cancels any background-rebuild claim on the slot and resets its
    /// health history (it is new hardware).
    void replace_disk(std::uint32_t d);

    // ---- fault tolerance ---------------------------------------------

    [[nodiscard]] const health_monitor& health() const noexcept {
        return health_;
    }
    /// Fail-slow monitor: per-disk latency distributions, adaptive
    /// deadlines, and quarantine state (config: array_config::latency).
    [[nodiscard]] const latency_monitor& latency_mon() const noexcept {
        return latmon_;
    }
    [[nodiscard]] virtual_clock& clock() noexcept { return clock_; }
    [[nodiscard]] io_policy_stats io_stats() const noexcept {
        return policy_.stats();
    }
    [[nodiscard]] std::uint32_t spare_count() const noexcept {
        return static_cast<std::uint32_t>(spares_.size());
    }
    [[nodiscard]] bool rebuild_active() const noexcept {
        return rebuild_active_;
    }
    /// True when more disks are awaiting rebuild than RAID-6 can decode
    /// around (> 2): the session cannot make progress until the operator
    /// replaces a disk. Reads of the masked columns fail loudly meanwhile.
    [[nodiscard]] bool rebuild_stalled() const noexcept {
        return rebuild_stalled_;
    }
    /// Disks currently being rebuilt in the background.
    [[nodiscard]] std::uint32_t rebuilding_disk_count() const noexcept {
        return static_cast<std::uint32_t>(rebuilding_.size());
    }
    /// Stripes the current background rebuild session has yet to process
    /// (the furthest-behind member's backlog).
    [[nodiscard]] std::size_t rebuild_stripes_remaining() const noexcept {
        std::size_t remaining = 0;
        for (const rebuild_member& m : rebuilding_) {
            remaining = std::max(remaining, map_.stripes() - m.cursor);
        }
        return remaining;
    }

    /// Promote spares for any failed disks and advance the background
    /// rebuild by up to `max_stripes` stripes. Called implicitly from
    /// read()/write() (a batch per host op); call directly to make
    /// progress on an idle array. Returns stripes processed now.
    std::size_t service_background_rebuild(std::size_t max_stripes);

    /// Run the background rebuild to completion (no-op when idle).
    void drain_background_rebuild();

    /// True when any strip of [offset, offset+len) on disk `d` lies in a
    /// stripe the background rebuild has not reached yet — reads there
    /// must be treated as erasures, not trusted (the spare is still
    /// blank). Extent-aware so coalesced multi-strip reads are masked
    /// whenever any covered strip is; the aio split-retry then localizes
    /// the mask to the strips that deserve it.
    [[nodiscard]] bool rebuild_masked(std::uint32_t d, std::size_t offset,
                                      std::size_t len) const noexcept;

    /// All disk reads funnel through here: retry policy, health
    /// accounting, health tripping, and masking of not-yet-rebuilt extents
    /// on promoted spares (io_status::rebuilding). disk_read is disk_view
    /// plus one copy into `out`.
    io_status disk_read(std::uint32_t d, std::size_t offset,
                        std::span<std::byte> out);
    /// The view twin of disk_read: the same masking, retries and health
    /// accounting, and on ok `out` points at the extent on slot `d`'s
    /// medium (see vdisk::view: read-only, valid within the op).
    io_status disk_view(std::uint32_t d, std::size_t offset, std::size_t len,
                        const std::byte*& out);

    // ---- write-hole protection (see intent_log.hpp) -------------------

    /// Drop every disk write after the next `disk_writes` ones, simulating
    /// power loss mid-update. The intent log survives (battery-backed).
    void simulate_power_loss_after(std::uint64_t disk_writes) noexcept {
        write_budget_ = disk_writes;
    }

    [[nodiscard]] bool powered() const noexcept { return powered_; }

    /// Power back on. Stripes named by the journal may be torn: until
    /// recover_write_hole() (or the first path that loads one) re-syncs
    /// them, nothing is reconstructed from their parity.
    void reboot() noexcept {
        powered_ = true;
        write_budget_ = UINT64_MAX;
    }

    [[nodiscard]] const intent_log& journal() const noexcept {
        return journal_;
    }

    /// Re-sync parity of every journaled stripe (data columns are taken as
    /// the source of truth, exactly like md's resync after an unclean
    /// shutdown). Returns the number of stripes re-synced; stripes with
    /// unreadable columns are left journaled, and every read, write,
    /// scrub or rebuild that would decode one refuses until a later
    /// replay (or a rebuild of its parity columns) re-syncs it.
    std::size_t recover_write_hole();

    // ---- persistence (see raid/persist/) ------------------------------

    /// True when the array is backed by an on-disk store (created with
    /// persist::create_array or persist::mount_array).
    [[nodiscard]] bool persistent() const noexcept {
        return store_ != nullptr;
    }
    /// The backing store, or nullptr for a purely in-memory array.
    [[nodiscard]] persist::store* persistence() noexcept {
        return store_.get();
    }

    /// Clean shutdown of a persistent array: refresh every superblock
    /// image (checksum tables, intent log, membership), mark them clean,
    /// persist and fsync everything, and detach from the store. The next
    /// mount sees `clean` and skips intent replay. Returns false when any
    /// superblock could not be written (the array still detaches — the
    /// next mount simply treats it as unclean). Detaching unmaps the
    /// members' media, so they are offline afterwards: mount the
    /// directory again to use the data. No-op (true) when the array is
    /// not persistent.
    bool unmount();

    /// Online growth (parity_first layout only): append a blank disk that
    /// becomes data column k. No parity is recomputed — the new column was
    /// a phantom zero column of the fixed-p Liberation code all along, so
    /// every existing stripe stays valid (paper Section III, Case (b)).
    /// Requires k < p and all disks online. Note the linear address space
    /// is re-laid-out (stripes widen): address stability is per
    /// (stripe, column), as with any single-shot capacity expansion.
    void add_data_disk();

    // ---- stripe-granular interface (rebuild / scrub engines) ----------

    /// Copy every readable strip of `stripe` into `dst` (codeword column
    /// order) and report which columns are unavailable. When `statuses` is
    /// non-null it receives the per-column io_status (so callers can tell
    /// transient from latent unavailability). Returns false if more than
    /// two columns are gone. For callers that want their own copy; the
    /// array's own loads (load_stripe_verified, the degraded read) decode
    /// from views of the strips where they sit.
    [[nodiscard]] bool load_stripe(std::size_t stripe,
                                   const codes::stripe_view& dst,
                                   std::vector<std::uint32_t>& erased,
                                   std::vector<io_status>* statuses = nullptr);

    /// Account a verified read we refused to serve: bumps the stat,
    /// appends a flight-recorder breadcrumb, and on the array's *first*
    /// such loss writes an automatic postmortem bundle (no-op unless
    /// LIBERATION_POSTMORTEM_DIR is set).
    void note_unrecoverable_read(std::size_t stripe);

    /// Write the given codeword columns of `stripe` back to their disks.
    /// Columns on failed disks are skipped (reported false). When
    /// `col_crcs` is non-null, `col_crcs[col]` (null entries allowed)
    /// points at the column's precomputed per-integrity-block CRC32C
    /// words — produced inside the traversal that produced the bytes —
    /// and the integrity region installs them instead of re-reading the
    /// strip.
    bool store_columns(std::size_t stripe, const codes::stripe_view& src,
                       std::span<const std::uint32_t> cols,
                       const std::uint32_t* const* col_crcs = nullptr);

    /// Result of load_stripe_verified(). When ok, `cols` is a fully
    /// decoded, checksum-verified stripe; `erased` are the columns that
    /// were unavailable (decoded into scratch), `healed` the columns whose
    /// checksums exposed silent corruption (decoded into scratch),
    /// `meta_repaired` the columns whose *stored checksums* turned out to
    /// be the damaged side (data verified fine once decoded — the metadata
    /// was refreshed).
    struct stripe_recovery {
        bool ok = false;
        bool verified = false;  ///< checksum classification actually ran
        /// The stripe, column by column in codeword order (as_stripe()
        /// makes it a stripe view): a column read as it is points at its
        /// strip on the medium, every column the recovery wrote (erasures,
        /// healed columns, re-encoded parity) at the scratch of the
        /// recovery's window slot. Read-only to the caller, and valid until
        /// that slot's next stripe load.
        std::vector<std::byte*> cols;
        std::vector<std::uint32_t> erased;
        std::vector<io_status> statuses;
        std::vector<std::uint32_t> healed;
        std::vector<std::uint32_t> meta_repaired;
        /// What write_back() stores, in column order: the healed
        /// columns, the erasures that were unreadable sectors and the
        /// caller's extra erasures (rebuild targets). An erasure that is
        /// none of these (an offline member, a transient error that left
        /// the bytes intact) is decoded but never written.
        std::vector<std::uint32_t> repairs;
        /// Per-column CRC32C words captured by the verification sweeps
        /// (the fused sweep produces the verdict *and* these in one
        /// traversal): columns with crc_valid[col] != 0 hold
        /// strip_size/integrity_block words at crcs[col * blocks].
        /// write_back() hands them to store_columns so disk_write
        /// installs instead of re-traversing the strip.
        std::vector<std::uint32_t> crcs;
        std::vector<std::uint8_t> crc_valid;
    };

    /// Checksum-first stripe recovery: view every strip but the
    /// `extra_erasures` (columns the caller already distrusts, such as a
    /// blank rebuild target: never read, they report
    /// io_status::rebuilding), demote checksum-mismatching columns to
    /// erasures, decode with the optimal decoder and re-verify
    /// reconstructions against their stored checksums (mismatch with
    /// all-verified inputs means the *metadata* was stale — it is
    /// refreshed, never trusted over a parity-consistent decode). Nothing
    /// is stored: a caller that keeps the repairs passes the result to
    /// write_back(). A journaled stripe is re-synced first, or refused
    /// (see settle_torn_stripe). `host_read`: the stripe is loaded to
    /// serve a host read, which may have a journaled stripe's one lost
    /// data column recovered (see resync_journaled_stripe).
    [[nodiscard]] stripe_recovery load_stripe_verified(
        std::size_t stripe, std::span<const std::uint32_t> extra_erasures = {},
        bool host_read = false);

    /// The classification half of load_stripe_verified() for callers that
    /// already hold the stripe's views (the aio stripe_loader prefetches
    /// whole windows): `views[col]` points at each strip as read (null
    /// when not ok), `statuses` the per-column read results (non-ok =
    /// erased). Behaves exactly like load_stripe_verified() from that
    /// point on — checksum-first suspect demotion, optimal decode,
    /// reconstruction re-verify, metadata repair.
    /// Nothing is written through a view: every column the recovery
    /// writes is first pointed at scratch, and every change to the medium
    /// goes through disk_write.
    /// `slot` is the aio stripe_loader window slot whose scratch the
    /// recovery writes (0 outside the loader).
    [[nodiscard]] stripe_recovery verify_loaded_stripe(
        std::size_t stripe, std::span<const std::byte* const> views,
        std::span<const std::uint32_t> extra_erasures,
        std::vector<io_status> statuses, bool host_read = false,
        std::size_t slot = 0);

    /// The per-stripe compute of verify_loaded_stripe(), for the aio
    /// stripe_loader's parallel half: classification, decode, re-verify
    /// and metadata repair, into window slot `slot`'s scratch. It touches
    /// only this stripe's bytes and checksum words, the slot's scratch and
    /// relaxed counters — no fault draw, no write, no persist, no journal,
    /// disk-state or health access — so windows of stripes may run it on
    /// several threads at once. The stripe must not be journaled (the
    /// caller picks those out and runs verify_loaded_stripe() in their
    /// commit); storing the repairs is write_back() in the commit.
    [[nodiscard]] stripe_recovery recover_loaded_stripe(
        std::size_t stripe, std::span<const std::byte* const> views,
        std::span<const std::uint32_t> extra_erasures,
        std::vector<io_status> statuses, std::size_t slot);

    /// The I/O-optimal rebuild plan of data column `col` for the current
    /// geometry (core/hybrid_rebuild.hpp), computed on first use and kept
    /// until add_data_disk. Call it on the array's own thread.
    [[nodiscard]] const core::hybrid_plan& rebuild_plan(std::uint32_t col);

    /// recover_loaded_stripe() for a stripe whose one erasure is
    /// plan.column, from views of the plan's elements: each is verified
    /// where it sits, and the column rebuilt into slot `slot`'s scratch and
    /// verified; its one repair is plan.column. Any failed view or
    /// mismatch leaves the result !ok: the caller then recovers the whole
    /// stripe.
    [[nodiscard]] stripe_recovery rebuild_planned_column(
        std::size_t stripe, std::span<const std::byte* const> views,
        std::span<const io_status> statuses, const core::hybrid_plan& plan,
        std::size_t slot);

    /// Give window slots [0, slots) their scratch (slot 0 always has it):
    /// a stripe_loader consumer calls this on its own thread before the
    /// walk, so an array that never rebuilds or scrubs keeps one slot.
    void reserve_scratch(std::size_t slots);

    /// The one commit of a recovery (scrub, read-repair, rebuild): store
    /// `rec.repairs` in column order from the recovery's scratch, with the
    /// words its verification captured. A latent-sector erasure counts as
    /// media_errors_recovered, a healed (silently corrupt) column as
    /// corrupt_columns_healed. Returns false when a repair does not land
    /// (an offline member, a failed write, the power gone).
    bool write_back(std::size_t stripe, const stripe_recovery& rec);

    /// A stripe view over column pointers in codeword order, with this
    /// array's geometry (e.g. a stripe_recovery's `cols`).
    [[nodiscard]] codes::stripe_view as_stripe(
        std::span<std::byte* const> cols) const noexcept {
        return {cols, map_.rows(), map_.element_size()};
    }

    // ---- async I/O pipeline ------------------------------------------

    /// The array's submission/completion queue engine. All pipelined
    /// stripe paths run through it; tests and benches may submit directly
    /// (requests execute through disk_read/disk_write, so retry, health,
    /// masking, and the power-loss budget all apply; reads flagged
    /// aio::flag_verify pass the checksum completion stage).
    [[nodiscard]] aio::queue_pair& aio_engine() noexcept {
        return *aio_engine_;
    }
    /// Convenience: allocate a stripe buffer with this array's geometry.
    [[nodiscard]] codes::stripe_buffer make_stripe_buffer() const {
        return {map_.rows(), map_.n(), map_.element_size()};
    }

private:
    /// `allocate_members` off: member disks start with no medium — the
    /// mounter maps the backing files in (spares stay anonymous).
    raid6_array(const array_config& cfg, bool allocate_members);

    /// Resolve slot `d`'s disk="d" counters (construction and growth).
    void add_slot_counters(std::uint32_t d);

    /// Resolve the hub's clock, histograms and gauges (constructor tail).
    void init_obs(const array_config& cfg);
    /// Refresh the fault-tolerance gauges (failed disks, spares, rebuild
    /// backlog). Foreground thread only — the underlying state is not
    /// atomic, which is exactly why these are pushed in-line rather than
    /// sampled at export.
    void update_health_gauges() noexcept;

    /// Degraded path: load + decode a full stripe; `cols` receives its
    /// columns as in stripe_recovery::cols.
    [[nodiscard]] bool load_and_decode(std::size_t stripe,
                                       std::vector<std::byte*>& cols);

    /// Submit a view of every column of `stripe` but the `skip` columns
    /// through the aio engine — per-disk batching, merging, retries,
    /// health and masking apply as to any read — and fill `views[col]`
    /// (null unless ok) and `statuses[col]` (a `skip` column reads as
    /// io_status::rebuilding, an erasure).
    void load_views(std::size_t stripe, std::span<const std::uint32_t> skip,
                    std::uint32_t flags, std::vector<const std::byte*>& views,
                    std::vector<io_status>& statuses);
    /// Point `cols` at a loaded stripe: a column that read ok at its view
    /// (kernel_bytes), every other column at its scratch strip in `slot`.
    void assemble(std::span<const std::byte* const> views,
                  std::vector<std::byte*>& cols, std::size_t slot = 0);
    /// Column `col`'s scratch strip in window slot `slot`: where decodes,
    /// heals and re-encodes write (array-owned, reused load after load;
    /// slot 0 serves every path outside the aio stripe_loader).
    [[nodiscard]] std::byte* scratch(std::uint32_t col,
                                     std::size_t slot = 0) noexcept {
        return scratch_[slot * map_.n() + col].data();
    }
    /// verify_loaded_stripe()'s first step: the erasures (read failures
    /// plus `extra_erasures`, sorted) and `cols` assembled in `slot`, each
    /// erasure at its scratch strip.
    [[nodiscard]] stripe_recovery begin_recovery(
        std::span<const std::byte* const> views,
        std::span<const std::uint32_t> extra_erasures,
        std::vector<io_status> statuses, std::size_t slot);
    /// recover_loaded_stripe()'s body after begin_recovery(), for a stripe
    /// with at most two erasures that is not journaled (or was re-synced).
    /// `extra_erasures` (begin_recovery's) join the repairs.
    void classify_and_decode(std::size_t stripe,
                             std::span<const std::byte* const> views,
                             std::span<const std::uint32_t> extra_erasures,
                             stripe_recovery& rec, std::size_t slot);
    /// The bytes of a view as the coding and CRC kernels may read them:
    /// the view itself, or its copy in `scratch` when the element size
    /// rules out reading it in place (xorops::reads_in_place).
    const std::byte* kernel_bytes(const std::byte* view, std::size_t len,
                                  std::byte* scratch) const noexcept;
    /// disk_view, then the checksum check, both on kernel_bytes (copied
    /// into `scratch` when needed): `out` receives the checked bytes, a
    /// mismatch is io_status::checksum_mismatch.
    io_status verified_disk_view(std::uint32_t d, std::size_t offset,
                                 std::size_t len, const std::byte*& out,
                                 std::byte* scratch);

    /// Small-read fast path: reconstruct one data element via its row
    /// parity (k reads) instead of decoding the whole stripe
    /// (p*(k+1) reads). Only valid when every other column of that row is
    /// readable. Returns false to request the full-stripe fallback.
    [[nodiscard]] bool read_element_degraded(std::size_t stripe,
                                             std::uint32_t row,
                                             std::uint32_t col,
                                             std::span<std::byte> out);

    /// Read [addr, addr+out.size()) stripe by stripe: the body of read(),
    /// after its per-op prologue.
    [[nodiscard]] bool read_extent(std::size_t addr, std::span<std::byte> out);

    /// Write a run of consecutive aligned full stripes, starting at
    /// `first`, whose data bytes are at `stripes[i]` (one pointer per
    /// stripe, so a run may span host buffers), through the aio
    /// stripe_writer: per window, each stripe is journaled, its data
    /// columns submitted zero-copy, parity encoded while they land, then
    /// the window drains and the journal entries clear. The window is
    /// capped by the intent log's headroom, so a bounded log with one
    /// free entry still accepts the run.
    [[nodiscard]] bool write_full_stripes(
        std::size_t first, std::span<const std::byte* const> stripes);
    [[nodiscard]] bool write_partial(std::size_t stripe, std::size_t in_stripe,
                                     std::span<const std::byte> in);

    /// All mutating disk I/O funnels through here: power-loss simulation
    /// (once the budget runs out the write is dropped on the floor and the
    /// array goes dark), then the retry policy and health accounting.
    /// `crcs` non-null = the caller already holds the per-block CRC32C of
    /// `in` (computed inside the traversal that produced the bytes) and
    /// the integrity region installs them; null = the copy onto the medium
    /// computes them as the bytes land. A write of whole strips (a stripe
    /// writer column, a store_columns commit) lands with streaming stores,
    /// fenced before the words are installed and persisted; an element
    /// write (the small-write path, whose neighbours are read next) keeps
    /// regular stores. Requires a block-aligned extent, exactly like
    /// record().
    io_status disk_write(std::uint32_t disk, std::size_t offset,
                         std::span<const std::byte> in,
                         const std::uint32_t* crcs = nullptr);

    /// Record a policy-mediated I/O outcome; trips the disk on threshold.
    void note_io(std::uint32_t d, io_kind kind, const io_result& r);

    // ---- fail-slow tolerance (latency_monitor.hpp) ---------------------

    /// disk_view in deferred-time-charge mode: the policy reports the
    /// virtual cost in `latency_us` but does not advance the clock — the
    /// hedged read path charges whichever leg of the race is served.
    io_status disk_view_deferred(std::uint32_t d, std::size_t offset,
                                 std::size_t len, const std::byte*& out,
                                 std::uint64_t& latency_us);

    /// Fail-slow-aware chunk read on the fast path: the `len` bytes at
    /// `strip_lo` inside codeword column `col`'s strip. Routes around
    /// quarantined disks via decode, hedges reads that outlive the
    /// adaptive deadline, and feeds the latency monitor. `out` receives
    /// the served leg's bytes (a view, or the decode in scratch),
    /// checksum-verified exactly like verified_disk_view.
    io_status read_chunk_failslow(std::size_t stripe, std::uint32_t col,
                                  std::size_t strip_lo, std::size_t len,
                                  const std::byte*& out);

    /// Reconstruction read-set for one column range: view every other
    /// column's strip through the aio engine (flag_verify), decode the
    /// missing column into scratch, and verify the requested range against
    /// its stored checksum; `out` points at it. False when the stripe
    /// cannot be decoded or the reconstruction fails verification.
    [[nodiscard]] bool reconstruct_column_range(std::size_t stripe,
                                                std::uint32_t col,
                                                std::size_t strip_lo,
                                                std::size_t len,
                                                const std::byte*& out);

    /// Promote spares for every failed disk (auto_failover). Starts or
    /// extends the background rebuild session.
    void handle_failed_disks();

    /// Entry hook for read()/write(): failover + one rebuild batch.
    void service_events();

    /// Journal a stripe with its target-column mask; false (and a loud
    /// write failure for the caller) when the log is at capacity. With
    /// `persist` off the caller group-commits with one persist_intent()
    /// before any data write of the stripe is issued.
    [[nodiscard]] bool journal_mark(std::size_t stripe, std::uint64_t cols,
                                    bool persist = true);
    void journal_clear(std::size_t stripe, bool persist = true);

    // ---- persistence hooks (no-ops while store_ is null) ---------------

    /// Take ownership of the backing store. The mounter/creator has
    /// mapped every member it could; the rest (foreign slots) get a blank
    /// anonymous medium. Called once.
    void attach_persistence(std::unique_ptr<persist::store> st);
    /// Give slot `d`'s backing-file mapping to `to`: the current member's
    /// mapping when it has one, else a fresh one (reclaiming a foreign
    /// slot first). False when the slot cannot be mapped.
    [[nodiscard]] bool hand_over_medium(std::uint32_t d, vdisk& to);
    /// Replicate the intent log into every metadata slot and persist.
    /// Fires on every journal mark/clear (once per window on the pipelined
    /// full-stripe path) — the on-disk analogue of flushing the NVRAM word
    /// before data I/O is issued.
    void persist_intent();
    /// Persist the checksum words covering a write of `len` bytes at
    /// `offset` on slot `disk` into that slot's own superblock. Runs even
    /// powered-off: the superblock models the battery-backed metadata
    /// domain, so record-ahead checksums of dropped writes are durable —
    /// that is what makes torn writes detectable after a remount.
    void persist_checksums(std::uint32_t disk, std::size_t offset,
                           std::size_t len);
    /// Recompute slot states, watermarks, spare level, and identity in
    /// every metadata image, bump the membership epoch (`events`), and
    /// persist all metadata slots. Called on failure, promotion,
    /// replacement, and rebuild completion.
    void persist_membership();
    /// Persist just the rebuild watermarks (one batch advanced; no epoch
    /// bump — the membership did not change).
    void persist_watermarks();

    /// (Re)build the aio engine for the current disk count, register
    /// the checksum-verify completion stage on it, build the full-stripe
    /// writer over it, and reset the scratch to slot 0's.
    void rebuild_aio_engine(const aio::aio_config& acfg);

    /// disk_read + checksum verification: bytes that read fine but fail
    /// their stored CRC come back as io_status::checksum_mismatch so
    /// callers demote the column, and `out` is filled only on ok
    /// (verified_disk_view plus one copy).
    io_status verified_disk_read(std::uint32_t d, std::size_t offset,
                                 std::span<std::byte> out);

    /// The torn-stripe rule, and its only home: nothing is reconstructed
    /// from a journaled stripe's parity (an interrupted update may have
    /// torn it) until the stripe is re-synced. True = decode as usual: the
    /// stripe is not journaled, or resync_journaled_stripe made the stripe
    /// in `cols` (as assembled; read results in `statuses`) consistent,
    /// re-encoding any parity `targets` (and, for a `host_read`,
    /// recovering one lost data column). False = the stripe stays
    /// journaled and nothing may be decoded from it (always so when `cols`
    /// is empty: there is nothing to re-sync).
    [[nodiscard]] bool settle_torn_stripe(
        std::size_t stripe, std::span<std::byte*> cols,
        std::span<const io_status> statuses,
        std::span<const std::uint32_t> targets, bool host_read = false,
        std::size_t slot = 0);
    /// Re-sync one journaled stripe whose columns are `cols` (read
    /// results in `statuses`): classify every checksum-mismatching data
    /// column as torn (targeted by the in-flight update — accept the
    /// on-disk bytes) or corrupt (untargeted — recover via checksum-guided
    /// candidate decode and store), then re-encode both parities from data
    /// into scratch, store them and clear the journal entry. Every data
    /// column must be readable and none a target — except that for a
    /// `host_read` one unavailable data column the update was not writing
    /// is recovered by candidate decode into scratch; a parity column may
    /// be missing only as a target. False leaves the stripe journaled.
    /// Scratch is window slot `slot`'s.
    [[nodiscard]] bool resync_journaled_stripe(
        std::size_t stripe, std::span<std::byte*> cols,
        std::span<const io_status> statuses,
        std::span<const std::uint32_t> targets, bool host_read,
        std::size_t slot);

    /// Recovery of an *untargeted* column of a torn stripe (corrupt or
    /// lost): parity may itself be torn, so try decoding the column from
    /// each parity subset ({c}, {c,P}, {c,Q}) into scratch and accept the
    /// first candidate matching the column's stored checksum; `cols[col]`
    /// then points at it.
    [[nodiscard]] bool heal_journaled_column(std::size_t stripe,
                                             std::span<std::byte*> cols,
                                             std::uint32_t col,
                                             std::size_t slot);

    /// Adapter plugging the array's I/O funnel in as the aio engine's
    /// execution backend: reads, views and writes keep their retry,
    /// health, masking, and power-loss semantics no matter which path
    /// submitted them.
    struct disk_backend final : aio::io_backend {
        explicit disk_backend(raid6_array& a) noexcept : owner(a) {}
        io_status execute(const aio::io_desc& d) override;
        io_status view(const aio::io_desc& d, const std::byte*& out) override;
        raid6_array& owner;
    };

    stripe_map map_;
    core::liberation_optimal_code code_;
    std::size_t sector_size_;
    std::vector<std::unique_ptr<vdisk>> disks_;

    // ---- observability -----------------------------------------------
    obs::hub obs_;
    obs::counter_set<kArrayCounters> ctr_{obs_.metrics()};
    std::vector<obs::counter_set<kDiskSlotCounters>> slot_ctr_;
    /// Histograms/gauges resolved once at construction (registry lookups
    /// take a mutex; the hot paths must not).
    obs::latency_histogram* hist_read_ = nullptr;
    obs::latency_histogram* hist_write_full_ = nullptr;
    obs::latency_histogram* hist_write_small_ = nullptr;
    obs::latency_histogram* hist_hedge_delay_ = nullptr;
    obs::gauge* gauge_failed_disks_ = nullptr;
    obs::gauge* gauge_spares_ = nullptr;
    obs::gauge* gauge_rebuild_remaining_ = nullptr;
    obs::gauge* gauge_journal_ = nullptr;
    intent_log journal_;
    std::vector<integrity::integrity_region> regions_;
    std::size_t integrity_block_;
    /// xorops::reads_in_place(element size): the kernels read views where
    /// they sit; otherwise kernel_bytes copies them into scratch first.
    bool in_place_;
    /// One scratch strip per column per aio window slot, slot-major (see
    /// scratch()), plus a strip for the fast path's kernel_bytes copies
    /// (empty while in_place_).
    std::vector<util::aligned_buffer> scratch_;
    util::aligned_buffer read_scratch_;
    /// rebuild_plan()'s plans, one slot per data column.
    std::vector<std::optional<core::hybrid_plan>> plans_;
    /// Atomic: armed and read on the caller's thread, while a volume
    /// shard's writes run on its dispatcher.
    std::atomic<bool> powered_{true};
    std::atomic<std::uint64_t> write_budget_{UINT64_MAX};

    // ---- async I/O pipeline ------------------------------------------
    disk_backend backend_{*this};
    std::unique_ptr<aio::queue_pair> aio_engine_;
    /// The pipelined full-stripe writer over aio_engine_, with its
    /// window of parity staging: built with the engine, reused by every
    /// write_full_stripes call.
    std::unique_ptr<aio::stripe_writer> full_writer_;

    // ---- fault tolerance ---------------------------------------------
    virtual_clock clock_;
    io_policy policy_;
    health_monitor health_;
    latency_monitor latmon_;
    bool auto_failover_;
    std::size_t rebuild_batch_stripes_;
    std::uint32_t next_disk_id_;
    std::vector<std::unique_ptr<vdisk>> spares_;
    /// One entry per disk being rebuilt in the background (promoted
    /// spare). Each member keeps its own watermark: stripes >= cursor are
    /// masked on that disk, stripes below it are rebuilt (and maintained
    /// by foreground writes) and stay trusted even when another member
    /// joins the session later.
    struct rebuild_member {
        std::uint32_t disk;
        std::size_t cursor;  ///< next stripe to rebuild on this disk
    };
    std::vector<rebuild_member> rebuilding_;
    bool rebuild_active_ = false;
    bool rebuild_stalled_ = false;  ///< > 2 members: see rebuild_stalled()
    bool in_service_ = false;  ///< reentrancy guard for the rebuild batch
    /// Set from deep I/O paths when the health monitor trips a disk;
    /// serviced at the next foreground entry.
    std::atomic<bool> pending_failover_{false};

    // ---- persistence ---------------------------------------------------
    /// Backing store (raid/persist/); null for in-memory arrays. The
    /// mounter is the only outside party that may install it and poke the
    /// array's state while reassembling.
    friend struct persist::mounter;
    std::unique_ptr<persist::store> store_;
};

}  // namespace liberation::raid
