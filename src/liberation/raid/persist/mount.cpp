#include "liberation/raid/persist/mount.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <random>
#include <tuple>

#include "liberation/obs/flight_recorder.hpp"
#include "liberation/obs/postmortem.hpp"
#include "liberation/util/assert.hpp"

namespace liberation::raid::persist {

namespace {

/// Human-readable census of what mount found, for postmortem bundles.
std::string mount_census_text(const mount_report& rep) {
    std::string s = "mount ok=" + std::to_string(rep.ok ? 1 : 0) + '\n';
    if (!rep.error.empty()) s += "error: " + rep.error + '\n';
    s += "disks_total=" + std::to_string(rep.disks_total) + '\n';
    s += "disks_online=" + std::to_string(rep.disks_online) + '\n';
    s += "torn_superblock_slots=" + std::to_string(rep.torn_superblock_slots) +
         '\n';
    s += "stale_kicked=" + std::to_string(rep.stale_kicked) + '\n';
    s += "foreign=" + std::to_string(rep.foreign) + '\n';
    s += "unreadable=" + std::to_string(rep.unreadable) + '\n';
    s += "unclean=" + std::to_string(rep.unclean ? 1 : 0) + '\n';
    s += "intent_entries=" + std::to_string(rep.intent_entries) + '\n';
    s += "intent_replayed=" + std::to_string(rep.intent_replayed) + '\n';
    s += "rebuilds_resumed=" + std::to_string(rep.rebuilds_resumed) + '\n';
    return s;
}

/// A refused mount is exactly the moment an operator needs breadcrumbs:
/// flight-record the refusal and trip an automatic bundle (census only —
/// there is no array, hence no hub, to scrape metrics from).
void note_mount_refused(const mount_report& rep) {
    obs::flight_recorder::instance().record(obs::fr_kind::mount_refused, 0,
                                            rep.disks_total, rep.stale_kicked);
    obs::postmortem_bundle b;
    b.census_text = mount_census_text(rep);
    (void)obs::auto_postmortem("mount_refused", nullptr, std::move(b));
}

/// Data areas are shared mappings, and a mapping cannot be O_DIRECT.
constexpr const char* direct_io_refusal =
    "direct_io is not supported: member data areas are memory-mapped";

}  // namespace

/// Friend of raid6_array: the only party allowed to install a store and
/// pose the array's private state while reassembling.
struct mounter {
    static std::unique_ptr<raid6_array> create(const array_config& cfg,
                                               const store_config& scfg,
                                               std::uint64_t uuid);
    static mounted_array mount(const mount_options& opts);
};

std::unique_ptr<raid6_array> mounter::create(const array_config& cfg,
                                             const store_config& scfg,
                                             std::uint64_t uuid) {
    array_config acfg = cfg;
    // The serialized intent area needs a fixed worst case; "unbounded"
    // becomes a bounded default (mark() still fails loudly when full).
    if (acfg.intent_log_entries == 0) acfg.intent_log_entries = 64;
    if (scfg.direct_io) {
        std::fprintf(stderr, "liberation: create_array: %s\n",
                     direct_io_refusal);
        return nullptr;
    }
    std::unique_ptr<raid6_array> a(new raid6_array(acfg, false));

    if (uuid == 0) {
        std::random_device rd;
        uuid = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
        if (uuid == 0) uuid = 1;
    }
    const std::uint32_t n = a->map_.n();
    std::vector<superblock> images(n);
    for (std::uint32_t s = 0; s < n; ++s) {
        superblock& img = images[s];
        img.array_uuid = uuid;
        img.events = 1;
        img.clean = false;
        img.slot = s;
        img.disk_id = a->disks_[s]->id();
        img.k = a->map_.k();
        img.p = a->code_.p();
        img.element_size = a->map_.element_size();
        img.stripes = a->map_.stripes();
        img.sector_size = a->sector_size_;
        img.layout = static_cast<std::uint32_t>(a->map_.layout());
        img.spares_available = static_cast<std::uint32_t>(a->spares_.size());
        img.next_disk_id = a->next_disk_id_;
        img.intent_capacity =
            static_cast<std::uint32_t>(acfg.intent_log_entries);
        img.slot_states.assign(
            n, static_cast<std::uint8_t>(slot_state::active));
        img.watermarks.assign(n, a->map_.stripes());
        const std::span<const std::uint32_t> crcs =
            a->regions_[s].checksums();
        img.crcs.assign(crcs.begin(), crcs.end());
    }
    std::unique_ptr<store> st =
        store::format(scfg, std::move(images), a->map_.disk_capacity(),
                      a->obs_.metrics());
    if (!st) return nullptr;
    for (std::uint32_t s = 0; s < n; ++s) {
        util::mapped_region region = st->map_data(s);
        if (region.empty()) return nullptr;
        a->disks_[s]->map_medium(std::move(region));
    }
    a->attach_persistence(std::move(st));
    return a;
}

mounted_array mounter::mount(const mount_options& opts) {
    const auto t0 = std::chrono::steady_clock::now();
    mounted_array out;
    mount_report& rep = out.report;
    if (opts.store.direct_io) {
        rep.error = direct_io_refusal;
        note_mount_refused(rep);
        return out;
    }

    std::vector<disk_probe> probes = probe_dir(opts.store.dir);

    // A member written by another on-disk format is not garbage to kick
    // and re-initialize: refuse by name, before anything is opened.
    for (const disk_probe& p : probes) {
        if (p.format_version != 0 && p.format_version != superblock_version) {
            rep.error = p.path + ": on-disk format version " +
                        std::to_string(p.format_version) +
                        ", this build reads version " +
                        std::to_string(superblock_version) +
                        " — refusing to mount";
            note_mount_refused(rep);
            return out;
        }
    }

    // ---- elect the authority superblock -------------------------------
    std::map<std::uint64_t, std::uint32_t> votes;
    for (const disk_probe& p : probes) {
        if (p.sb) ++votes[p.sb->array_uuid];
    }
    if (votes.empty()) {
        rep.error = "no decodable superblock in " + opts.store.dir;
        note_mount_refused(rep);
        return out;
    }
    std::uint64_t uuid = 0;
    std::uint32_t best_votes = 0;
    for (const auto& [u, c] : votes) {
        if (c > best_votes) {
            best_votes = c;
            uuid = u;
        }
    }
    const superblock* auth = nullptr;
    std::size_t auth_idx = 0;
    for (std::size_t i = 0; i < probes.size(); ++i) {
        const auto& sb = probes[i].sb;
        if (!sb || sb->array_uuid != uuid) continue;
        if (auth == nullptr || std::tie(sb->events, sb->seq) >
                                   std::tie(auth->events, auth->seq)) {
            auth = &*sb;
            auth_idx = i;
        }
    }
    LIBERATION_EXPECTS(auth != nullptr);  // votes was non-empty
    const auto n = static_cast<std::uint32_t>(auth->slot_states.size());
    if (n == 0 || n > 64 || auth->k + 2 != n || auth->intent_capacity == 0 ||
        auth->watermarks.size() != n) {
        rep.error = "authority superblock has corrupt geometry tables";
        note_mount_refused(rep);
        return out;
    }
    rep.disks_total = n;
    rep.unclean = !auth->clean;

    // ---- construct the array with the persisted geometry ---------------
    array_config acfg;
    acfg.k = auth->k;
    acfg.p = auth->p;
    acfg.element_size = auth->element_size;
    acfg.stripes = auth->stripes;
    acfg.sector_size = auth->sector_size;
    acfg.layout = static_cast<parity_layout>(auth->layout);
    acfg.hot_spares = auth->spares_available;
    acfg.auto_failover = opts.auto_failover;
    acfg.rebuild_batch_stripes = opts.rebuild_batch_stripes;
    acfg.io_retry = opts.io_retry;
    acfg.health = opts.health;
    acfg.latency = opts.latency;
    acfg.intent_log_entries = auth->intent_capacity;
    acfg.io_queue_depth = opts.io_queue_depth;
    acfg.obs_virtual_time = opts.obs_virtual_time;
    std::unique_ptr<raid6_array> a(new raid6_array(acfg, false));
    const member_layout& layout = probes[auth_idx].header.layout;
    if (auth->crcs.size() != a->regions_[0].checksums().size()) {
        rep.error = "authority superblock's checksum table does not match "
                    "its geometry";
        note_mount_refused(rep);
        return out;
    }

    // ---- classify every slot -------------------------------------------
    enum class disposition : std::uint8_t {
        active,      ///< current member, contents trusted
        resuming,    ///< current member, rebuild resumes at its watermark
        kicked,      ///< demoted to a blank rebuild target from stripe 0
        failed,      ///< dead per the authority (no file is overwritten)
        foreign_disk ///< someone else's file: failed AND metadata-excluded
    };
    std::vector<disposition> dispo(n, disposition::active);
    std::vector<std::uint32_t> fresh_slots;
    std::vector<std::uint32_t> foreign_slots;
    std::vector<superblock> images(n);
    std::uint32_t failed_total = 0;
    std::uint32_t kicked_total = 0;

    for (std::uint32_t s = 0; s < n; ++s) {
        const disk_probe* p = s < probes.size() ? &probes[s] : nullptr;
        if (p != nullptr) {
            rep.torn_superblock_slots +=
                static_cast<std::uint32_t>(p->bad_slots);
        }
        // Every image starts from the authority's replicated tables; the
        // slot's private fields are filled in per disposition below.
        superblock img = *auth;
        img.slot = s;
        img.seq = 0;
        img.clean = false;
        const std::span<const std::uint32_t> fresh_crcs =
            a->regions_[s].checksums();
        img.crcs.assign(fresh_crcs.begin(), fresh_crcs.end());

        // A file shorter than its data area's end would map pages with no
        // file behind them (SIGBUS on access): it is not usable either.
        const bool file_usable =
            p != nullptr && p->file_present && p->header_ok && p->sb &&
            p->sb->array_uuid == uuid && p->sb->geometry_matches(*auth) &&
            p->sb->crcs.size() == fresh_crcs.size() &&
            p->header.layout == layout &&
            p->file_size >= layout.data_offset() + a->map_.disk_capacity();
        if (file_usable) {
            // The file's own persist state: the next persist continues
            // its seq and copy-on-write page table, and its checksum
            // table describes the bytes in its data area.
            img.seq = p->sb->seq;
            img.crcs = p->sb->crcs;
            img.pages = p->sb->pages;
        } else {
            // Fresh or foreign: a fresh slot's table is written whole at
            // attach, a foreign one is never written at all.
            img.pages.assign(table_page_count(fresh_crcs.size()), {});
        }
        const bool foreign_file =
            p != nullptr && p->file_present &&
            ((p->header_ok && p->header.array_uuid != uuid) ||
             (p->sb && (p->sb->array_uuid != uuid ||
                        !p->sb->geometry_matches(*auth))));

        if (foreign_file) {
            // Another array's disk found in this slot: never write to it.
            dispo[s] = disposition::foreign_disk;
            foreign_slots.push_back(s);
            ++rep.foreign;
            ++failed_total;
        } else if (static_cast<slot_state>(auth->slot_states[s] &
                                           ~slot_state_slow_bit) ==
                   slot_state::failed) {
            // Dead per the last membership epoch; whatever the file holds
            // is stale. Keep the slot failed until the operator replaces
            // it — resurrecting it as a rebuild target would be a silent
            // auto-replace the authority never sanctioned.
            dispo[s] = disposition::failed;
            ++failed_total;
            if (!file_usable) fresh_slots.push_back(s);
        } else if (!file_usable) {
            // Missing or short file, unreadable header, or both
            // superblocks invalid: re-initialize blank and rebuild the
            // member from parity.
            dispo[s] = disposition::kicked;
            fresh_slots.push_back(s);
            ++rep.unreadable;
            ++kicked_total;
        } else if (p->sb->events + 1 < auth->events) {
            // More than one epoch behind: an old copy of the disk was
            // restored; its data cannot be trusted. Kick it to a rebuild
            // target (the file's framing is fine, only data is rebuilt).
            dispo[s] = disposition::kicked;
            ++rep.stale_kicked;
            ++kicked_total;
        } else {
            img.disk_id = p->sb->disk_id;
            if (static_cast<slot_state>(auth->slot_states[s] &
                                        ~slot_state_slow_bit) ==
                    slot_state::rebuilding &&
                auth->watermarks[s] < auth->stripes) {
                dispo[s] = disposition::resuming;
                ++rep.rebuilds_resumed;
            }
        }
        images[s] = std::move(img);
    }
    // A kicked member is a blank rebuild target — an erasure until its
    // rebuild completes — so it counts against the same two-erasure
    // budget. Refusing here is the loud alternative to assembling an
    // array whose data can never be reconstructed.
    if (failed_total + kicked_total > 2) {
        rep.error = "more than two members failed, foreign, or untrusted — "
                    "beyond RAID-6, refusing to assemble";
        note_mount_refused(rep);
        return out;
    }

    // ---- open the store and map the members -----------------------------
    std::unique_ptr<store> st =
        store::attach(opts.store, std::move(images), a->map_.disk_capacity(),
                      layout, fresh_slots, foreign_slots, a->obs_.metrics());
    if (!st) {
        rep.error = "could not initialize backing files";
        note_mount_refused(rep);
        return out;
    }
    for (std::uint32_t s = 0; s < n; ++s) {
        if (dispo[s] == disposition::foreign_disk) continue;
        // The mapping *is* the member's medium: nothing is read back.
        util::mapped_region region = st->map_data(s);
        if (region.empty() || !st->meta_mapped(s)) {
            // Like an unopenable path, but with no medium to rebuild
            // into, or no metadata area to persist its state to: the
            // member does not join, and counts against the two-erasure
            // budget.
            if (dispo[s] != disposition::failed) {
                ++failed_total;
                if (dispo[s] == disposition::kicked) --kicked_total;
                if (dispo[s] == disposition::resuming) --rep.rebuilds_resumed;
                ++rep.unreadable;
                dispo[s] = disposition::failed;
            }
            continue;
        }
        a->disks_[s]->map_medium(std::move(region));
    }
    if (failed_total + kicked_total > 2) {
        rep.error = "more than two members could not be mapped or trusted — "
                    "beyond RAID-6, refusing to assemble";
        note_mount_refused(rep);
        return out;
    }
    for (std::uint32_t s = 0; s < n; ++s) {
        // Trusted checksums: current members, and stale-kicked disks
        // whose checksums describe the bytes still in the file.
        const bool trusted =
            dispo[s] == disposition::active ||
            dispo[s] == disposition::resuming ||
            (dispo[s] == disposition::kicked &&
             std::find(fresh_slots.begin(), fresh_slots.end(), s) ==
                 fresh_slots.end());
        if (trusted) {
            a->regions_[s].restore_checksums(st->image(s).crcs);
        } else {
            // The member's checksum region stays fresh, and its image
            // follows it: pages of a failed member's file that still
            // describe its old bytes are rewritten by the next persist.
            st->update_crcs(s, 0, a->regions_[s].checksums());
        }
    }

    // ---- wire membership, watermarks, and the journal ------------------
    for (std::uint32_t s = 0; s < n; ++s) {
        switch (dispo[s]) {
        case disposition::failed:
        case disposition::foreign_disk:
            a->disks_[s]->fail();
            break;
        case disposition::kicked:
            a->rebuilding_.push_back({s, 0});
            a->ctr_.inc<&array_stats::stale_disks_kicked>();
            break;
        case disposition::resuming:
            a->rebuilding_.push_back(
                {s, static_cast<std::size_t>(auth->watermarks[s])});
            break;
        case disposition::active:
            break;
        }
        // Re-enter a persisted fail-slow quarantine (active/resuming
        // members only — fresh hardware in a kicked slot starts normal).
        // Must happen before persist_membership() below, which recomputes
        // the slot-state bytes from the live monitor.
        if ((dispo[s] == disposition::active ||
             dispo[s] == disposition::resuming) &&
            (auth->slot_states[s] & slot_state_slow_bit) != 0 &&
            a->latmon_.enabled()) {
            a->latmon_.force_quarantine(s);
        }
    }
    a->rebuild_active_ = !a->rebuilding_.empty();
    a->next_disk_id_ = std::max(a->next_disk_id_, auth->next_disk_id);
    for (const superblock::intent_entry& e : auth->intents) {
        a->journal_.restore(static_cast<std::size_t>(e.stripe), e.columns,
                            e.seq);
    }
    rep.intent_entries = auth->intents.size();
    a->gauge_journal_->set(static_cast<std::int64_t>(a->journal_.size()));
    a->attach_persistence(std::move(st));
    a->update_health_gauges();

    // New epoch, stamped unclean: members that miss it (failed slots) are
    // stale at the next mount, and a crash from here on replays again.
    a->persist_membership();
    a->persist_intent();

    // ---- replay the write-hole intent log ------------------------------
    if (opts.replay_intent && a->journal_.size() > 0) {
        std::size_t total = 0;
        for (int round = 0; round < 16 && a->journal_.size() > 0; ++round) {
            const std::size_t done = a->recover_write_hole();
            total += done;
            // The rest has an unavailable column and stays journaled: every
            // path that would decode it refuses until a later replay finds
            // the column readable, or a rebuild re-encodes it (parity
            // columns only).
            if (done == 0) break;
        }
        rep.intent_replayed = total;
        a->ctr_.inc<&array_stats::intent_replayed>(total);
        if (total > 0) {
            obs::flight_recorder::instance().record(
                obs::fr_kind::intent_replayed, a->obs_.now_ns(), 0, total);
        }
    }

    rep.disks_online = n - failed_total;
    rep.ok = true;
    obs::flight_recorder::instance().record(obs::fr_kind::mount_ok,
                                            a->obs_.now_ns(), rep.disks_online,
                                            rep.intent_replayed);
    const auto dt = std::chrono::steady_clock::now() - t0;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count();
    rep.mount_s = static_cast<double>(ns) * 1e-9;
    a->obs_.metrics()
        .get_histogram("raid_mount_ns",
                       "persistent-array mount latency "
                       "(probe, mapping, intent replay)")
        .record(static_cast<std::uint64_t>(ns));
    out.array = std::move(a);
    return out;
}

std::unique_ptr<raid6_array> create_array(const array_config& cfg,
                                          const store_config& scfg,
                                          std::uint64_t uuid) {
    return mounter::create(cfg, scfg, uuid);
}

mounted_array mount_array(const mount_options& opts) {
    return mounter::mount(opts);
}

}  // namespace liberation::raid::persist
