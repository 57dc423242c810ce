// Persistence layer: file-backed disks, versioned CRC-protected
// superblocks (A/B cores + copy-on-write checksum pages), mount/unmount,
// intent-log replay across a process kill, and the crash-point matrix —
// a deliberately damaged store must either heal (a torn core or page
// falls back to the previous superblock, an unreadable member is kicked
// to a rebuild target) or degrade loudly (refuse to assemble past the
// two-erasure budget, or a file of another format version), never
// silently assemble corrupt state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "liberation/aio/file_backend.hpp"
#include "liberation/integrity/crc32c.hpp"
#include "liberation/raid/intent_log.hpp"
#include "liberation/raid/persist/mount.hpp"
#include "liberation/raid/scrubber.hpp"
#include "liberation/util/rng.hpp"
#include "liberation/volume/mount.hpp"

#include <dlfcn.h>
#include <fcntl.h>
#include <sys/stat.h>

#include <atomic>
#include <cerrno>

// A full filesystem, for one file. This posix_fallocate takes the C
// library's place in the test binary: while a file is armed (see
// enospc_scope below), allocating in it fails with ENOSPC; every other
// call goes to the library's.
namespace {
std::atomic<bool> enospc_armed{false};
std::atomic<int> enospc_hits{0};
dev_t enospc_dev = 0;
ino_t enospc_ino = 0;
}  // namespace

extern "C" int posix_fallocate(int fd, off_t offset, off_t len) {
    struct stat st{};
    if (enospc_armed.load() && ::fstat(fd, &st) == 0 &&
        st.st_dev == enospc_dev && st.st_ino == enospc_ino) {
        ++enospc_hits;
        return ENOSPC;
    }
    using fallocate_fn = int (*)(int, off_t, off_t);
    static const auto next = reinterpret_cast<fallocate_fn>(
        ::dlsym(RTLD_NEXT, "posix_fallocate"));
    return next(fd, offset, len);
}

namespace {

using namespace liberation;
using namespace liberation::raid;
using namespace liberation::raid::persist;

std::string fresh_dir(const std::string& name) {
    const std::string dir =
        ::testing::TempDir() + "liberation-persist-" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

array_config small_config() {
    array_config cfg;
    cfg.k = 4;
    cfg.element_size = 512;
    cfg.stripes = 16;
    cfg.sector_size = 512;
    cfg.io_queue_depth = 1;  // one-stripe windows: simplest determinism
    return cfg;
}

std::vector<std::byte> pattern_bytes(std::size_t n, std::uint64_t seed) {
    std::vector<std::byte> out(n);
    util::xoshiro256 rng(seed);
    rng.fill(out);
    return out;
}

/// XOR `len` bytes at `offset` with 0xFF — the torn-write simulator.
void flip_bytes(const std::string& path, std::size_t offset,
                std::size_t len) {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr) << path;
    std::vector<unsigned char> buf(len);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    ASSERT_EQ(std::fread(buf.data(), 1, len, f), len);
    for (unsigned char& b : buf) b ^= 0xFF;
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(buf.data(), 1, len, f), len);
    std::fclose(f);
}

std::vector<std::byte> slurp(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (f == nullptr) return {};
    std::fseek(f, 0, SEEK_END);
    std::vector<std::byte> out(static_cast<std::size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fread(out.data(), 1, out.size(), f), out.size());
    std::fclose(f);
    return out;
}

mount_options options_for(const std::string& dir, bool sync_meta = false) {
    mount_options mo;
    mo.store.dir = dir;
    mo.store.sync_meta = sync_meta;
    mo.io_queue_depth = 1;
    return mo;
}

superblock sample_superblock() {
    superblock sb;
    sb.seq = 7;
    sb.array_uuid = 0xDEADBEEFCAFEF00DULL;
    sb.events = 3;
    sb.clean = true;
    sb.slot = 2;
    sb.disk_id = 9;
    sb.k = 4;
    sb.p = 5;
    sb.element_size = 512;
    sb.stripes = 16;
    sb.sector_size = 512;
    sb.layout = 0;
    sb.spares_available = 1;
    sb.next_disk_id = 8;
    sb.intent_capacity = 8;
    sb.slot_states = {0, 0, 2, 0, 1, 0};
    sb.watermarks = {16, 16, 5, 16, 0, 16};
    sb.intents = {{3, 0x3F, 11}, {9, intent_log::all_columns, 12}};
    sb.crcs = {1, 2, 3, 4, 5, 6, 7, 8};
    return sb;
}

// ---------------------------------------------------------------------
// Superblock codec: core + checksum-table pages
// ---------------------------------------------------------------------

/// The on-disk pieces of one superblock: its core and one copy of each
/// table page (the page table records each page's CRC, copy A).
struct encoded_superblock {
    std::vector<std::byte> core;
    std::vector<std::vector<std::byte>> pages;
};

encoded_superblock encode_all(superblock& sb) {
    encoded_superblock out;
    sb.pages.assign(table_page_count(sb.crcs.size()), {});
    for (std::size_t pg = 0; pg < sb.pages.size(); ++pg) {
        out.pages.emplace_back(table_page_size);
        sb.pages[pg].crc = encode_page(sb.crcs, pg, out.pages.back());
    }
    out.core.resize(core_size(static_cast<std::uint32_t>(sb.slot_states.size()),
                              sb.intent_capacity, sb.crcs.size()));
    encode_core(sb, out.core);
    return out;
}

/// decode_core + decode_page of every referenced page; nullopt when any
/// piece fails validation (as a mount would reject the superblock).
std::optional<superblock> decode_all(const encoded_superblock& e) {
    std::optional<superblock> sb = decode_core(e.core);
    if (!sb || sb->pages.size() != e.pages.size()) return std::nullopt;
    for (std::size_t pg = 0; pg < e.pages.size(); ++pg) {
        if (!decode_page(e.pages[pg], sb->pages[pg].crc, pg, sb->crcs)) {
            return std::nullopt;
        }
    }
    return sb;
}

TEST(Superblock, EncodeDecodeRoundtrip) {
    // The sample's 8-word table (one partial page), and 2500 words: two
    // full pages and a 452-word tail, zero-padded on disk.
    std::vector<std::uint32_t> big(2500);
    util::xoshiro256 rng(11);
    for (std::uint32_t& w : big) w = static_cast<std::uint32_t>(rng());
    for (const std::vector<std::uint32_t>& table :
         {sample_superblock().crcs, big}) {
        SCOPED_TRACE(table.size());
        superblock sb = sample_superblock();
        sb.crcs = table;
        const encoded_superblock e = encode_all(sb);
        EXPECT_EQ(e.core.size(),
                  core_size(static_cast<std::uint32_t>(sb.slot_states.size()),
                            sb.intent_capacity, sb.crcs.size()));
        ASSERT_EQ(e.pages.size(), table_page_count(table.size()));
        const std::vector<std::byte>& last = e.pages.back();
        const std::size_t tail_words = table.size() % table_page_words;
        EXPECT_TRUE(std::all_of(last.begin() + tail_words * 4, last.end(),
                                [](std::byte b) { return b == std::byte{0}; }));

        // The checksum table travels through the pages, not the core.
        const auto core_only = decode_core(e.core);
        ASSERT_TRUE(core_only.has_value());
        EXPECT_EQ(core_only->crcs,
                  std::vector<std::uint32_t>(sb.crcs.size(), 0));
        EXPECT_EQ(core_only->pages, sb.pages);

        const auto back = decode_all(e);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->seq, sb.seq);
        EXPECT_EQ(back->array_uuid, sb.array_uuid);
        EXPECT_EQ(back->events, sb.events);
        EXPECT_EQ(back->clean, sb.clean);
        EXPECT_EQ(back->slot, sb.slot);
        EXPECT_EQ(back->disk_id, sb.disk_id);
        EXPECT_TRUE(back->geometry_matches(sb));
        EXPECT_EQ(back->slot_states, sb.slot_states);
        EXPECT_EQ(back->watermarks, sb.watermarks);
        EXPECT_EQ(back->crcs, sb.crcs);
        EXPECT_EQ(back->pages, sb.pages);
        ASSERT_EQ(back->intents.size(), sb.intents.size());
        for (std::size_t i = 0; i < sb.intents.size(); ++i) {
            EXPECT_EQ(back->intents[i].stripe, sb.intents[i].stripe);
            EXPECT_EQ(back->intents[i].columns, sb.intents[i].columns);
            EXPECT_EQ(back->intents[i].seq, sb.intents[i].seq);
        }
    }
}

TEST(Superblock, EncodedSizeIndependentOfIntentOccupancy) {
    // The on-disk framing must be fixed at format time: a fuller intent
    // log must not change the encoded extent (unused slots are padding).
    superblock sb = sample_superblock();
    sb.intents.clear();
    const std::size_t empty = encode_all(sb).core.size();
    sb.intents = {{1, 1, 1}, {2, 2, 2}, {3, 3, 3}};
    const encoded_superblock full = encode_all(sb);
    EXPECT_EQ(full.core.size(), empty);
    const auto back = decode_all(full);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->intents.size(), 3u);
}

TEST(Superblock, TornSlotFailsItsCrc) {
    superblock sb = sample_superblock();
    const encoded_superblock e = encode_all(sb);
    ASSERT_TRUE(decode_all(e).has_value());
    for (const std::size_t at :
         {std::size_t{0}, e.core.size() / 2, e.core.size() - 1}) {
        encoded_superblock torn = e;
        torn.core[at] ^= std::byte{0x01};
        EXPECT_FALSE(decode_core(torn.core).has_value()) << "flip at " << at;
    }
    // Truncation is torn too.
    std::vector<std::byte> shorter(e.core.begin(), e.core.end() - 1);
    EXPECT_FALSE(decode_core(shorter).has_value());
    // A torn page fails the CRC its core recorded: the core is intact,
    // the superblock as a whole is not.
    for (const std::size_t at : {std::size_t{0}, table_page_size - 1}) {
        encoded_superblock torn = e;
        torn.pages[0][at] ^= std::byte{0x01};
        EXPECT_TRUE(decode_core(torn.core).has_value());
        EXPECT_FALSE(decode_all(torn).has_value()) << "page flip at " << at;
    }
}

TEST(Superblock, FileHeaderRoundtripAndTearDetection) {
    file_header h;
    h.array_uuid = 0x1234;
    h.slot = 3;
    h.layout.core_bytes = 4096;
    h.layout.table_pages = 7;
    std::vector<std::byte> blob = encode_header(h);
    EXPECT_EQ(blob.size(), file_header_size);
    EXPECT_EQ(header_version(blob), superblock_version);
    const auto back = decode_header(blob);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->array_uuid, h.array_uuid);
    EXPECT_EQ(back->slot, h.slot);
    EXPECT_EQ(back->layout.core_bytes, h.layout.core_bytes);
    EXPECT_EQ(back->layout.table_pages, h.layout.table_pages);
    EXPECT_EQ(back->layout.data_offset(),
              file_header_size + 2 * 4096 + 2 * 7 * table_page_size);
    blob[9] ^= std::byte{0x80};
    EXPECT_FALSE(decode_header(blob).has_value());
}

// ---------------------------------------------------------------------
// Intent log replay order + full-log behavior (in-memory contract the
// persistence layer serializes)
// ---------------------------------------------------------------------

TEST(IntentLogOrder, ReplayOrderIsOldestMarkFirst) {
    intent_log log;
    EXPECT_TRUE(log.mark(5));
    EXPECT_TRUE(log.mark(3));
    EXPECT_TRUE(log.mark(9));
    EXPECT_EQ(log.dirty_stripes(), (std::vector<std::size_t>{5, 3, 9}));
    // Clearing and re-marking moves a stripe to the back: its hazard
    // re-began, the older in-flight stripes replay first.
    log.clear(3);
    EXPECT_TRUE(log.mark(3));
    EXPECT_EQ(log.dirty_stripes(), (std::vector<std::size_t>{5, 9, 3}));
}

TEST(IntentLogOrder, RemarkWidensMaskButKeepsStamp) {
    intent_log log;
    EXPECT_TRUE(log.mark(4, 0x3));
    EXPECT_TRUE(log.mark(8, 0x1));
    EXPECT_TRUE(log.mark(4, 0xC));  // second update of the same stripe
    EXPECT_EQ(log.columns(4), 0xFu);
    EXPECT_EQ(log.dirty_stripes(), (std::vector<std::size_t>{4, 8}));
    const auto entries = log.entries();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_LT(entries[0].seq, entries[1].seq);
    EXPECT_EQ(entries[0].stripe, 4u);
}

TEST(IntentLogOrder, FullLogRejectsLoudlyAndNeverShedsEntries) {
    intent_log log(2);
    EXPECT_TRUE(log.mark(1));
    EXPECT_TRUE(log.mark(2));
    EXPECT_FALSE(log.mark(3));  // full: refuse, do not evict
    EXPECT_EQ(log.rejected(), 1u);
    EXPECT_EQ(log.size(), 2u);
    EXPECT_FALSE(log.is_dirty(3));
    // Re-marking a present stripe is not a new entry and must succeed.
    EXPECT_TRUE(log.mark(1, 0x1));
    // Draining the oldest entry frees capacity for the refused one.
    log.clear(1);
    EXPECT_TRUE(log.mark(3));
    EXPECT_EQ(log.dirty_stripes(), (std::vector<std::size_t>{2, 3}));
}

TEST(IntentLogOrder, RestoreRebuildsReplayOrderFromStamps) {
    intent_log log;
    // Scrambled insertion order; stamps decide.
    log.restore(12, 0xF, 30);
    log.restore(7, intent_log::all_columns, 10);
    log.restore(2, 0x1, 20);
    EXPECT_EQ(log.dirty_stripes(), (std::vector<std::size_t>{7, 2, 12}));
    EXPECT_EQ(log.columns(7), intent_log::all_columns);
    // New marks stamp after everything restored.
    EXPECT_TRUE(log.mark(1));
    EXPECT_EQ(log.dirty_stripes(), (std::vector<std::size_t>{7, 2, 12, 1}));
}

// ---------------------------------------------------------------------
// File backend
// ---------------------------------------------------------------------

TEST(FileBackend, DataSurvivesReopen) {
    const std::string dir = fresh_dir("filebackend");
    const std::string path = dir + "/fb.img";
    aio::file_backend_config bc;
    bc.data_offset = 4096;
    const std::vector<std::byte> meta = pattern_bytes(4096, 76);
    const std::vector<std::byte> data = pattern_bytes(8192, 77);
    {
        aio::file_backend fb({path}, 8192, bc);
        ASSERT_TRUE(fb.ok(0));
        ASSERT_TRUE(fb.preallocate_data(0));
        util::mapped_region m = fb.map_data(0);
        ASSERT_FALSE(m.empty());
        ASSERT_EQ(m.size(), data.size());
        std::memcpy(m.data(), data.data(), data.size());
        util::mapped_region md = fb.map_meta(0);
        ASSERT_FALSE(md.empty());
        ASSERT_EQ(md.size(), meta.size());
        std::memcpy(md.data(), meta.data(), meta.size());
        ASSERT_TRUE(fb.flush(0));
    }  // unmapped and closed
    EXPECT_EQ(std::filesystem::file_size(path), 4096u + 8192u);
    {
        aio::file_backend fb({path}, 8192, bc);
        const util::mapped_region m = fb.map_data(0);
        ASSERT_FALSE(m.empty());
        EXPECT_EQ(std::memcmp(m.data(), data.data(), data.size()), 0);
        const util::mapped_region md = fb.map_meta(0);
        ASSERT_FALSE(md.empty());
        EXPECT_EQ(std::memcmp(md.data(), meta.data(), meta.size()), 0);
    }
    // The two mappings are the file's two areas, metadata first.
    std::vector<std::byte> file = meta;
    file.insert(file.end(), data.begin(), data.end());
    EXPECT_EQ(slurp(path), file);
}

TEST(FileBackend, UnopenablePathDegradesNotCrashes) {
    aio::file_backend fb({"/nonexistent-dir-xyz/disk.img"}, 4096, {});
    EXPECT_FALSE(fb.ok(0));
    EXPECT_TRUE(fb.map_data(0).empty());
    EXPECT_TRUE(fb.map_meta(0).empty());
    EXPECT_FALSE(fb.preallocate_data(0));
    EXPECT_FALSE(fb.flush(0));
}

// ---------------------------------------------------------------------
// Mount / unmount roundtrip
// ---------------------------------------------------------------------

TEST(Persistence, CreateWriteUnmountMountRoundtrip) {
    const std::string dir = fresh_dir("roundtrip");
    const array_config cfg = small_config();
    store_config scfg;
    scfg.dir = dir;

    std::vector<std::byte> data;
    {
        auto a = create_array(cfg, scfg, 0xFEED);
        ASSERT_NE(a, nullptr);
        EXPECT_TRUE(a->persistent());
        data = pattern_bytes(a->capacity(), 1);
        ASSERT_TRUE(a->write(0, data));
        EXPECT_TRUE(a->unmount());
        EXPECT_FALSE(a->persistent());  // detached
    }
    mounted_array m = mount_array(options_for(dir));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    ASSERT_NE(m.array, nullptr);
    EXPECT_FALSE(m.report.unclean);  // unmount stamped the store clean
    EXPECT_EQ(m.report.disks_total, cfg.k + 2);
    EXPECT_EQ(m.report.disks_online, cfg.k + 2);
    EXPECT_EQ(m.report.torn_superblock_slots, 0u);
    EXPECT_EQ(m.report.intent_entries, 0u);
    EXPECT_GT(m.report.mount_s, 0.0);

    std::vector<std::byte> back(m.array->capacity());
    ASSERT_TRUE(m.array->read(0, back));
    EXPECT_EQ(back, data);
    // Every stored checksum must also have survived: a scrub finds
    // nothing to repair.
    const scrub_summary s = scrub_array(*m.array);
    EXPECT_EQ(s.repaired_data + s.repaired_parity + s.repaired_metadata, 0u);
    EXPECT_EQ(s.uncorrectable, 0u);
    EXPECT_TRUE(m.array->unmount());
}

TEST(Persistence, MountEmptyDirectoryFailsLoudly) {
    const std::string dir = fresh_dir("empty");
    mounted_array m = mount_array(options_for(dir));
    EXPECT_FALSE(m.report.ok);
    EXPECT_EQ(m.array, nullptr);
    EXPECT_FALSE(m.report.error.empty());
}

TEST(Persistence, UncleanCrashReplaysIntentLog) {
    const std::string dir = fresh_dir("crash-midwrite");
    const array_config cfg = small_config();
    store_config scfg;
    scfg.dir = dir;

    auto a = create_array(cfg, scfg, 0xFEED);
    ASSERT_NE(a, nullptr);
    const std::vector<std::byte> data = pattern_bytes(a->capacity(), 2);
    ASSERT_TRUE(a->write(0, data));

    // Pull the plug a couple of disk writes into a stripe update, then
    // "kill the process": destroy the array with no unmount. The intent
    // entry was persisted before the data writes began.
    a->simulate_power_loss_after(2);
    const std::vector<std::byte> update =
        pattern_bytes(3 * cfg.element_size, 3);
    (void)a->write(5 * cfg.element_size, update);
    ASSERT_FALSE(a->powered());
    a.reset();  // crash

    mounted_array m = mount_array(options_for(dir));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    EXPECT_TRUE(m.report.unclean);
    EXPECT_GE(m.report.intent_entries, 1u);
    EXPECT_GE(m.report.intent_replayed, 1u);
    EXPECT_EQ(m.array->journal().size(), 0u);
    EXPECT_GE(m.array->stats().intent_replayed, 1u);
    // The replay counter is exported through the metrics hub.
    EXPECT_NE(m.array->obs().metrics_text().find(
                  "liberation_raid_intent_replayed_total"),
              std::string::npos);

    // Whatever old/new mix the torn write left is now ground truth; the
    // invariant is parity consistency, which the scrubber certifies.
    const scrub_summary s = scrub_array(*m.array);
    EXPECT_EQ(s.uncorrectable, 0u);
    EXPECT_TRUE(m.array->unmount());
}

TEST(Persistence, PipelinedWritesPersistEveryChecksum) {
    // A qd-8 full-stripe window: every disk's checksum persists land in
    // the window's flushes, between the group-committed intent persists
    // before and after it, and a kill right after must leave nothing torn.
    const std::string dir = fresh_dir("pipelined");
    array_config cfg = small_config();
    cfg.io_queue_depth = 8;
    store_config scfg;
    scfg.dir = dir;
    auto a = create_array(cfg, scfg, 0xFEED);
    ASSERT_NE(a, nullptr);
    const std::vector<std::byte> data = pattern_bytes(a->capacity(), 31);
    ASSERT_TRUE(a->write(0, data));
    a.reset();  // kill: only the per-write persists reached the files

    mount_options mo = options_for(dir);
    mo.io_queue_depth = 8;
    mounted_array m = mount_array(mo);
    ASSERT_TRUE(m.report.ok) << m.report.error;
    EXPECT_EQ(m.report.torn_superblock_slots, 0u);
    EXPECT_EQ(m.report.intent_entries, 0u);
    std::vector<std::byte> back(m.array->capacity());
    ASSERT_TRUE(m.array->read(0, back));
    EXPECT_EQ(back, data);
    EXPECT_EQ(m.array->stats().checksum_mismatches, 0u);
    EXPECT_TRUE(m.array->unmount());
}

TEST(Persistence, RestoredJournalPreservesReplayOrder) {
    const std::string dir = fresh_dir("replay-order");
    array_config cfg = small_config();
    cfg.io_queue_depth = 4;  // window writes journal several stripes
    store_config scfg;
    scfg.dir = dir;

    auto a = create_array(cfg, scfg, 0xFEED);
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->write(0, pattern_bytes(a->capacity(), 4)));

    // Die inside a multi-stripe full-stripe window: several stripes are
    // journaled, few of their writes landed.
    a->simulate_power_loss_after(3);
    const std::size_t stripe_bytes = a->map().stripe_data_size();
    (void)a->write(0, pattern_bytes(4 * stripe_bytes, 5));
    ASSERT_FALSE(a->powered());
    a.reset();  // crash

    mount_options mo = options_for(dir);
    mo.replay_intent = false;  // inspect the restored journal
    mounted_array m = mount_array(mo);
    ASSERT_TRUE(m.report.ok) << m.report.error;
    ASSERT_GE(m.array->journal().size(), 1u);
    // Stamps must have survived serialization: entries() strictly
    // ascending in seq, which is the replay order.
    const auto entries = m.array->journal().entries();
    for (std::size_t i = 1; i < entries.size(); ++i) {
        EXPECT_LT(entries[i - 1].seq, entries[i].seq);
    }
    // Replay drains the journal front-to-back.
    while (m.array->journal().size() > 0) {
        if (m.array->recover_write_hole() == 0) break;
    }
    EXPECT_EQ(m.array->journal().size(), 0u);
    const scrub_summary s = scrub_array(*m.array);
    EXPECT_EQ(s.uncorrectable, 0u);
    EXPECT_TRUE(m.array->unmount());
}

// ---------------------------------------------------------------------
// Crash-point matrix: deliberately damaged stores
// ---------------------------------------------------------------------

class CrashPointMatrix : public ::testing::Test {
protected:
    /// Create a store holding data_ and keep the array live in `live_`
    /// (destroying it without unmount is a process kill).
    void open_live(const std::string& dir, bool sync_meta = false,
                   const array_config& cfg = small_config()) {
        dir_ = dir;
        store_config scfg;
        scfg.dir = dir_;
        scfg.sync_meta = sync_meta;
        live_ = create_array(cfg, scfg, 0xFEED);
        ASSERT_NE(live_, nullptr);
        data_ = pattern_bytes(live_->capacity(), 6);
        ASSERT_TRUE(live_->write(0, data_));
        layout_ = live_->persistence()->layout();
        slot_bytes_ = layout_.core_bytes;
        data_offset_ = layout_.data_offset();
    }

    void make_store(const std::string& dir, bool sync_meta = false) {
        open_live(dir, sync_meta);
        ASSERT_TRUE(live_->unmount());
        live_.reset();
        const auto probes = probe_dir(dir_);
        ASSERT_EQ(probes.size(), 6u);
        ASSERT_TRUE(probes[0].header_ok);
        EXPECT_EQ(probes[0].header.layout.data_offset(), data_offset_);
    }

    /// Mount, read everything back through the verified read path, and
    /// unmount: no byte differs and no read needed its checksum repaired.
    void expect_verified_remount(bool sync_meta, std::uint32_t torn_slots) {
        mounted_array m = mount_array(options_for(dir_, sync_meta));
        ASSERT_TRUE(m.report.ok) << m.report.error;
        EXPECT_EQ(m.report.torn_superblock_slots, torn_slots);
        EXPECT_EQ(m.report.unreadable, 0u);
        EXPECT_EQ(m.report.disks_online, 6u);
        expect_data_intact(*m.array);
        EXPECT_EQ(m.array->stats().checksum_mismatches, 0u);
        EXPECT_TRUE(m.array->unmount());
    }

    void expect_data_intact(raid6_array& a) {
        std::vector<std::byte> back(a.capacity());
        ASSERT_TRUE(a.read(0, back));
        EXPECT_EQ(back, data_);
    }

    std::string disk(std::uint32_t slot) const {
        return store::disk_path(dir_, slot);
    }

    std::string dir_;
    std::vector<std::byte> data_;
    std::unique_ptr<raid6_array> live_;
    member_layout layout_;
    std::uint64_t slot_bytes_ = 0;
    std::uint64_t data_offset_ = 0;
};

TEST_F(CrashPointMatrix, TornSuperblockSlotFallsBackToShadow) {
    make_store(fresh_dir("torn-one-slot"));
    // Tear slot A of disk 1 (a torn shadow write: CRC fails, the other
    // copy carries the mount).
    flip_bytes(disk(1), file_header_size + 8, 16);
    mounted_array m = mount_array(options_for(dir_));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    EXPECT_EQ(m.report.torn_superblock_slots, 1u);
    EXPECT_EQ(m.report.unreadable, 0u);
    EXPECT_EQ(m.report.disks_online, 6u);
    expect_data_intact(*m.array);
    EXPECT_TRUE(m.array->unmount());
}

TEST_F(CrashPointMatrix, BothSlotsTornKicksDiskToRebuild) {
    make_store(fresh_dir("torn-both-slots"));
    flip_bytes(disk(1), file_header_size + 8, 16);
    flip_bytes(disk(1), file_header_size + slot_bytes_ + 8, 16);
    mounted_array m = mount_array(options_for(dir_));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    EXPECT_EQ(m.report.unreadable, 1u);
    EXPECT_GE(m.report.torn_superblock_slots, 2u);
    EXPECT_EQ(m.array->stats().stale_disks_kicked, 1u);
    EXPECT_TRUE(m.array->rebuild_active());
    m.array->drain_background_rebuild();
    expect_data_intact(*m.array);
    EXPECT_TRUE(m.array->unmount());

    // The healed store mounts clean: the kick was persisted, the rebuild
    // completed, nothing is degraded on the second mount.
    mounted_array again = mount_array(options_for(dir_));
    ASSERT_TRUE(again.report.ok) << again.report.error;
    EXPECT_EQ(again.report.unreadable, 0u);
    EXPECT_EQ(again.report.disks_online, 6u);
    expect_data_intact(*again.array);
    EXPECT_TRUE(again.array->unmount());
}

TEST_F(CrashPointMatrix, CorruptFileHeaderKicksDiskToRebuild) {
    make_store(fresh_dir("bad-header"));
    flip_bytes(disk(2), 16, 8);
    mounted_array m = mount_array(options_for(dir_));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    EXPECT_EQ(m.report.unreadable, 1u);
    m.array->drain_background_rebuild();
    expect_data_intact(*m.array);
    EXPECT_TRUE(m.array->unmount());
}

TEST_F(CrashPointMatrix, MissingDiskFileKicksDiskToRebuild) {
    make_store(fresh_dir("missing-file"));
    std::filesystem::remove(disk(3));
    mounted_array m = mount_array(options_for(dir_));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    EXPECT_EQ(m.report.unreadable, 1u);
    m.array->drain_background_rebuild();
    expect_data_intact(*m.array);
    EXPECT_TRUE(m.array->unmount());
}

TEST_F(CrashPointMatrix, ThreeUntrustedMembersRefuseLoudly) {
    make_store(fresh_dir("three-gone"));
    for (std::uint32_t d : {1u, 2u, 3u}) {
        flip_bytes(disk(d), file_header_size + 8, 16);
        flip_bytes(disk(d), file_header_size + slot_bytes_ + 8, 16);
    }
    mounted_array m = mount_array(options_for(dir_));
    EXPECT_FALSE(m.report.ok);
    EXPECT_EQ(m.array, nullptr);
    EXPECT_NE(m.report.error.find("refusing to assemble"), std::string::npos)
        << m.report.error;
}

TEST_F(CrashPointMatrix, MidStripeTornDataIsDetectedAndHealed) {
    make_store(fresh_dir("torn-data"));
    // Damage data bytes directly in the file — a torn data write the
    // persisted checksums still describe correctly.
    flip_bytes(disk(0), data_offset_ + 3 * 512, 64);
    mounted_array m = mount_array(options_for(dir_));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    // Never served silently: the verified read path or the scrubber must
    // catch the mismatch and reconstruct from the surviving columns.
    const scrub_summary s = scrub_array(*m.array);
    EXPECT_GE(s.repaired_data + s.repaired_parity, 1u);
    EXPECT_EQ(s.uncorrectable, 0u);
    expect_data_intact(*m.array);
    EXPECT_TRUE(m.array->unmount());
}

// ---- copy-on-write checksum pages ------------------------------------

TEST_F(CrashPointMatrix, TornPageOfNewestCoreFallsBackToPreviousCore) {
    for (const bool sync : {false, true}) {
        SCOPED_TRACE(sync ? "sync_meta" : "no sync_meta");
        open_live(fresh_dir(sync ? "torn-page-sync" : "torn-page"), sync);
        store* st = live_->persistence();
        // One persist that rewrites a table page of disk 1: the newest
        // core references the fresh copy, the previous core the old copy.
        // The fresh copy carries a wrong word, so a mount that used it
        // would fail verification on the block it covers.
        const std::uint32_t bogus = ~st->image(1).crcs[3];
        st->update_crcs(1, 3, {&bogus, 1});
        ASSERT_TRUE(st->persist(1));
        const table_page_ref fresh = st->image(1).pages[0];
        live_.reset();  // kill before anything else lands

        // The page write tore; the core that names it landed.
        flip_bytes(disk(1), layout_.page_offset(fresh.copy, 0) + 12, 16);
        expect_verified_remount(sync, 1);
    }
}

TEST_F(CrashPointMatrix, PageOfBothCoresTornKicksDiskToRebuild) {
    for (const bool sync : {false, true}) {
        SCOPED_TRACE(sync ? "sync_meta" : "no sync_meta");
        make_store(fresh_dir(sync ? "torn-shared-page-sync"
                                  : "torn-shared-page"),
                   sync);
        // The clean-unmount persists rewrote no page, so both cores
        // reference the same copy: tearing it invalidates both.
        const auto probes = probe_dir(dir_);
        ASSERT_TRUE(probes[2].sb.has_value());
        const table_page_ref ref = probes[2].sb->pages[0];
        flip_bytes(disk(2), layout_.page_offset(ref.copy, 0) + 40, 8);

        mounted_array m = mount_array(options_for(dir_, sync));
        ASSERT_TRUE(m.report.ok) << m.report.error;
        EXPECT_EQ(m.report.torn_superblock_slots, 2u);
        EXPECT_EQ(m.report.unreadable, 1u);
        EXPECT_EQ(m.array->stats().stale_disks_kicked, 1u);
        m.array->drain_background_rebuild();
        expect_data_intact(*m.array);
        EXPECT_TRUE(m.array->unmount());
        expect_verified_remount(sync, 0);
    }
}

TEST_F(CrashPointMatrix, PersistWithoutChecksumChangeWritesOnlyTheCore) {
    for (const bool sync : {false, true}) {
        SCOPED_TRACE(sync ? "sync_meta" : "no sync_meta");
        open_live(fresh_dir(sync ? "core-only-sync" : "core-only"), sync);
        store* st = live_->persistence();
        const std::vector<std::byte> before = slurp(disk(4));
        // Re-installing the words already there changes nothing.
        const std::vector<std::uint32_t> same = st->image(4).crcs;
        st->update_crcs(4, 0, same);
        ASSERT_TRUE(st->persist(4));
        const std::vector<std::byte> after = slurp(disk(4));
        ASSERT_EQ(before.size(), after.size());

        const std::uint64_t core = layout_.core_offset(st->image(4).seq % 2);
        std::size_t changed = 0;
        for (std::size_t i = 0; i < before.size(); ++i) {
            if (before[i] == after[i]) continue;
            ++changed;
            EXPECT_TRUE(i >= core && i < core + layout_.core_bytes)
                << "byte " << i << " outside core slot at " << core;
        }
        EXPECT_GT(changed, 0u);  // the core itself (seq) did change
        live_.reset();
        expect_verified_remount(sync, 0);
    }
}

TEST_F(CrashPointMatrix, SmallWriteChangesOneTablePagePerWrittenDisk) {
    // 1000 stripes of 5 x 512 B elements: 5000 checksum words, five
    // table pages per disk, the last one partial (904 words) — the
    // remount below round-trips it through the files.
    array_config cfg = small_config();
    cfg.stripes = 1000;
    for (const bool sync : {false, true}) {
        SCOPED_TRACE(sync ? "sync_meta" : "no sync_meta");
        open_live(fresh_dir(sync ? "one-page-sync" : "one-page"), sync, cfg);
        ASSERT_EQ(layout_.table_pages, 5u);
        const std::uint32_t n = live_->map().n();
        std::vector<std::vector<std::byte>> before;
        for (std::uint32_t d = 0; d < n; ++d) before.push_back(slurp(disk(d)));

        // 4 KiB at the start of stripe 300: its strips (blocks 1500..1504
        // of every disk) sit inside table page 1.
        const std::vector<std::byte> update = pattern_bytes(4096, 77);
        const std::size_t addr = 300 * live_->map().stripe_data_size();
        ASSERT_TRUE(live_->write(addr, update));
        std::copy(update.begin(), update.end(),
                  data_.begin() + static_cast<std::ptrdiff_t>(addr));

        std::uint32_t disks_written = 0;
        for (std::uint32_t d = 0; d < n; ++d) {
            const std::vector<std::byte> after = slurp(disk(d));
            ASSERT_EQ(after.size(), before[d].size());
            const bool data_changed = !std::equal(
                after.begin() + static_cast<std::ptrdiff_t>(data_offset_),
                after.end(),
                before[d].begin() + static_cast<std::ptrdiff_t>(data_offset_));
            std::uint32_t pages_changed = 0;
            for (std::uint64_t pg = 0; pg < layout_.table_pages; ++pg) {
                bool changed = false;
                for (std::uint8_t copy = 0; copy < 2; ++copy) {
                    const auto off = static_cast<std::ptrdiff_t>(
                        layout_.page_offset(copy, pg));
                    changed |= !std::equal(
                        after.begin() + off,
                        after.begin() + off + table_page_size,
                        before[d].begin() + off);
                }
                pages_changed += changed ? 1 : 0;
            }
            EXPECT_EQ(pages_changed, data_changed ? 1u : 0u) << "disk " << d;
            disks_written += data_changed ? 1 : 0;
        }
        EXPECT_GE(disks_written, 3u);  // data plus both parities
        live_.reset();
        expect_verified_remount(sync, 0);
    }
}

TEST_F(CrashPointMatrix, OtherFormatVersionIsRefusedByName) {
    make_store(fresh_dir("v1-files"));
    // Rewrite every header in the v1 framing: magic, version 1, UUID,
    // slot, slot size, data offset, CRC32C.
    for (std::uint32_t d = 0; d < 6; ++d) {
        std::vector<std::byte> hdr(file_header_size);
        std::size_t at = 0;
        const auto put = [&](std::uint64_t v, int bytes) {
            for (int i = 0; i < bytes; ++i) {
                hdr[at++] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
            }
        };
        put(file_header_magic, 8);
        put(1, 4);
        put(0xFEED, 8);
        put(d, 4);
        put(32768, 8);
        put(file_header_size + 2 * 32768, 8);
        put(integrity::crc32c(hdr.data(), at), 4);
        std::FILE* f = std::fopen(disk(d).c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(hdr.data(), 1, hdr.size(), f), hdr.size());
        std::fclose(f);
    }
    const std::vector<std::byte> file_before = slurp(disk(0));
    mounted_array m = mount_array(options_for(dir_));
    EXPECT_FALSE(m.report.ok);
    EXPECT_EQ(m.array, nullptr);
    EXPECT_NE(m.report.error.find("on-disk format version 1"),
              std::string::npos)
        << m.report.error;
    EXPECT_NE(m.report.error.find("this build reads version 2"),
              std::string::npos)
        << m.report.error;
    EXPECT_EQ(m.report.unreadable, 0u);  // nothing kicked or re-initialized
    EXPECT_EQ(slurp(disk(0)), file_before);
}

// ---------------------------------------------------------------------
// Mapped data areas
// ---------------------------------------------------------------------

/// Byte offset of the data area in every member file of `dir`.
std::uint64_t data_offset_of(const std::string& dir) {
    const auto probes = probe_dir(dir);
    EXPECT_FALSE(probes.empty());
    return probes.empty() ? 0 : probes[0].header.layout.data_offset();
}

TEST(Persistence, MappedWriteReachesFileWithoutSync) {
    const std::string dir = fresh_dir("mapped-write");
    const array_config cfg = small_config();
    store_config scfg;
    scfg.dir = dir;
    auto a = create_array(cfg, scfg, 0xFEED);
    ASSERT_NE(a, nullptr);
    const std::vector<std::byte> data = pattern_bytes(a->capacity(), 41);
    ASSERT_TRUE(a->write(0, data));
    // No unmount, no sync: a positioned read of each member file already
    // returns the medium's bytes.
    const std::uint64_t off = data_offset_of(dir);
    const std::size_t cap = a->map().disk_capacity();
    std::vector<std::byte> medium(cap);
    for (std::uint32_t d = 0; d < a->disk_count(); ++d) {
        const std::vector<std::byte> file = slurp(store::disk_path(dir, d));
        ASSERT_EQ(file.size(), off + cap);
        a->disk(d).peek(0, medium);
        EXPECT_TRUE(std::equal(medium.begin(), medium.end(),
                               file.begin() + static_cast<std::ptrdiff_t>(off)))
            << "disk " << d;
    }
    // And those bytes are the host's: stripe 0's first data strip.
    const strip_location loc = a->map().locate(0, 0);
    const std::vector<std::byte> file =
        slurp(store::disk_path(dir, loc.disk));
    EXPECT_TRUE(std::equal(
        data.begin(),
        data.begin() + static_cast<std::ptrdiff_t>(a->map().strip_size()),
        file.begin() + static_cast<std::ptrdiff_t>(off + loc.offset)));
}

TEST(Persistence, CreatePreallocatesDataArea) {
    const std::string dir = fresh_dir("prealloc");
    const array_config cfg = small_config();
    store_config scfg;
    scfg.dir = dir;
    auto a = create_array(cfg, scfg, 0xFEED);
    ASSERT_NE(a, nullptr);
    const std::uint64_t end = data_offset_of(dir) + a->map().disk_capacity();
    for (std::uint32_t d = 0; d < a->disk_count(); ++d) {
        struct stat st{};
        ASSERT_EQ(::stat(store::disk_path(dir, d).c_str(), &st), 0);
        EXPECT_GE(static_cast<std::uint64_t>(st.st_blocks) * 512, end)
            << "disk " << d;
    }
}

/// Write-family system calls this process has made (/proc/self/io
/// `syscw`), or nullopt where the kernel does not report them.
std::optional<std::uint64_t> write_syscalls() {
    std::FILE* f = std::fopen("/proc/self/io", "r");
    if (f == nullptr) return std::nullopt;
    std::optional<std::uint64_t> out;
    char key[32];
    unsigned long long v = 0;
    while (std::fscanf(f, "%31[^:]: %llu\n", key, &v) == 2) {
        if (std::strcmp(key, "syscw") == 0) out = v;
    }
    std::fclose(f);
    return out;
}

TEST(Persistence, PersistMakesNoSystemCall) {
    if (!write_syscalls()) GTEST_SKIP() << "no /proc/self/io";
    store_config scfg;  // sync_meta off
    scfg.dir = fresh_dir("persist-no-syscall");
    auto a = create_array(small_config(), scfg, 0xFEED);
    ASSERT_NE(a, nullptr);
    store* st = a->persistence();
    ASSERT_NE(st, nullptr);
    const std::uint32_t n = a->disk_count();
    std::vector<std::uint32_t> word(1);
    const store_stats s0 = st->stats();
    const std::uint64_t before = *write_syscalls();
    bool all_ok = true;
    for (std::uint32_t i = 0; i < 100; ++i) {
        // A changed word each time: every persist stores a page and a core.
        word[0] = 0xC0DE0000u + i;
        st->update_crcs(i % n, 0, word);
        all_ok = st->persist(i % n) && all_ok;
    }
    const std::uint64_t after = *write_syscalls();
    const store_stats s1 = st->stats();
    EXPECT_TRUE(all_ok);
    EXPECT_EQ(after - before, 0u);
    EXPECT_EQ(s1.pages_written - s0.pages_written, 100u);
    EXPECT_EQ(s1.cores_written - s0.cores_written, 100u);
    EXPECT_EQ(s1.syncs - s0.syncs, 0u);
}

TEST(Persistence, SmallWriteStoreTrafficIsPinned) {
    // n = 8 and 4 KiB elements, like the stack bench: a 4 KiB host write
    // is one data element plus its parity elements.
    array_config cfg = small_config();
    cfg.k = 6;
    cfg.element_size = 4096;
    cfg.sector_size = 4096;
    cfg.stripes = 4;
    store_config scfg;
    scfg.dir = fresh_dir("small-write-traffic");
    auto a = create_array(cfg, scfg, 0xFEED);
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->disk_count(), 8u);
    const store* st = a->persistence();
    const store_stats s0 = st->stats();
    const array_stats a0 = a->stats();
    ASSERT_TRUE(a->write(2 * 4096, pattern_bytes(4096, 9)));
    const store_stats s1 = st->stats();
    const array_stats a1 = a->stats();
    ASSERT_EQ(a1.small_writes - a0.small_writes, 1u);
    // Element writes: the data element and the parity elements it patched.
    const std::uint64_t elements =
        1 + a1.parity_elements_updated - a0.parity_elements_updated;
    EXPECT_EQ(elements, 3u);
    // The intent mark and its clear each persist a core on all 8 members;
    // each element write persists its member's changed page and a core.
    EXPECT_EQ(s1.cores_written - s0.cores_written, 16 + elements);
    EXPECT_EQ(s1.pages_written - s0.pages_written, elements);
    const std::size_t core = core_size(8, st->image(0).intent_capacity,
                                       st->image(0).crcs.size());
    EXPECT_EQ(s1.meta_bytes - s0.meta_bytes,
              (16 + elements) * core + elements * table_page_size);
    EXPECT_EQ(s1.syncs - s0.syncs, 0u);
}

TEST(Persistence, ShortMemberFileIsKickedNotMapped) {
    const std::string dir = fresh_dir("short-member");
    const array_config cfg = small_config();
    store_config scfg;
    scfg.dir = dir;
    std::vector<std::byte> data;
    std::size_t cap = 0;
    {
        auto a = create_array(cfg, scfg, 0xFEED);
        ASSERT_NE(a, nullptr);
        data = pattern_bytes(a->capacity(), 42);
        cap = a->map().disk_capacity();
        ASSERT_TRUE(a->write(0, data));
        ASSERT_TRUE(a->unmount());
    }
    const std::uint64_t off = data_offset_of(dir);
    // Cut one member off halfway through its data area: its header and
    // superblocks still decode, but mapping it would fault past the end.
    std::filesystem::resize_file(store::disk_path(dir, 1), off + cap / 2);
    {
        mounted_array m = mount_array(options_for(dir));
        ASSERT_TRUE(m.report.ok) << m.report.error;
        EXPECT_EQ(m.report.unreadable, 1u);
        EXPECT_EQ(m.array->stats().stale_disks_kicked, 1u);
        EXPECT_TRUE(m.array->rebuild_active());
        m.array->drain_background_rebuild();
        std::vector<std::byte> back(m.array->capacity());
        ASSERT_TRUE(m.array->read(0, back));
        EXPECT_EQ(back, data);
        EXPECT_TRUE(m.array->unmount());
    }
    EXPECT_EQ(std::filesystem::file_size(store::disk_path(dir, 1)),
              off + cap);

    // Three short members are beyond RAID-6: refused, nothing mapped.
    for (std::uint32_t d : {0u, 2u, 4u}) {
        std::filesystem::resize_file(store::disk_path(dir, d), off + cap / 4);
    }
    mounted_array m = mount_array(options_for(dir));
    EXPECT_FALSE(m.report.ok);
    EXPECT_EQ(m.array, nullptr);
    EXPECT_NE(m.report.error.find("refusing to assemble"), std::string::npos)
        << m.report.error;
}

/// While alive, posix_fallocate on the file at `path` fails with ENOSPC.
class enospc_scope {
public:
    explicit enospc_scope(const std::string& path) {
        struct stat st{};
        EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
        enospc_dev = st.st_dev;
        enospc_ino = st.st_ino;
        enospc_hits = 0;
        enospc_armed = true;
    }
    ~enospc_scope() { enospc_armed = false; }
    enospc_scope(const enospc_scope&) = delete;
    enospc_scope& operator=(const enospc_scope&) = delete;

    [[nodiscard]] int hits() const { return enospc_hits.load(); }
};

TEST(Persistence, UnallocatableMetadataAreaFailsTheMember) {
    const std::string dir = fresh_dir("meta-enospc");
    const array_config cfg = small_config();
    store_config scfg;
    scfg.dir = dir;
    std::vector<std::byte> data;
    {
        auto a = create_array(cfg, scfg, 0xFEED);
        ASSERT_NE(a, nullptr);
        data = pattern_bytes(a->capacity(), 43);
        ASSERT_TRUE(a->write(0, data));
        ASSERT_TRUE(a->unmount());
    }
    {
        // The filesystem is full when member 1's metadata area is
        // allocated at mount: the member is failed loudly, not left
        // joined with persists that can never land.
        const enospc_scope full(store::disk_path(dir, 1));
        mounted_array m = mount_array(options_for(dir));
        ASSERT_GT(full.hits(), 0) << "posix_fallocate was not interposed";
        ASSERT_TRUE(m.report.ok) << m.report.error;
        EXPECT_EQ(m.report.unreadable, 1u);
        EXPECT_EQ(m.report.disks_online, 5u);
        ASSERT_NE(m.array->persistence(), nullptr);
        EXPECT_FALSE(m.array->persistence()->meta_mapped(1));
        EXPECT_FALSE(m.array->disk(1).online());
        std::vector<std::byte> back(m.array->capacity());
        ASSERT_TRUE(m.array->read(0, back));
        EXPECT_EQ(back, data);
        (void)m.array->unmount();  // degraded unmount
    }
    // The epoch that failed it is on the other members: with space back,
    // the member stays failed until it is replaced.
    mounted_array m = mount_array(options_for(dir));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    EXPECT_EQ(m.report.unreadable, 0u);
    EXPECT_FALSE(m.array->disk(1).online());
    std::vector<std::byte> back(m.array->capacity());
    ASSERT_TRUE(m.array->read(0, back));
    EXPECT_EQ(back, data);
    (void)m.array->unmount();
}

TEST(Persistence, DirectIoIsRefusedByName) {
    const std::string dir = fresh_dir("direct-io");
    const array_config cfg = small_config();
    store_config scfg;
    scfg.dir = dir;
    scfg.direct_io = true;
    EXPECT_EQ(create_array(cfg, scfg, 0xFEED), nullptr);
    EXPECT_FALSE(std::filesystem::exists(store::disk_path(dir, 0)));

    scfg.direct_io = false;
    {
        auto a = create_array(cfg, scfg, 0xFEED);
        ASSERT_NE(a, nullptr);
        ASSERT_TRUE(a->unmount());
    }
    mount_options mo = options_for(dir);
    mo.store.direct_io = true;
    mounted_array m = mount_array(mo);
    EXPECT_FALSE(m.report.ok);
    EXPECT_EQ(m.array, nullptr);
    EXPECT_NE(m.report.error.find("direct_io"), std::string::npos)
        << m.report.error;
}

TEST(Persistence, UnverifiedReadsAreRefusedByName) {
    // Every host read is verified: an array or a volume mount asked for
    // the unverified mode refuses instead of quietly serving unchecked
    // bytes.
    array_config cfg = small_config();
    cfg.verify_reads = false;
    EXPECT_DEATH({ raid6_array a(cfg); }, "precondition");

    const std::string dir = fresh_dir("unverified-reads");
    volume::volume_config vc;
    vc.shard = small_config();
    {
        auto vol = volume::persist::create_volume(vc, {.dir = dir});
        ASSERT_NE(vol, nullptr);
        ASSERT_TRUE(vol->unmount());
    }
    volume::persist::volume_mount_options mo;
    mo.store.dir = dir;
    mo.verify_reads = false;
    volume::persist::mounted_volume m = volume::persist::mount_volume(mo);
    EXPECT_FALSE(m.report.ok);
    EXPECT_EQ(m.vol, nullptr);
    EXPECT_NE(m.report.error.find("verify_reads"), std::string::npos)
        << m.report.error;

    mo.verify_reads = true;
    m = volume::persist::mount_volume(mo);
    ASSERT_TRUE(m.report.ok) << m.report.error;
    EXPECT_TRUE(m.vol->unmount());
}

// ---------------------------------------------------------------------
// Stale and foreign members
// ---------------------------------------------------------------------

TEST(Persistence, StaleDiskIsKickedNotTrusted) {
    const std::string dir = fresh_dir("stale");
    const array_config cfg = small_config();
    store_config scfg;
    scfg.dir = dir;
    std::vector<std::byte> data;
    {
        auto a = create_array(cfg, scfg, 0xFEED);
        ASSERT_NE(a, nullptr);
        data = pattern_bytes(a->capacity(), 8);
        ASSERT_TRUE(a->write(0, data));
        ASSERT_TRUE(a->unmount());
    }
    // Keep an old copy of one member, advance the array's epoch twice
    // (each mount/unmount cycle bumps the membership events), then slide
    // the old copy back in — the classic restored-from-backup disk.
    const std::string victim = store::disk_path(dir, 3);
    const std::vector<std::byte> old_copy = slurp(victim);
    for (int cycle = 0; cycle < 2; ++cycle) {
        mounted_array m = mount_array(options_for(dir));
        ASSERT_TRUE(m.report.ok) << m.report.error;
        ASSERT_TRUE(m.array->unmount());
    }
    {
        std::FILE* f = std::fopen(victim.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(old_copy.data(), 1, old_copy.size(), f),
                  old_copy.size());
        std::fclose(f);
    }
    mounted_array m = mount_array(options_for(dir));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    EXPECT_EQ(m.report.stale_kicked, 1u);
    EXPECT_EQ(m.array->stats().stale_disks_kicked, 1u);
    EXPECT_TRUE(m.array->rebuild_active());
    m.array->drain_background_rebuild();
    std::vector<std::byte> back(m.array->capacity());
    ASSERT_TRUE(m.array->read(0, back));
    EXPECT_EQ(back, data);
    EXPECT_TRUE(m.array->unmount());
}

TEST(Persistence, ForeignDiskIsNeverOverwritten) {
    const std::string dir_a = fresh_dir("foreign-a");
    const std::string dir_b = fresh_dir("foreign-b");
    const array_config cfg = small_config();
    std::vector<std::byte> data;
    {
        store_config scfg;
        scfg.dir = dir_a;
        auto a = create_array(cfg, scfg, 0xAAAA);
        ASSERT_NE(a, nullptr);
        data = pattern_bytes(a->capacity(), 9);
        ASSERT_TRUE(a->write(0, data));
        ASSERT_TRUE(a->unmount());
    }
    {
        store_config scfg;
        scfg.dir = dir_b;
        auto b = create_array(cfg, scfg, 0xBBBB);
        ASSERT_NE(b, nullptr);
        ASSERT_TRUE(b->write(0, pattern_bytes(b->capacity(), 10)));
        ASSERT_TRUE(b->unmount());
    }
    // Array B's disk lands in array A's slot 2 — wrong cable, wrong bay.
    const std::string slot_path = store::disk_path(dir_a, 2);
    std::filesystem::copy_file(
        store::disk_path(dir_b, 2), slot_path,
        std::filesystem::copy_options::overwrite_existing);
    const std::vector<std::byte> foreign_before = slurp(slot_path);

    mounted_array m = mount_array(options_for(dir_a));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    EXPECT_EQ(m.report.foreign, 1u);
    EXPECT_EQ(m.report.disks_online, 5u);
    EXPECT_FALSE(m.array->disk(2).online());
    // Degraded but fully readable, and writes still land.
    std::vector<std::byte> back(m.array->capacity());
    ASSERT_TRUE(m.array->read(0, back));
    EXPECT_EQ(back, data);
    ASSERT_TRUE(
        m.array->write(0, pattern_bytes(2 * cfg.element_size, 11)));
    (void)m.array->unmount();  // degraded unmount; foreign slot excluded
    // The foreign file was not touched by mount, I/O, or unmount.
    EXPECT_EQ(slurp(slot_path), foreign_before);
}

// ---------------------------------------------------------------------
// Rebuild watermarks
// ---------------------------------------------------------------------

TEST(Persistence, InterruptedRebuildResumesFromWatermark) {
    const std::string dir = fresh_dir("watermark");
    array_config cfg = small_config();
    cfg.stripes = 64;  // long enough to interrupt
    cfg.hot_spares = 1;
    cfg.rebuild_batch_stripes = 2;
    store_config scfg;
    scfg.dir = dir;

    auto a = create_array(cfg, scfg, 0xFEED);
    ASSERT_NE(a, nullptr);
    const std::vector<std::byte> data = pattern_bytes(a->capacity(), 12);
    ASSERT_TRUE(a->write(0, data));
    a->fail_disk(1);  // spare promotes, background rebuild starts
    // Service a few batches, then die mid-rebuild.
    std::vector<std::byte> probe(cfg.element_size);
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(a->read(static_cast<std::size_t>(i) * probe.size(),
                            probe));
    }
    ASSERT_TRUE(a->rebuild_active());
    a.reset();  // crash

    mounted_array m = mount_array(options_for(dir));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    EXPECT_TRUE(m.report.unclean);
    EXPECT_EQ(m.report.rebuilds_resumed, 1u);
    EXPECT_TRUE(m.array->rebuild_active());
    m.array->drain_background_rebuild();
    EXPECT_GE(m.array->stats().rebuilds_completed, 1u);
    std::vector<std::byte> back(m.array->capacity());
    ASSERT_TRUE(m.array->read(0, back));
    EXPECT_EQ(back, data);
    const scrub_summary s = scrub_array(*m.array);
    EXPECT_EQ(s.uncorrectable, 0u);
    EXPECT_TRUE(m.array->unmount());
}

}  // namespace
