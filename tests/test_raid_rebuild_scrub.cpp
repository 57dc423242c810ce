#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "liberation/aio/stripe_io.hpp"
#include "liberation/raid/array.hpp"
#include "liberation/raid/persist/mount.hpp"
#include "liberation/raid/persist/store.hpp"
#include "liberation/raid/rebuild.hpp"
#include "liberation/raid/scrubber.hpp"
#include "liberation/util/rng.hpp"

namespace {

using namespace liberation;
using namespace liberation::raid;

array_config config(std::uint32_t k = 4, std::size_t stripes = 8) {
    array_config cfg;
    cfg.k = k;
    cfg.element_size = 128;
    cfg.stripes = stripes;
    cfg.sector_size = 128;
    return cfg;
}

std::vector<std::byte> pattern_bytes(std::size_t n, std::uint64_t seed) {
    std::vector<std::byte> v(n);
    util::xoshiro256 rng(seed);
    rng.fill(v);
    return v;
}

TEST(Rebuild, SingleDiskRestoresContents) {
    raid6_array a(config());
    const auto data = pattern_bytes(a.capacity(), 1);
    ASSERT_TRUE(a.write(0, data));

    const auto result = fail_replace_rebuild(a, 3);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.stripes_rebuilt, a.map().stripes());
    EXPECT_EQ(result.columns_rebuilt, a.map().stripes());

    // After rebuild everything reads back clean with no degraded paths.
    const auto degraded_before = a.stats().degraded_stripe_reads;
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
    EXPECT_EQ(a.stats().degraded_stripe_reads, degraded_before);
}

TEST(Rebuild, DoubleDiskRestoresContents) {
    raid6_array a(config(6, 10));  // p = 7, 8 disks
    const auto data = pattern_bytes(a.capacity(), 2);
    ASSERT_TRUE(a.write(0, data));

    a.fail_disk(0);
    a.fail_disk(7);
    a.replace_disk(0);
    a.replace_disk(7);
    const std::uint32_t disks[] = {0, 7};
    const auto result = rebuild_disks(a, disks);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.columns_rebuilt, 2 * a.map().stripes());

    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
}

TEST(Rebuild, PipelinedMatchesSerial) {
    // Rebuild through the aio stripe_loader with a window of eight
    // stripes (qd 8) and a window of one (qd 1).
    array_config serial_cfg = config(5, 16);
    serial_cfg.io_queue_depth = 1;
    array_config pipelined_cfg = config(5, 16);
    pipelined_cfg.io_queue_depth = 8;
    raid6_array serial(serial_cfg);
    raid6_array pipelined(pipelined_cfg);
    const auto data = pattern_bytes(serial.capacity(), 3);
    ASSERT_TRUE(serial.write(0, data));
    ASSERT_TRUE(pipelined.write(0, data));

    const rebuild_result rs = fail_replace_rebuild(serial, 2);
    const rebuild_result rp = fail_replace_rebuild(pipelined, 2);
    EXPECT_TRUE(rs.success);
    EXPECT_TRUE(rp.success);
    EXPECT_EQ(rs.stripes_rebuilt, rp.stripes_rebuilt);
    EXPECT_EQ(rs.columns_rebuilt, rp.columns_rebuilt);

    // Byte-equal members, not just equal reads: the rebuilt disk holds
    // the same strips on both paths.
    const std::size_t disk_bytes = serial.map().disk_capacity();
    for (std::uint32_t d = 0; d < serial.map().n(); ++d) {
        std::vector<std::byte> ms(disk_bytes), mp(disk_bytes);
        serial.disk(d).peek(0, ms);
        pipelined.disk(d).peek(0, mp);
        EXPECT_EQ(ms, mp) << "disk " << d;
    }
    std::vector<std::byte> a(serial.capacity()), b(pipelined.capacity());
    ASSERT_TRUE(serial.read(0, a));
    ASSERT_TRUE(pipelined.read(0, b));
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, data);
}

TEST(Rebuild, HelpersStartOnlyForWindowsAndExitCleanly) {
    // Each child is a fresh process (threadsafe style re-executes the
    // test binary), so it sees only the helpers its own walk started.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto rebuild_at = [](std::size_t qd) {
        array_config cfg = config(5, 32);
        cfg.io_queue_depth = qd;
        raid6_array a(cfg);
        if (!a.write(0, pattern_bytes(a.capacity(), 9)) ||
            !fail_replace_rebuild(a, 1).success) {
            std::exit(2);
        }
    };
    // A window of one runs the same code and starts no helper.
    EXPECT_EXIT(
        {
            rebuild_at(1);
            std::exit(aio::stripe_loader::helpers_started() == 0 ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
    // A window of eight starts min(hardware threads, 8) - 1 helpers, and
    // the process still exits normally: they are joined at exit.
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    const std::size_t want = std::min<std::size_t>(hw, 8) - 1;
    EXPECT_EXIT(
        {
            rebuild_at(8);
            std::exit(aio::stripe_loader::helpers_started() == want ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
}

TEST(Rebuild, RebuildWithConcurrentLatentErrorOnSurvivor) {
    // The RAID-6 motivation (paper Section I): hitting an unreadable
    // sector on a surviving disk *during* single-disk rebuild still
    // recovers, because two erasures are tolerated.
    raid6_array a(config());
    const auto data = pattern_bytes(a.capacity(), 4);
    ASSERT_TRUE(a.write(0, data));

    // Latent error on disk 1's strip of stripe 2 before rebuilding disk 0.
    const auto loc = a.map().locate(2, a.map().column_of_disk(2, 1));
    a.disk(1).inject_latent_error(loc.offset, 32);

    const auto result = fail_replace_rebuild(a, 0);
    EXPECT_TRUE(result.success);
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
}

TEST(Rebuild, OneOfTwoFailedMembersRebuildsWithoutFalseFailures) {
    // Two members down, one replaced: each stripe decodes both erasures
    // but stores only the target. The member still offline is not a
    // repair, so it fails no stripe, by the operator's rebuild or by the
    // background one onto a hot spare.
    array_config cfg = config(4, 8);
    cfg.element_size = 512;
    cfg.sector_size = 512;
    const std::size_t stripes = cfg.stripes;
    const auto survivors_written = [](const raid6_array& a) {
        std::uint64_t total = 0;
        for (const std::uint32_t d : {0u, 3u, 4u, 5u}) {
            total += a.disk(d).stats().bytes_written;
        }
        return total;
    };
    const auto expect_survives_third_loss =
        [](raid6_array& a, const std::vector<std::byte>& data) {
            a.fail_disk(3);
            std::vector<std::byte> out(a.capacity());
            ASSERT_TRUE(a.read(0, out));
            EXPECT_EQ(out, data);
        };
    {
        SCOPED_TRACE("rebuild_disks");
        raid6_array a(cfg);
        const auto data = pattern_bytes(a.capacity(), 44);
        ASSERT_TRUE(a.write(0, data));
        a.fail_disk(1);
        a.fail_disk(2);
        a.replace_disk(1);
        const std::uint64_t written = survivors_written(a);
        const std::uint32_t disks[] = {1};
        const rebuild_result r = rebuild_disks(a, disks);
        EXPECT_TRUE(r.success);
        EXPECT_EQ(r.stripes_failed, 0u);
        EXPECT_EQ(r.stripes_rebuilt, stripes);
        EXPECT_EQ(r.columns_rebuilt, stripes);
        EXPECT_EQ(survivors_written(a), written);
        expect_survives_third_loss(a, data);
    }
    {
        SCOPED_TRACE("background rebuild onto a hot spare");
        cfg.hot_spares = 1;
        raid6_array a(cfg);
        const auto data = pattern_bytes(a.capacity(), 45);
        ASSERT_TRUE(a.write(0, data));
        const std::uint64_t written = survivors_written(a);
        a.fail_disk(1);
        a.fail_disk(2);
        a.drain_background_rebuild();
        EXPECT_EQ(a.stats().spares_promoted, 1u);
        EXPECT_EQ(a.stats().rebuilds_completed, 1u);
        EXPECT_EQ(a.stats().rebuild_stripes_failed, 0u);
        EXPECT_EQ(a.disk(1).stats().bytes_written,
                  stripes * a.map().strip_size());
        EXPECT_EQ(survivors_written(a), written);
        expect_survives_third_loss(a, data);
    }
}

TEST(Scrub, CleanArray) {
    raid6_array a(config());
    ASSERT_TRUE(a.write(0, pattern_bytes(a.capacity(), 5)));
    const auto summary = scrub_array(a);
    EXPECT_EQ(summary.stripes_scanned, a.map().stripes());
    EXPECT_EQ(summary.clean, a.map().stripes());
    EXPECT_EQ(summary.repaired_data + summary.repaired_parity, 0u);
}

TEST(Scrub, RepairsSilentDataCorruption) {
    raid6_array a(config());
    const auto data = pattern_bytes(a.capacity(), 6);
    ASSERT_TRUE(a.write(0, data));

    // Corrupt one strip of stripe 1 silently.
    util::xoshiro256 rng(7);
    const auto loc = a.map().locate(1, 2);
    a.disk(loc.disk).inject_silent_corruption(loc.offset, 64, rng);

    const auto summary = scrub_array(a);
    EXPECT_EQ(summary.repaired_data, 1u);
    EXPECT_EQ(summary.uncorrectable, 0u);

    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
    // A second scrub finds nothing.
    EXPECT_EQ(scrub_array(a).clean, a.map().stripes());
}

TEST(Scrub, RepairsParityCorruption) {
    raid6_array a(config());
    ASSERT_TRUE(a.write(0, pattern_bytes(a.capacity(), 8)));
    util::xoshiro256 rng(9);
    const auto loc = a.map().locate(3, a.code().q_column());
    a.disk(loc.disk).inject_silent_corruption(loc.offset, 32, rng);
    const auto summary = scrub_array(a);
    EXPECT_EQ(summary.repaired_parity, 1u);
    EXPECT_EQ(scrub_array(a).clean, a.map().stripes());
}

TEST(Scrub, ScrubsDegradedStripes) {
    // The seed scrubber had to skip degraded stripes (its parity
    // cross-check needs every column); the checksum-first scrubber scans
    // them — and still repairs corruption there.
    raid6_array a(config());
    const auto data = pattern_bytes(a.capacity(), 10);
    ASSERT_TRUE(a.write(0, data));
    a.fail_disk(4);

    util::xoshiro256 rng(17);
    std::uint32_t col = 0;
    while (a.map().locate(3, col).disk == 4u) ++col;
    const auto loc = a.map().locate(3, col);
    a.disk(loc.disk).inject_silent_corruption(loc.offset, 48, rng);

    const auto summary = scrub_array(a);
    EXPECT_EQ(summary.skipped_degraded, 0u);
    EXPECT_EQ(summary.degraded_scrubbed, a.map().stripes());
    EXPECT_EQ(summary.repaired_on_degraded, 1u);
    EXPECT_EQ(summary.uncorrectable, 0u);

    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
}

TEST(Resilver, HealsParityStripLatentErrors) {
    // Plain reads only touch data columns, so a latent error in a P or Q
    // strip is invisible to the workload — and silently costs redundancy.
    // Only the scrub patrol walks parity strips and heals them.
    raid6_array a(config());
    const auto data = pattern_bytes(a.capacity(), 13);
    ASSERT_TRUE(a.write(0, data));

    const auto p_loc = a.map().locate(2, a.code().p_column());
    const auto q_loc = a.map().locate(5, a.code().q_column());
    a.disk(p_loc.disk).inject_latent_error(p_loc.offset, 32);
    a.disk(q_loc.disk).inject_latent_error(q_loc.offset, 32);

    // The whole device reads back fine without healing anything: no data
    // column is affected, heal-on-read never sees the parity strips.
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
    EXPECT_EQ(a.disk(p_loc.disk).latent_error_count() +
                  a.disk(q_loc.disk).latent_error_count(),
              2u);

    // A patrol's heals: the latent sectors its scrub rewrote.
    const auto patrol = [&] {
        const std::uint64_t before = a.stats().media_errors_recovered;
        (void)scrub_array(a);
        return a.stats().media_errors_recovered - before;
    };
    EXPECT_EQ(patrol(), 2u);  // exactly the two bad strips rewritten
    EXPECT_EQ(a.disk(p_loc.disk).latent_error_count(), 0u);
    EXPECT_EQ(a.disk(q_loc.disk).latent_error_count(), 0u);
    EXPECT_EQ(patrol(), 0u);  // second patrol finds nothing

    // Redundancy is actually restored: both stripes survive a double
    // failure that includes the previously-unreadable parity disks.
    a.fail_disk(p_loc.disk);
    if (q_loc.disk != p_loc.disk) a.fail_disk(q_loc.disk);
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
}

TEST(Scrub, TwoCorruptColumnsRepaired) {
    // The seed scrubber's single-corruption assumption made two corrupt
    // columns uncorrectable; the checksum domains pinpoint both, which
    // brings them within the two-erasure decode budget.
    raid6_array a(config());
    const auto data = pattern_bytes(a.capacity(), 11);
    ASSERT_TRUE(a.write(0, data));
    util::xoshiro256 rng(12);
    a.disk(a.map().locate(0, 0).disk)
        .inject_silent_corruption(a.map().locate(0, 0).offset, 16, rng);
    a.disk(a.map().locate(0, 3).disk)
        .inject_silent_corruption(a.map().locate(0, 3).offset, 16, rng);
    const auto summary = scrub_array(a);
    EXPECT_EQ(summary.uncorrectable, 0u);
    EXPECT_EQ(summary.repaired_data, 2u);
    EXPECT_EQ(summary.checksum_mismatch_columns, 2u);

    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
    EXPECT_EQ(scrub_array(a).clean, a.map().stripes());
}

TEST(Scrub, ThreeCorruptColumnsReportedUncorrectable) {
    // Three corrupt columns exceed what two parities can ever repair; the
    // scrubber must say so rather than guess.
    raid6_array a(config());
    ASSERT_TRUE(a.write(0, pattern_bytes(a.capacity(), 14)));
    util::xoshiro256 rng(15);
    for (const std::uint32_t col : {0u, 2u, 3u}) {
        const auto loc = a.map().locate(0, col);
        a.disk(loc.disk).inject_silent_corruption(loc.offset, 16, rng);
    }
    const auto summary = scrub_array(a);
    EXPECT_EQ(summary.uncorrectable, 1u);
    EXPECT_EQ(summary.repaired_data, 0u);
}

// ---- one window of mixed damage -----------------------------------------
//
// One qd-8 window (stripes 0-7) of a file-backed array holds one stripe of
// each kind of damage the verified walk tells apart: a silently rotten
// survivor (stripe 1), a rotten stored checksum word (stripe 2), an
// unreadable sector (stripe 3), a transient view fault (the window's first
// view on one disk) and a journaled, torn stripe (stripe 5). The loader
// verifies and decodes a window's stripes in parallel and commits them in
// stripe order, so every outcome must be exactly what a serial walk gives:
// the pinned values are the serial walk's. A power cut a few writes into
// the walk makes the order of the commits visible in which strips landed.

constexpr std::size_t kTorn = 5;

std::uint64_t fnv(std::uint64_t h, const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ULL;
    return h;
}
constexpr std::uint64_t kFnv = 0xcbf29ce484222325ULL;

struct window_outcome {
    std::uint32_t intact = 0;    ///< bit s: stripe s's strips all as written
    std::size_t journaled = 0;   ///< intent-log entries left
    std::size_t latent = 0;      ///< unreadable sectors left
    std::uint64_t media = 0;     ///< every member's medium
    std::uint64_t words = 0;     ///< every integrity region's words
    std::uint64_t tables = 0;    ///< persisted crcs, intents, watermarks
    std::uint64_t stats = 0;     ///< array_stats
    std::uint64_t counters = 0;  ///< every *_total line of the hub
};

class MixedWindow {
public:
    explicit MixedWindow(const std::string& name, std::size_t qd = 8) {
        dir_ = ::testing::TempDir() + "liberation-window-" + name;
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        array_config cfg;
        cfg.k = 4;
        cfg.element_size = 512;
        cfg.sector_size = 512;
        cfg.stripes = 16;
        cfg.io_queue_depth = qd;
        persist::store_config scfg;
        scfg.dir = dir_;
        a_ = persist::create_array(cfg, scfg, 0xFEED);
        data_ = pattern_bytes(a_->capacity(), 41);
        EXPECT_TRUE(a_->write(0, data_));
        original_.resize(a_->map().n());
        for (std::uint32_t d = 0; d < a_->map().n(); ++d) {
            original_[d].resize(a_->map().disk_capacity());
            a_->disk(d).peek(0, original_[d]);
        }
        // Tear stripe kTorn: a small write whose first disk write (a
        // parity patch) lands and whose data write is cut.
        a_->simulate_power_loss_after(1);
        (void)a_->write(kTorn * a_->map().stripe_data_size() + 100,
                        pattern_bytes(50, 42));
        a_->reboot();
        EXPECT_TRUE(a_->journal().is_dirty(kTorn));
    }
    ~MixedWindow() {
        a_.reset();
        std::filesystem::remove_all(dir_);
    }

    raid6_array& array() { return *a_; }

    /// The disk holding P in the torn stripe: rebuilding it re-syncs that
    /// stripe instead of refusing it.
    std::uint32_t parity_disk() const {
        return a_->map().locate(kTorn, a_->code().p_column()).disk;
    }

    /// Damage stripes 1-3 and arm the transient fault, all on disks other
    /// than `spare` (the rebuild target; the map's size for none).
    void damage(std::uint32_t spare) {
        const std::size_t strip = a_->map().strip_size();
        const auto survivor = [&](std::size_t s, std::uint32_t nth) {
            for (std::uint32_t col = 0;; ++col) {
                const strip_location loc = a_->map().locate(s, col);
                if (loc.disk != spare && nth-- == 0) return loc;
            }
        };
        util::xoshiro256 rng(43);
        const strip_location rot = survivor(1, 0);
        a_->disk(rot.disk).inject_silent_corruption(rot.offset + 512, 64,
                                                    rng);
        const strip_location word = survivor(2, 1);
        a_->integrity(word.disk).corrupt_block(
            (word.offset + strip / 2) / a_->integrity_block(), 0x10);
        const strip_location bad = survivor(3, 2);
        a_->disk(bad.disk).inject_latent_error(bad.offset + 1024, 512);
        a_->disk(survivor(4, 3).disk)
            .schedule_transient_fault(io_kind::read, 0);
    }

    window_outcome outcome() {
        window_outcome o;
        const std::uint32_t n = a_->map().n();
        const std::size_t strip = a_->map().strip_size();
        o.media = kFnv;
        o.words = kFnv;
        std::vector<std::vector<std::byte>> media(n);
        for (std::uint32_t d = 0; d < n; ++d) {
            media[d].resize(a_->map().disk_capacity());
            a_->disk(d).peek(0, media[d]);
            o.media = fnv(o.media, media[d].data(), media[d].size());
            const auto w = a_->integrity(d).checksums();
            o.words = fnv(o.words, w.data(), w.size_bytes());
        }
        for (std::size_t s = 0; s < a_->map().stripes(); ++s) {
            bool same = true;
            for (std::uint32_t d = 0; d < n; ++d) {
                same = same && std::memcmp(media[d].data() + s * strip,
                                           original_[d].data() + s * strip,
                                           strip) == 0;
            }
            if (same) o.intact |= 1u << s;
        }
        o.journaled = a_->journal().size();
        for (std::uint32_t d = 0; d < n; ++d) {
            o.latent += a_->disk(d).latent_error_count();
        }
        o.tables = kFnv;
        persist::store& st = *a_->persistence();
        for (std::uint32_t d = 0; d < n; ++d) {
            if (!st.meta_slot(d)) continue;
            const persist::superblock& img = st.image(d);
            o.tables = fnv(o.tables, img.crcs.data(),
                           img.crcs.size() * sizeof(std::uint32_t));
            o.tables = fnv(o.tables, img.watermarks.data(),
                           img.watermarks.size() * sizeof(std::uint64_t));
            for (const auto& e : img.intents) {
                o.tables = fnv(o.tables, &e.stripe, sizeof e.stripe);
                o.tables = fnv(o.tables, &e.columns, sizeof e.columns);
            }
        }
        const array_stats st_now = a_->stats();
        o.stats = fnv(kFnv, &st_now, sizeof st_now);
        o.counters = kFnv;
        std::istringstream text(a_->obs().metrics_text());
        for (std::string line; std::getline(text, line);) {
            const std::size_t name_end = line.find_first_of(" {");
            if (line.empty() || line[0] == '#' || name_end < 6 ||
                line.compare(name_end - 6, 6, "_total") != 0) {
                continue;
            }
            o.counters = fnv(o.counters, line.data(), line.size());
        }
        return o;
    }

private:
    std::string dir_;
    std::unique_ptr<raid6_array> a_;
    std::vector<std::byte> data_;
    std::vector<std::vector<std::byte>> original_;
};

void expect_outcome(const window_outcome& got, const window_outcome& want) {
    EXPECT_EQ(got.intact, want.intact);
    EXPECT_EQ(got.journaled, want.journaled);
    EXPECT_EQ(got.latent, want.latent);
    EXPECT_EQ(got.media, want.media);
    EXPECT_EQ(got.words, want.words);
    EXPECT_EQ(got.tables, want.tables);
    EXPECT_EQ(got.stats, want.stats);
    EXPECT_EQ(got.counters, want.counters);
}

TEST(Rebuild, MixedDamageWindowCommitsAsTheSerialWalk) {
    // Serial walk: every stripe rebuilt; the rotten survivor and the
    // unreadable sector are healed alongside the target (18 columns; the
    // sector's heal counts as media_errors_recovered); a stripe whose plan
    // element is damaged is recovered whole without viewing its blank
    // target; the torn stripe is re-synced. Cut after 6 writes: stripes
    // 0-3 landed, and the torn stripe's re-sync found the power gone, so
    // it failed and stays journaled. The walk
    // runs at qd 1 (a window of one stripe, the serial walk itself) and at
    // qd 8 with the same outcome; only the hub's counters differ, since
    // aio batching, merging and split retries depend on the window.
    struct want {
        std::size_t rebuilt, columns, failed, first_failed;
        window_outcome o;
        std::uint64_t counters_qd8;
    };
    const want serial[] = {
        {16, 18, 0, rebuild_result::npos,
         {0xffffu, 0, 0, 0x707818be18ca4a46ULL, 0x26d7d7fe78db87c6ULL,
          0xd98c7d8a54fdc5f2ULL, 0x30798cdc185c7414ULL,
          0xb7975594c7a92acdULL},
         0xa729f364f6bd2b7aULL},
        {15, 17, 1, kTorn,
         {0xfu, 1, 0, 0x24195bc411d3d564ULL, 0x26d7d7fe78db87c6ULL,
          0x290e16f479413212ULL, 0x30798cdc185c7414ULL,
          0xbd9f8e58f79c9dadULL},
         0xdbbb4c9a9e73c6f3ULL},
    };
    for (const std::size_t qd : {1u, 8u}) {
        for (const bool cut : {false, true}) {
            SCOPED_TRACE(cut ? "power cut after 6 writes" : "no power cut");
            SCOPED_TRACE("qd " + std::to_string(qd));
            const want& w = serial[cut ? 1 : 0];
            MixedWindow win(std::string(cut ? "rebuild-cut-qd" : "rebuild-qd") +
                                std::to_string(qd),
                            qd);
            raid6_array& a = win.array();
            const std::uint32_t spare = win.parity_disk();
            win.damage(spare);
            a.fail_disk(spare);
            a.replace_disk(spare);
            if (cut) a.simulate_power_loss_after(6);
            const std::uint32_t disks[] = {spare};
            const rebuild_result r = rebuild_disks(a, disks);
            EXPECT_EQ(r.stripes_rebuilt, w.rebuilt);
            EXPECT_EQ(r.columns_rebuilt, w.columns);
            EXPECT_EQ(r.stripes_failed, w.failed);
            EXPECT_EQ(r.first_failed_stripe, w.first_failed);
            EXPECT_EQ(a.stats().checksum_mismatches, 3u);
            EXPECT_EQ(a.stats().checksum_metadata_repaired, 1u);
            window_outcome o = w.o;
            if (qd == 8) o.counters = w.counters_qd8;
            expect_outcome(win.outcome(), o);
        }
    }
}

TEST(Scrub, MixedDamageWindowCommitsAsTheSerialWalk) {
    // Serial walk: the rotten strip is healed, the rotten word refreshed,
    // the unreadable sector rewritten and the torn stripe skipped. Cut
    // after 1 write: stripe 1's heal landed, stripe 3's rewrite did not,
    // so its sector stays unreadable.
    const window_outcome serial[] = {
        {0xffdfu, 1, 0, 0x849d5361a01f9fc8ULL, 0xb84d071b1a63e6beULL,
         0x3cc4342420f3b9deULL, 0x32c0fff4b2d1212eULL,
         0xdeb5d7b08421f968ULL},
        {0xffdfu, 1, 1, 0x849d5361a01f9fc8ULL, 0xb84d071b1a63e6beULL,
         0x3cc4342420f3b9deULL, 0x32c0fff4b2d1212eULL,
         0x05851f249757ed1bULL},
    };
    for (const bool cut : {false, true}) {
        SCOPED_TRACE(cut ? "power cut after 1 write" : "no power cut");
        MixedWindow win(cut ? "scrub-cut" : "scrub");
        raid6_array& a = win.array();
        win.damage(a.map().n());
        if (cut) a.simulate_power_loss_after(1);
        const scrub_summary s = scrub_array(a);
        EXPECT_EQ(s.stripes_scanned, 16u);
        EXPECT_EQ(s.clean, 12u);
        EXPECT_EQ(s.repaired_data + s.repaired_parity, 1u);
        EXPECT_EQ(s.repaired_metadata, 1u);
        EXPECT_EQ(s.latent_columns, 1u);
        EXPECT_EQ(s.skipped_torn, 1u);
        EXPECT_EQ(s.uncorrectable, 0u);
        EXPECT_EQ(a.stats().media_errors_recovered, 1u);
        expect_outcome(win.outcome(), serial[cut ? 1 : 0]);
    }
}

}  // namespace
