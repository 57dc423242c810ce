// On-disk superblock of a persistent RAID-6 array (format v2).
//
// Every member disk's backing file carries, ahead of its data area:
//
//   [ file header, 4 KiB ][ core A ][ core B ]
//   [ checksum table copy A ][ checksum table copy B ][ data ]
//
// The *file header* is written exactly once, at format time, and never
// rewritten — it cannot tear — and records only what is needed to find
// and frame the rest (core slot size, table pages per copy, data offset,
// array UUID, this file's slot index), CRC-protected like everything else.
//
// The *superblock* is the whole metadata state of the array as this disk
// last saw it: geometry, membership epoch (`events`, md's event counter),
// per-slot states and rebuild watermarks, the write-hole intent log, the
// hot-spare pool level — all replicated to every member so any surviving
// quorum can reassemble the array — plus this disk's own identity and its
// private integrity-checksum table (each disk checksums only itself; a
// member's CRC table dies with it and is rebuilt along with its data).
//
// It is stored in two parts:
//   * the *core*: every field but the checksum table, plus a page table
//     naming, for each 4 KiB page of the checksum table, which of the two
//     table copies holds it and that copy's CRC32C;
//   * the checksum table itself, as copy-on-write pages of 1024 raw
//     little-endian words, each page kept in two copies.
//
// Crash consistency: every persist bumps the monotonic `seq`, writes each
// changed table page into the copy the last persisted core does *not*
// reference, then writes the new core into slot `seq % 2`. A core is
// valid when its own trailing CRC32C matches and every page it references
// matches the CRC the core recorded for it; mount takes the valid core
// with the larger seq. A torn core or a torn page therefore invalidates
// at most the newest superblock, and the previous one — whose pages the
// persist never touched — remains intact. The fsync ordering that
// upgrades this from process-kill safety to machine-crash safety is the
// store's job (see store.hpp and docs/PERSISTENCE.md).
//
// All integers are serialized little-endian, explicitly, so an image
// written on one host decodes on any other.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace liberation::raid::persist {

/// Membership state of one disk slot, as persisted.
enum class slot_state : std::uint8_t {
    active = 0,      ///< full member, contents trusted
    failed = 1,      ///< fail-stopped or foreign; contents not used
    rebuilding = 2,  ///< promoted/blank member; trusted below its watermark
};

/// Flag bit OR-ed into a persisted slot-state byte when the member is
/// quarantined as fail-slow (latency_monitor's suspect_slow): its bytes
/// are fully trusted — lateness is not corruption — so the base state
/// stays `active`, and mount re-enters the quarantine instead of
/// re-learning the straggler from scratch. A separate bit (not a new
/// enum value) keeps the framing and version unchanged; decoders mask
/// it off before interpreting the base state.
inline constexpr std::uint8_t slot_state_slow_bit = 0x40;

inline constexpr std::uint64_t superblock_magic = 0x3130'4253'5242'494cULL;
inline constexpr std::uint32_t superblock_version = 2;
inline constexpr std::uint64_t file_header_magic = 0x3152'4448'5242'494cULL;
inline constexpr std::size_t file_header_size = 4096;

/// Checksum-table pages: 1024 raw words each, the last one zero-padded.
inline constexpr std::size_t table_page_size = 4096;
inline constexpr std::size_t table_page_words = table_page_size / 4;

/// Pages per checksum-table copy for a table of `crc_count` words.
[[nodiscard]] constexpr std::size_t table_page_count(
    std::size_t crc_count) noexcept {
    return (crc_count + table_page_words - 1) / table_page_words;
}

/// Where everything lives in one member file.
struct member_layout {
    std::uint64_t core_bytes = 0;   ///< size of each core slot (4 KiB multiple)
    std::uint64_t table_pages = 0;  ///< pages per checksum-table copy

    [[nodiscard]] std::uint64_t core_offset(std::uint64_t core_slot) const {
        return file_header_size + core_slot * core_bytes;
    }
    [[nodiscard]] std::uint64_t page_offset(std::uint8_t copy,
                                            std::uint64_t page) const {
        return file_header_size + 2 * core_bytes +
               (copy * table_pages + page) * table_page_size;
    }
    [[nodiscard]] std::uint64_t data_offset() const {
        return file_header_size + 2 * core_bytes +
               2 * table_pages * table_page_size;
    }

    bool operator==(const member_layout&) const = default;
};

/// The write-once framing block at offset 0 of every member file.
struct file_header {
    std::uint64_t array_uuid = 0;
    std::uint32_t slot = 0;        ///< this file's slot index
    member_layout layout;          ///< data_offset() is the data area
};

/// Page-table entry of the core: which copy holds the page, and its CRC.
struct table_page_ref {
    std::uint8_t copy = 0;  ///< 0 = table copy A, 1 = table copy B
    std::uint32_t crc = 0;  ///< CRC32C of that copy's 4 KiB

    bool operator==(const table_page_ref&) const = default;
};

/// In-memory image of one disk's superblock.
struct superblock {
    // ---- identity & epoch --------------------------------------------
    std::uint64_t seq = 0;         ///< bumped on every persist of this disk
    std::uint64_t array_uuid = 0;
    std::uint64_t events = 0;      ///< membership epoch (mount, fail, promote)
    bool clean = false;            ///< true only after a clean unmount
    std::uint32_t slot = 0;        ///< slot this superblock belongs to
    std::uint32_t disk_id = 0;     ///< identity of the hardware in the slot

    // ---- geometry ----------------------------------------------------
    std::uint32_t k = 0;
    std::uint32_t p = 0;           ///< code prime (= rows per strip)
    std::uint64_t element_size = 0;
    std::uint64_t stripes = 0;
    std::uint64_t sector_size = 0;
    std::uint32_t layout = 0;      ///< parity_layout as integer

    // ---- replicated array-wide state ---------------------------------
    std::uint32_t spares_available = 0;
    std::uint32_t next_disk_id = 0;
    std::uint32_t intent_capacity = 0;  ///< serialized intent-entry slots
    std::vector<std::uint8_t> slot_states;  ///< slot_state per disk slot
    std::vector<std::uint64_t> watermarks;  ///< rebuild cursor per slot
    struct intent_entry {
        std::uint64_t stripe;
        std::uint64_t columns;
        std::uint64_t seq;
    };
    std::vector<intent_entry> intents;

    // ---- this disk's private state -----------------------------------
    std::vector<std::uint32_t> crcs;  ///< integrity_region checksum table
    /// Page table: table_page_count(crcs.size()) entries.
    std::vector<table_page_ref> pages;

    /// Same coded geometry? (The membership/identity fields may differ.)
    [[nodiscard]] bool geometry_matches(const superblock& o) const noexcept {
        return k == o.k && p == o.p && element_size == o.element_size &&
               stripes == o.stripes && sector_size == o.sector_size &&
               layout == o.layout &&
               slot_states.size() == o.slot_states.size();
    }
};

/// Exact encoded size of a core for the given table dimensions (fixes the
/// core slot size at format time; intents always serialize
/// `intent_capacity` slots so the size never varies with log occupancy).
[[nodiscard]] std::size_t core_size(std::uint32_t slots,
                                    std::uint32_t intent_capacity,
                                    std::size_t crc_count) noexcept;

/// Serialize the core (everything but the checksum words) into the first
/// core_size() bytes of `out`, CRC32C-terminated and decode_core()-
/// compatible. sb.intents.size() must be <= sb.intent_capacity and
/// sb.pages must hold one entry per table page.
void encode_core(const superblock& sb, std::span<std::byte> out);

/// Parse and validate a core (magic, version, structural bounds, trailing
/// CRC). The result's `crcs` is sized but zero: the checksum words come
/// from the pages its page table references (decode_page). nullopt = not a
/// valid v2 core — a torn write, zeroed slot, or something else entirely;
/// the caller falls back to the other core slot.
[[nodiscard]] std::optional<superblock> decode_core(
    std::span<const std::byte> raw);

/// Serialize table page `page` of `crcs` into `out` (table_page_size
/// bytes, zero-padded past the table's end) and return its CRC32C.
std::uint32_t encode_page(std::span<const std::uint32_t> crcs,
                          std::size_t page, std::span<std::byte> out);

/// Check `raw` (one table page) against the CRC the core recorded and, on
/// a match, copy its words into page `page` of `crcs`. False = torn or
/// stale page: the core that references it is invalid.
[[nodiscard]] bool decode_page(std::span<const std::byte> raw,
                               std::uint32_t expected_crc, std::size_t page,
                               std::span<std::uint32_t> crcs);

[[nodiscard]] std::vector<std::byte> encode_header(const file_header& h);
[[nodiscard]] std::optional<file_header> decode_header(
    std::span<const std::byte> raw);
/// The format version a header block claims, or nullopt when it does not
/// start with the file-header magic. Lets mount name the version of a
/// file this build cannot read instead of treating it as garbage.
[[nodiscard]] std::optional<std::uint32_t> header_version(
    std::span<const std::byte> raw);

}  // namespace liberation::raid::persist
