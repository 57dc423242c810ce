#include "liberation/raid/persist/superblock.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "liberation/integrity/crc32c.hpp"
#include "liberation/util/assert.hpp"

namespace liberation::raid::persist {

namespace {

// Explicit little-endian (de)serialization: byte-order independent and
// free of alignment assumptions, so an image travels between hosts. Table
// pages, raw arrays of words, are copied as they are on little-endian
// hosts, where the in-memory words already are their encoding.

/// Sequential writer over a presized buffer (the caller sized it with
/// core_size(), so no bounds checks on the hot path).
struct writer {
    std::byte* p;

    void u8(std::uint8_t v) { *p++ = static_cast<std::byte>(v); }
    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i) {
            p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
        }
        p += 4;
    }
    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
        }
        p += 8;
    }
    void zeros(std::size_t n) {
        std::memset(p, 0, n);
        p += n;
    }
};

std::uint32_t load_u32(const std::byte* p) {
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    }
    return v;
}

/// Bounds-checked sequential reader; any overrun poisons the parse.
struct reader {
    std::span<const std::byte> raw;
    std::size_t pos = 0;
    bool ok = true;

    std::uint8_t u8() {
        if (pos + 1 > raw.size()) { ok = false; return 0; }
        return static_cast<std::uint8_t>(raw[pos++]);
    }
    std::uint32_t u32() {
        if (pos + 4 > raw.size()) { ok = false; return 0; }
        const std::uint32_t v = load_u32(raw.data() + pos);
        pos += 4;
        return v;
    }
    std::uint64_t u64() {
        if (pos + 8 > raw.size()) { ok = false; return 0; }
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < 8; ++i) {
            v |= static_cast<std::uint64_t>(raw[pos + i]) << (8 * i);
        }
        pos += 8;
        return v;
    }
};

constexpr std::size_t fixed_fields_size =
    8 + 4 + 4 +          // magic, version, flags
    8 + 8 + 8 +          // seq, array_uuid, events
    4 + 4 +              // slot, disk_id
    4 + 4 + 8 + 8 + 8 + 4 +  // k, p, element_size, stripes, sector, layout
    4 + 4 + 4 +          // spares_available, next_disk_id, intent_capacity
    4 + 4 + 4;           // slot_count, intent_count, crc_count

constexpr std::uint32_t flag_clean = 1u << 0;

// Sanity ceilings: large enough for any real configuration, small enough
// that a CRC-colliding garbage blob cannot drive pathological allocation.
constexpr std::uint32_t max_slots = 64;
constexpr std::uint32_t max_intent_capacity = 1u << 20;
constexpr std::uint64_t max_core_bytes = std::uint64_t{64} << 20;
constexpr std::uint64_t max_table_pages =
    table_page_count(std::size_t{1} << 32);

}  // namespace

std::size_t core_size(std::uint32_t slots, std::uint32_t intent_capacity,
                      std::size_t crc_count) noexcept {
    return fixed_fields_size +
           std::size_t{slots} * (1 + 8) +       // slot_states + watermarks
           std::size_t{intent_capacity} * 24 +  // stripe, columns, seq
           table_page_count(crc_count) * (1 + 4) +  // page copies + CRCs
           4;                                   // trailing CRC32C
}

void encode_core(const superblock& sb, std::span<std::byte> out) {
    const auto slots = static_cast<std::uint32_t>(sb.slot_states.size());
    const std::size_t size = core_size(slots, sb.intent_capacity,
                                       sb.crcs.size());
    LIBERATION_EXPECTS(sb.watermarks.size() == slots);
    LIBERATION_EXPECTS(sb.intents.size() <= sb.intent_capacity);
    LIBERATION_EXPECTS(sb.pages.size() == table_page_count(sb.crcs.size()));
    LIBERATION_EXPECTS(out.size() >= size);

    writer w{out.data()};
    w.u64(superblock_magic);
    w.u32(superblock_version);
    w.u32(sb.clean ? flag_clean : 0);
    w.u64(sb.seq);
    w.u64(sb.array_uuid);
    w.u64(sb.events);
    w.u32(sb.slot);
    w.u32(sb.disk_id);
    w.u32(sb.k);
    w.u32(sb.p);
    w.u64(sb.element_size);
    w.u64(sb.stripes);
    w.u64(sb.sector_size);
    w.u32(sb.layout);
    w.u32(sb.spares_available);
    w.u32(sb.next_disk_id);
    w.u32(sb.intent_capacity);
    w.u32(slots);
    w.u32(static_cast<std::uint32_t>(sb.intents.size()));
    w.u32(static_cast<std::uint32_t>(sb.crcs.size()));

    for (std::uint8_t st : sb.slot_states) w.u8(st);
    for (std::uint64_t wm : sb.watermarks) w.u64(wm);
    for (const superblock::intent_entry& e : sb.intents) {
        w.u64(e.stripe);
        w.u64(e.columns);
        w.u64(e.seq);
    }
    // Pad the unused intent slots so the encoded size — and with it the
    // on-disk slot framing — never depends on log occupancy.
    w.zeros((sb.intent_capacity - sb.intents.size()) * 24);
    for (const table_page_ref& pg : sb.pages) w.u8(pg.copy);
    for (const table_page_ref& pg : sb.pages) w.u32(pg.crc);

    w.u32(integrity::crc32c(out.data(), size - 4));
}

std::optional<superblock> decode_core(std::span<const std::byte> raw) {
    reader r{raw};
    if (r.u64() != superblock_magic) return std::nullopt;
    if (r.u32() != superblock_version) return std::nullopt;

    superblock sb;
    const std::uint32_t flags = r.u32();
    sb.clean = (flags & flag_clean) != 0;
    sb.seq = r.u64();
    sb.array_uuid = r.u64();
    sb.events = r.u64();
    sb.slot = r.u32();
    sb.disk_id = r.u32();
    sb.k = r.u32();
    sb.p = r.u32();
    sb.element_size = r.u64();
    sb.stripes = r.u64();
    sb.sector_size = r.u64();
    sb.layout = r.u32();
    sb.spares_available = r.u32();
    sb.next_disk_id = r.u32();
    sb.intent_capacity = r.u32();
    const std::uint32_t slots = r.u32();
    const std::uint32_t intent_count = r.u32();
    const std::uint32_t crc_count = r.u32();
    if (!r.ok) return std::nullopt;
    if (slots > max_slots || sb.intent_capacity > max_intent_capacity ||
        intent_count > sb.intent_capacity) {
        return std::nullopt;
    }
    const std::size_t want = core_size(slots, sb.intent_capacity, crc_count);
    if (raw.size() < want) return std::nullopt;

    // Validate the trailing CRC over exactly the encoded extent before
    // trusting any table contents (the slot buffer may be larger).
    if (integrity::crc32c(raw.data(), want - 4) !=
        load_u32(raw.data() + want - 4)) {
        return std::nullopt;
    }

    sb.slot_states.resize(slots);
    for (std::uint32_t i = 0; i < slots; ++i) sb.slot_states[i] = r.u8();
    sb.watermarks.resize(slots);
    for (std::uint32_t i = 0; i < slots; ++i) sb.watermarks[i] = r.u64();
    sb.intents.resize(intent_count);
    for (std::uint32_t i = 0; i < intent_count; ++i) {
        sb.intents[i].stripe = r.u64();
        sb.intents[i].columns = r.u64();
        sb.intents[i].seq = r.u64();
    }
    r.pos += (sb.intent_capacity - intent_count) * 24;  // skip padding slots
    sb.pages.resize(table_page_count(crc_count));
    for (table_page_ref& pg : sb.pages) pg.copy = r.u8();
    for (table_page_ref& pg : sb.pages) pg.crc = r.u32();
    if (!r.ok) return std::nullopt;

    for (std::uint8_t st : sb.slot_states) {
        if ((st & ~slot_state_slow_bit) >
            static_cast<std::uint8_t>(slot_state::rebuilding)) {
            return std::nullopt;
        }
    }
    for (const table_page_ref& pg : sb.pages) {
        if (pg.copy > 1) return std::nullopt;
    }
    sb.crcs.resize(crc_count);
    return sb;
}

std::uint32_t encode_page(std::span<const std::uint32_t> crcs,
                          std::size_t page, std::span<std::byte> out) {
    LIBERATION_EXPECTS(out.size() >= table_page_size);
    const std::size_t first = page * table_page_words;
    LIBERATION_EXPECTS(first < crcs.size());
    const std::size_t words =
        std::min(table_page_words, crcs.size() - first);
    writer w{out.data()};
    if constexpr (std::endian::native == std::endian::little) {
        // The in-memory words already are their little-endian encoding.
        std::memcpy(w.p, crcs.data() + first, words * 4);
        w.p += words * 4;
    } else {
        for (std::size_t i = 0; i < words; ++i) w.u32(crcs[first + i]);
    }
    w.zeros((table_page_words - words) * 4);
    return integrity::crc32c(out.data(), table_page_size);
}

bool decode_page(std::span<const std::byte> raw, std::uint32_t expected_crc,
                 std::size_t page, std::span<std::uint32_t> crcs) {
    if (raw.size() < table_page_size) return false;
    if (integrity::crc32c(raw.data(), table_page_size) != expected_crc) {
        return false;
    }
    const std::size_t first = page * table_page_words;
    if (first >= crcs.size()) return false;
    const std::size_t words =
        std::min(table_page_words, crcs.size() - first);
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(crcs.data() + first, raw.data(), words * 4);
    } else {
        for (std::size_t i = 0; i < words; ++i) {
            crcs[first + i] = load_u32(raw.data() + 4 * i);
        }
    }
    return true;
}

std::vector<std::byte> encode_header(const file_header& h) {
    // Zero-padded to the full header block.
    std::vector<std::byte> out(file_header_size);
    writer w{out.data()};
    w.u64(file_header_magic);
    w.u32(superblock_version);
    w.u64(h.array_uuid);
    w.u32(h.slot);
    w.u64(h.layout.core_bytes);
    w.u64(h.layout.table_pages);
    w.u64(h.layout.data_offset());
    const auto payload = static_cast<std::size_t>(w.p - out.data());
    w.u32(integrity::crc32c(out.data(), payload));
    return out;
}

std::optional<std::uint32_t> header_version(std::span<const std::byte> raw) {
    reader r{raw};
    if (r.u64() != file_header_magic) return std::nullopt;
    const std::uint32_t version = r.u32();
    if (!r.ok) return std::nullopt;
    return version;
}

std::optional<file_header> decode_header(std::span<const std::byte> raw) {
    reader r{raw};
    if (r.u64() != file_header_magic) return std::nullopt;
    if (r.u32() != superblock_version) return std::nullopt;
    file_header h;
    h.array_uuid = r.u64();
    h.slot = r.u32();
    h.layout.core_bytes = r.u64();
    h.layout.table_pages = r.u64();
    const std::uint64_t data_offset = r.u64();
    const std::size_t payload = r.pos;
    const std::uint32_t stored = r.u32();
    if (!r.ok) return std::nullopt;
    if (integrity::crc32c(raw.data(), payload) != stored) return std::nullopt;
    if (h.layout.core_bytes == 0 || h.layout.core_bytes % 4096 != 0 ||
        h.layout.core_bytes > max_core_bytes ||
        h.layout.table_pages > max_table_pages ||
        data_offset != h.layout.data_offset()) {
        return std::nullopt;
    }
    return h;
}

}  // namespace liberation::raid::persist
