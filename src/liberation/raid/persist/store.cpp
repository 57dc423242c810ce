#include "liberation/raid/persist/store.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "liberation/util/assert.hpp"

namespace liberation::raid::persist {

namespace {

constexpr std::size_t slot_align = 4096;
constexpr std::uint32_t probe_scan_limit = 64;  // matches the array's max n

std::uint64_t round_up(std::uint64_t v, std::uint64_t align) {
    return (v + align - 1) / align * align;
}

/// Read exactly out.size() bytes at `offset` with stdio; false on any
/// shortfall. Used only by probe_dir, which must not create files.
bool read_at(std::FILE* f, std::size_t offset, std::span<std::byte> out) {
    if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0) return false;
    return std::fread(out.data(), 1, out.size(), f) == out.size();
}

/// Decode one core slot and load the checksum pages it references; a core
/// is valid only when every referenced page matches its recorded CRC.
std::optional<superblock> read_superblock(std::FILE* f,
                                          const member_layout& layout,
                                          std::uint64_t core_slot,
                                          std::vector<std::byte>& buf) {
    buf.resize(layout.core_bytes);
    if (!read_at(f, layout.core_offset(core_slot), buf)) return std::nullopt;
    std::optional<superblock> sb = decode_core(buf);
    if (!sb || sb->pages.size() != layout.table_pages) return std::nullopt;
    buf.resize(table_page_size);
    for (std::size_t pg = 0; pg < sb->pages.size(); ++pg) {
        const table_page_ref& ref = sb->pages[pg];
        if (!read_at(f, layout.page_offset(ref.copy, pg), buf) ||
            !decode_page(buf, ref.crc, pg, sb->crcs)) {
            return std::nullopt;
        }
    }
    return sb;
}

}  // namespace

std::string store::disk_path(const std::string& dir, std::uint32_t slot) {
    char name[32];
    std::snprintf(name, sizeof(name), "/disk-%02u.img", slot);
    return dir + name;
}

std::vector<disk_probe> probe_dir(const std::string& dir) {
    std::vector<disk_probe> probes;
    std::size_t last_present = 0;
    std::vector<std::byte> buf;
    for (std::uint32_t slot = 0; slot < probe_scan_limit; ++slot) {
        disk_probe p;
        p.path = store::disk_path(dir, slot);
        std::FILE* f = std::fopen(p.path.c_str(), "rb");
        if (f) {
            p.file_present = true;
            if (std::fseek(f, 0, SEEK_END) == 0) {
                const long end = std::ftell(f);
                p.file_size = end > 0 ? static_cast<std::uint64_t>(end) : 0;
            }
            std::vector<std::byte> hdr(file_header_size);
            if (read_at(f, 0, hdr)) {
                p.format_version = header_version(hdr).value_or(0);
                if (auto h = decode_header(hdr)) {
                    p.header_ok = true;
                    p.header = *h;
                }
            }
            if (p.header_ok) {
                // Validate both cores (with their pages); keep the valid
                // one with the larger seq, count the rest as torn.
                for (std::uint64_t s = 0; s < 2; ++s) {
                    std::optional<superblock> sb =
                        read_superblock(f, p.header.layout, s, buf);
                    if (!sb) {
                        ++p.bad_slots;
                    } else if (!p.sb || sb->seq > p.sb->seq) {
                        p.sb = std::move(sb);
                    }
                }
            }
            std::fclose(f);
            last_present = probes.size() + 1;
        }
        probes.push_back(std::move(p));
    }
    probes.resize(last_present);
    return probes;
}

store::store(store_config cfg, std::vector<superblock> images,
             const member_layout& layout, std::size_t disk_capacity,
             obs::registry& metrics)
    : cfg_(std::move(cfg)), layout_(layout),
      uuid_(images.empty() ? 0 : images.front().array_uuid),
      ctr_(metrics) {
    std::vector<std::string> paths;
    paths.reserve(images.size());
    slots_.resize(images.size());
    for (std::uint32_t s = 0; s < images.size(); ++s) {
        paths.push_back(disk_path(cfg_.dir, s));
        slot_meta& m = slots_[s];
        m.image = std::move(images[s]);
        LIBERATION_EXPECTS(m.image.pages.size() == layout_.table_pages);
        m.persisted = m.image.pages;
        m.dirty.assign((layout_.table_pages + 63) / 64, 0);
        m.core_buf.resize(core_size(
            static_cast<std::uint32_t>(m.image.slot_states.size()),
            m.image.intent_capacity, m.image.crcs.size()));
        LIBERATION_EXPECTS(m.core_buf.size() <= layout_.core_bytes);
        m.page_buf.resize(table_page_size);
    }
    aio::file_backend_config bc;
    bc.data_offset = layout_.data_offset();
    backend_ = std::make_unique<aio::file_backend>(std::move(paths),
                                                   disk_capacity, bc);
}

void store::write_meta(slot_meta& m, std::uint64_t offset,
                       std::span<const std::byte> bytes, meta_kind kind) {
    LIBERATION_EXPECTS(offset + bytes.size() <= m.meta.size());
    std::memcpy(m.meta.data() + offset, bytes.data(), bytes.size());
    ctr_.inc<&store_stats::meta_bytes>(bytes.size());
    if (kind == meta_kind::page) ctr_.inc<&store_stats::pages_written>();
    if (kind == meta_kind::core) ctr_.inc<&store_stats::cores_written>();
}

bool store::init_slot_file(std::uint32_t slot) {
    slot_meta& m = slots_[slot];
    m.meta = backend_->map_meta(slot);
    if (m.meta.empty()) return false;
    superblock& sb = m.image;
    file_header h;
    h.array_uuid = sb.array_uuid;
    h.slot = slot;
    h.layout = layout_;
    write_meta(m, 0, encode_header(h), meta_kind::header);
    // Allocated blocks behind the whole data mapping: a store into a hole
    // the filesystem cannot fill would raise SIGBUS.
    if (!backend_->preallocate_data(slot)) return false;
    // Both table copies get every page, so either copy can serve as the
    // next write target.
    for (std::size_t pg = 0; pg < layout_.table_pages; ++pg) {
        sb.pages[pg] = {0, encode_page(sb.crcs, pg, m.page_buf)};
        for (std::uint8_t copy = 0; copy < 2; ++copy) {
            write_meta(m, layout_.page_offset(copy, pg), m.page_buf,
                       meta_kind::page);
        }
    }
    m.persisted = sb.pages;
    std::fill(m.dirty.begin(), m.dirty.end(), 0);
    // Prime both cores so the first regular persist (which overwrites
    // one of them) always leaves a valid fallback copy.
    encode_core(sb, m.core_buf);
    for (std::uint64_t c = 0; c < 2; ++c) {
        write_meta(m, layout_.core_offset(c), m.core_buf, meta_kind::core);
    }
    return !cfg_.sync_meta || flush(slot);
}

std::unique_ptr<store> store::format(const store_config& cfg,
                                     std::vector<superblock> images,
                                     std::size_t disk_capacity,
                                     obs::registry& metrics) {
    LIBERATION_EXPECTS(!images.empty());
    // Formatting a fresh array may name a directory that does not exist
    // yet; creating it here keeps `create_array(dir)` one-shot. (attach()
    // deliberately does not: mounting expects the files to be there.)
    std::error_code ec;
    std::filesystem::create_directories(cfg.dir, ec);
    const superblock& first = images.front();
    member_layout layout;
    layout.core_bytes = round_up(
        core_size(static_cast<std::uint32_t>(first.slot_states.size()),
                  first.intent_capacity, first.crcs.size()),
        slot_align);
    layout.table_pages = table_page_count(first.crcs.size());
    for (superblock& img : images) img.pages.resize(layout.table_pages);
    std::unique_ptr<store> st(
        new store(cfg, std::move(images), layout, disk_capacity, metrics));
    for (std::uint32_t s = 0; s < st->slot_count(); ++s) {
        if (!st->init_slot_file(s)) return nullptr;
    }
    return st;
}

std::unique_ptr<store> store::attach(
    const store_config& cfg, std::vector<superblock> images,
    std::size_t disk_capacity, const member_layout& layout,
    const std::vector<std::uint32_t>& fresh_slots,
    const std::vector<std::uint32_t>& foreign_slots, obs::registry& metrics) {
    LIBERATION_EXPECTS(!images.empty());
    std::unique_ptr<store> st(new store(cfg, std::move(images), layout,
                                        disk_capacity, metrics));
    for (std::uint32_t s : foreign_slots) {
        st->meta_mask_ &= ~(std::uint64_t{1} << s);
    }
    for (std::uint32_t s : fresh_slots) {
        if (!st->init_slot_file(s)) return nullptr;
    }
    // The remaining members keep their metadata. A slot whose area cannot
    // be mapped stays unmapped (meta_mapped() is false): the mounter fails
    // that member rather than let its persists fail unseen.
    for (std::uint32_t s = 0; s < st->slot_count(); ++s) {
        slot_meta& m = st->slots_[s];
        if (st->meta_slot(s) && m.meta.empty()) {
            m.meta = st->backend_->map_meta(s);
        }
    }
    return st;
}

bool store::reinit_slot(std::uint32_t slot) {
    if (!init_slot_file(slot)) return false;
    meta_mask_ |= std::uint64_t{1} << slot;
    return true;
}

void store::update_crcs(std::uint32_t slot, std::size_t first,
                        std::span<const std::uint32_t> words) {
    slot_meta& m = slots_[slot];
    std::vector<std::uint32_t>& crcs = m.image.crcs;
    LIBERATION_EXPECTS(first + words.size() <= crcs.size());
    std::size_t done = 0;
    while (done < words.size()) {
        // One table page at a time: compare, and copy + mark on change.
        const std::size_t at = first + done;
        const std::size_t page = at / table_page_words;
        const std::size_t n = std::min(words.size() - done,
                                       (page + 1) * table_page_words - at);
        if (std::memcmp(crcs.data() + at, words.data() + done, n * 4) != 0) {
            std::memcpy(crcs.data() + at, words.data() + done, n * 4);
            m.dirty[page / 64] |= std::uint64_t{1} << (page % 64);
        }
        done += n;
    }
}

bool store::persist(std::uint32_t slot) {
    slot_meta& m = slots_[slot];
    if (m.meta.empty()) return false;
    superblock& sb = m.image;
    ++sb.seq;
    // Dirty pages go to the copy the last persisted core does not
    // reference, so that core and every page it names stay intact until
    // the new core has landed.
    for (std::size_t w = 0; w < m.dirty.size(); ++w) {
        for (std::uint64_t bits = m.dirty[w]; bits != 0; bits &= bits - 1) {
            const std::size_t pg =
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            const auto copy =
                static_cast<std::uint8_t>(m.persisted[pg].copy ^ 1);
            sb.pages[pg] = {copy, encode_page(sb.crcs, pg, m.page_buf)};
            write_meta(m, layout_.page_offset(copy, pg), m.page_buf,
                       meta_kind::page);
        }
    }
    encode_core(sb, m.core_buf);
    write_meta(m, layout_.core_offset(sb.seq % 2), m.core_buf,
               meta_kind::core);
    const bool ok = !cfg_.sync_meta || flush(slot);
    // Commit (the new core names the new copies) or roll back (the next
    // persist redoes the same pages against the same persisted core).
    for (std::size_t w = 0; w < m.dirty.size(); ++w) {
        for (std::uint64_t bits = m.dirty[w]; bits != 0; bits &= bits - 1) {
            const std::size_t pg =
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            if (ok) {
                m.persisted[pg] = sb.pages[pg];
            } else {
                sb.pages[pg] = m.persisted[pg];
            }
        }
        if (ok) m.dirty[w] = 0;
    }
    if (!ok) --sb.seq;
    return ok;
}

bool store::flush(std::uint32_t slot) {
    if (!backend_->ok(slot)) return false;
    ctr_.inc<&store_stats::syncs>();
    return backend_->flush(slot);
}

bool store::flush_all() {
    bool all = true;
    for (std::uint32_t s = 0; s < slot_count(); ++s) {
        if (backend_->ok(s) && !flush(s)) all = false;
    }
    return all;
}

}  // namespace liberation::raid::persist
