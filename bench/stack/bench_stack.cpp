// bench_stack: wall-clock end-to-end and per-layer benchmark of the
// persistent RAID-6 volume.
//
// One client thread drives host ops through the public API only:
// volume::persist::create_volume / mount_volume, volume::read / write /
// unmount, raid6_array::fail_disk / replace_disk and raid::rebuild_disks.
// Every op runs the whole stack — volume planning and shard dispatch,
// raid6_array (verified reads, small and full-stripe writes, degraded
// decode, rebuild), the fused codec + CRC32C, the aio queue pair, and the
// persistence store that mirrors every medium mutation into backing files.
// Every byte read is checked against an in-memory shadow of the volume.
//
// Fixed set-up (every workload): 2 shards, each k=6 (p=7), 4 KiB
// elements, 1024 stripes: 336 MiB of user data, 448 MiB of backing
// files. chunk_stripes=1, io_queue_depth=8, verify_reads on, no hot
// spares, inline aio (io_workers_per_shard=0). Flush policy: sync_meta,
// sync_data and direct_io all off, so the files live in the page cache
// and latencies are the page cache's, not a device's.
//
// A run: 3 x (create + sequential fill) timed as setup_s, an fdatasync
// of the backing files, a warm-up, the measured phase (closed loop, 1
// client), another fdatasync and a clean unmount, 3 x mount_volume timed
// as volume.mount_s, then a full read-back compare of the remounted
// volume — the durability check.
//
// Workloads (why each is here: see README.md):
//   seq_write          1.3 MiB sequential aligned writes (4 stripes/shard)
//   rand_rw_4k         70 % reads / 30 % writes, 4 KiB, uniform
//   degraded_read_64k  64 KiB uniform reads, disks 1 and 4 of each shard failed
//   rebuild_2disk      fail 2 disks of a shard, replace, rebuild_disks
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// traces every other op (so tracing overhead is measured in the same
// run), drains the volume and shard tracers after each traced op, times
// the layer probes, and reports the per-layer metrics; --trace-out names
// the Chrome trace file it writes.
//
// Usage:
//   bench_stack --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--trace-out FILE] [--dir DIR] [--smoke]
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{NAME:{"value":..,"unit":..}}}
// Exit status: 0 when every checked byte matched, 1 on any refused or
// wrong op or failed set-up, 2 on a usage error.
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "liberation/codes/raid6_code.hpp"
#include "liberation/obs/obs.hpp"
#include "liberation/raid/persist/store.hpp"
#include "liberation/raid/rebuild.hpp"
#include "liberation/util/rng.hpp"
#include "liberation/volume/mount.hpp"
#include "probes.hpp"
#include "spans.hpp"

namespace {

using namespace liberation;
namespace vp = liberation::volume::persist;
using bench_stack::lane_event;

constexpr std::uint32_t kShards = 2;
constexpr std::uint32_t kK = 6;
constexpr std::uint32_t kP = 7;
constexpr std::size_t kElem = 4096;
constexpr std::size_t kStripeData = kK * kP * kElem;
constexpr std::size_t kStripes = 1024;
constexpr std::size_t kSmokeStripes = 64;
constexpr int kSetups = 3;
constexpr int kMounts = 3;
constexpr std::size_t kSeqOp = 4 * kShards * kStripeData;  // 4 stripes per shard
constexpr std::size_t kSmallOp = 4096;
constexpr std::size_t kDegradedOp = 64 * 1024;
constexpr std::uint32_t kDegradedDisks[] = {1, 4};
constexpr std::size_t kPayloadPool = 8u << 20;
constexpr std::size_t kTraceArchiveCap = 100000;

enum class workload { seq_write, rand_rw_4k, degraded_read_64k, rebuild_2disk };

constexpr std::pair<std::string_view, workload> kWorkloads[] = {
    {"seq_write", workload::seq_write},
    {"rand_rw_4k", workload::rand_rw_4k},
    {"degraded_read_64k", workload::degraded_read_64k},
    {"rebuild_2disk", workload::rebuild_2disk},
};

struct options {
    workload w = workload::seq_write;
    std::string name;
    std::uint64_t seed = 1;
    double seconds = 15.0;
    bool trace = false;
    bool smoke = false;
    std::string dir = ".bench_build/stack-run";
    std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "bench_stack: %s\nusage: bench_stack --workload "
                 "seq_write|rand_rw_4k|degraded_read_64k|rebuild_2disk "
                 "[--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] "
                 "[--dir DIR] [--smoke]\n",
                 why);
    std::exit(2);
}

options parse(int argc, char** argv) {
    options o;
    bool have_workload = false;
    bool have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view a = argv[i];
        if (a == "--smoke") {
            o.smoke = true;
            continue;
        }
        if (i + 1 >= argc) usage("missing value");
        const char* v = argv[++i];
        char* end = nullptr;
        if (a == "--workload") {
            for (const auto& [name, w] : kWorkloads) {
                if (name == v) {
                    o.w = w;
                    o.name = name;
                    have_workload = true;
                }
            }
            if (!have_workload) usage("unknown workload");
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
            if (*end != '\0') usage("bad --seed");
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v, &end);
            if (*end != '\0' || !(o.seconds > 0.0) || o.seconds > 3600.0) {
                usage("bad --seconds");
            }
            have_seconds = true;
        } else if (a == "--trace") {
            if (std::string_view(v) != "0" && std::string_view(v) != "1") {
                usage("--trace takes 0 or 1");
            }
            o.trace = std::string_view(v) == "1";
        } else if (a == "--trace-out") {
            o.trace_out = v;
        } else if (a == "--dir") {
            o.dir = v;
        } else {
            usage("unknown argument");
        }
    }
    if (!have_workload) usage("--workload is required");
    if (o.smoke && !have_seconds) o.seconds = 1.0;
    return o;
}

// ---- process counters -------------------------------------------------

struct proc_io {
    std::uint64_t wchar = 0;  ///< bytes passed to write-family syscalls
    std::uint64_t syscw = 0;  ///< write-family syscalls
};

proc_io read_proc_io() {
    proc_io r;
    std::FILE* f = std::fopen("/proc/self/io", "r");
    if (f == nullptr) return r;
    char key[32];
    unsigned long long v = 0;
    while (std::fscanf(f, "%31[^:]: %llu\n", key, &v) == 2) {
        if (std::strcmp(key, "wchar") == 0) r.wchar = v;
        if (std::strcmp(key, "syscw") == 0) r.syscw = v;
    }
    std::fclose(f);
    return r;
}

double cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

std::uint64_t now_ns() { return obs::steady_now_ns(nullptr); }

/// Nearest-rank quantile of `v` (reorders it); 0 for an empty sample.
double quantile(std::vector<std::uint64_t>& v, double q) {
    if (v.empty()) return 0.0;
    auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size()));
    idx = std::min(idx, v.size() - 1);
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                     v.end());
    return static_cast<double>(v[idx]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- layer counters ---------------------------------------------------

/// Public counters of every layer, snapshotted around the measured phase.
struct layer_counters {
    volume::volume_stats vs;
    raid::io_policy_stats io;
    std::uint64_t aio_submitted = 0;
    std::uint64_t aio_batches = 0;
    std::uint64_t aio_merges = 0;
    std::uint64_t aio_highwater = 0;
    std::uint64_t qwait_sum_ns = 0;
    std::uint64_t qwait_count = 0;
    std::uint64_t disk_read_bytes = 0;
    std::uint64_t disk_written_bytes = 0;
    std::uint64_t disk_writes = 0;
    std::uint64_t file_buffered = 0;
    std::uint64_t file_direct = 0;
    proc_io pio;
    double cpu_s = 0.0;
};

layer_counters snapshot(volume::volume& vol) {
    layer_counters c;
    c.vs = vol.stats();
    for (std::uint32_t s = 0; s < vol.shard_count(); ++s) {
        raid::raid6_array& a = vol.shard(s);
        const raid::io_policy_stats io = a.io_stats();
        c.io.reads += io.reads;
        c.io.writes += io.writes;
        c.io.retries += io.retries;
        const aio::aio_stats as = a.aio_engine().stats();
        c.aio_submitted += as.submitted;
        c.aio_batches += as.batches;
        c.aio_merges += as.merges;
        c.aio_highwater = std::max(c.aio_highwater, as.inflight_highwater);
        const auto qw =
            a.obs().metrics().get_histogram("aio_queue_wait_ns").snapshot();
        c.qwait_sum_ns += qw.sum;
        c.qwait_count += qw.count;
        for (std::uint32_t d = 0; d < a.disk_count(); ++d) {
            const raid::disk_stats ds = a.disk(d).stats();
            c.disk_read_bytes += ds.bytes_read;
            c.disk_written_bytes += ds.bytes_written;
            c.disk_writes += ds.writes;
        }
        if (raid::persist::store* st = a.persistence()) {
            const aio::file_backend_stats fs = st->backend().stats();
            c.file_buffered += fs.buffered_transfers;
            c.file_direct += fs.direct_transfers;
        }
    }
    c.pio = read_proc_io();
    c.cpu_s = cpu_seconds();
    return c;
}

/// Allocated bytes of every regular file under `dir`.
std::uint64_t allocated_bytes(const std::string& dir) {
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto& e :
         std::filesystem::recursive_directory_iterator(dir, ec)) {
        struct stat st{};
        if (e.is_regular_file() && ::stat(e.path().c_str(), &st) == 0) {
            total += static_cast<std::uint64_t>(st.st_blocks) * 512;
        }
    }
    return total;
}

// ---- the run ----------------------------------------------------------

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;  ///< printed when nonzero
};

/// Removes the run directory on every exit path that unwinds.
struct dir_guard {
    std::string path;
    explicit dir_guard(std::string p) : path(std::move(p)) {}
    dir_guard(const dir_guard&) = delete;
    dir_guard& operator=(const dir_guard&) = delete;
    ~dir_guard() {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

enum class op_kind { read, write, rebuild };

struct op_result {
    op_kind kind = op_kind::read;
    std::uint64_t t0 = 0;      ///< steady-clock ns at the call
    std::uint64_t ns = 0;      ///< time inside the library call(s)
    std::uint64_t bytes = 0;   ///< host bytes moved (rebuild: bytes rebuilt)
    std::uint64_t units = 1;   ///< attempted units (rebuild: stripes)
    std::uint64_t bad = 0;     ///< refused or wrong units
};

/// Measured-phase accounting. Latency samples and busy time come from
/// untraced ops only; every op counts towards the layer ratios.
struct phase_stats {
    std::vector<std::uint64_t> read_ns, write_ns, rebuild_ns;
    std::uint64_t busy_ns = 0;
    std::uint64_t bytes = 0;
    std::uint64_t ops = 0;
    std::uint64_t traced_ops = 0;
    std::uint64_t traced_busy_ns = 0;
    std::uint64_t all_ops = 0;
    std::uint64_t all_bytes = 0;
    std::uint64_t write_ops = 0;    ///< all ops that wrote (rebuild: recoveries)
    std::uint64_t write_bytes = 0;  ///< bytes written by them
    std::uint64_t stripes_rebuilt = 0;
    double wall_s = 0.0;
};

class stack_run {
public:
    explicit stack_run(const options& o)
        : o_(o),
          stripes_(o.smoke ? kSmokeStripes : kStripes),
          rng_(o.seed),
          spans_({"bench", "volume", "shard=\"0\"", "shard=\"1\""},
                 kTraceArchiveCap),
          dir_(o.dir + "/" + o.name + "-" + std::to_string(::getpid())) {
        cfg_.shards = kShards;
        cfg_.shard.k = kK;
        cfg_.shard.p = kP;
        cfg_.shard.element_size = kElem;
        cfg_.shard.stripes = stripes_;
        cfg_.shard.hot_spares = 0;
        cfg_.shard.io_queue_depth = 8;
        cfg_.shard.verify_reads = true;
        cfg_.chunk_stripes = 1;
        cfg_.threaded_dispatch = true;
        cfg_.io_workers_per_shard = 0;
        scfg_.dir = dir_.path;
        scfg_.direct_io = false;
        scfg_.sync_meta = false;
        scfg_.sync_data = false;
    }

    int run();

private:
    bool setup();
    /// fdatasync every shard's backing files, so the writeback of one
    /// phase's dirty pages never runs inside a later timed phase.
    bool settle();
    op_result step();
    void phase(double seconds, phase_stats* rec);
    op_result traced_step(phase_stats& rec);
    bool remount();
    void readback();
    void report_end_to_end(const phase_stats& ph);
    void report_per_layer(const phase_stats& ph, const layer_counters& before,
                          const layer_counters& after);
    void emit();

    void account(const op_result& r) {
        attempted_ += r.units;
        failed_ += r.bad;
    }
    void make_payload(std::span<std::byte> dst, std::size_t addr);
    bool check(std::size_t addr, std::span<const std::byte> got) const {
        return std::memcmp(got.data(), shadow_.data() + addr, got.size()) == 0;
    }

    op_result seq_write();
    op_result rand_rw();
    op_result degraded_read();
    op_result rebuild_shard();

    options o_;
    std::size_t stripes_;
    util::xoshiro256 rng_;
    volume::volume_config cfg_;
    vp::volume_store_config scfg_;
    std::unique_ptr<volume::volume> vol_;
    std::vector<std::byte> shadow_;
    std::vector<std::byte> pool_;
    std::vector<std::byte> buf_;
    std::vector<std::byte> snap_[2];
    std::vector<std::vector<std::uint32_t>> pairs_;
    std::size_t seq_cursor_ = 0;
    std::uint64_t payload_seq_ = 0;
    std::uint64_t rebuild_ops_ = 0;

    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool lifecycle_failed_ = false;  ///< set-up, unmount or mount failed
    std::vector<std::uint64_t> setup_ns_;
    std::vector<std::uint64_t> mount_ns_;
    std::vector<metric> metrics_;

    bench_stack::span_recorder spans_;
    std::uint64_t spans_dropped_ = 0;
    dir_guard dir_;
};

void stack_run::make_payload(std::span<std::byte> dst, std::size_t addr) {
    // Bytes from the seeded pool at a random offset, each 4 KiB block
    // stamped with its address and the write's sequence number so no two
    // writes land identical bytes (a misdirected write cannot hide).
    const std::size_t slots = (pool_.size() - dst.size()) / 8 + 1;
    const std::size_t off = rng_.next_below(slots) * 8;
    std::memcpy(dst.data(), pool_.data() + off, dst.size());
    for (std::size_t b = 0; b + 16 <= dst.size(); b += kSmallOp) {
        const std::uint64_t stamp[2] = {addr + b, payload_seq_};
        std::memcpy(dst.data() + b, stamp, sizeof stamp);
    }
    ++payload_seq_;
}

op_result stack_run::seq_write() {
    const std::size_t addr = seq_cursor_;
    seq_cursor_ = (addr + kSeqOp) % vol_->capacity();
    const std::span<std::byte> data(shadow_.data() + addr, kSeqOp);
    make_payload(data, addr);
    op_result r{op_kind::write};
    r.t0 = now_ns();
    const bool ok = vol_->write(addr, data);
    r.ns = now_ns() - r.t0;
    r.bytes = kSeqOp;
    r.bad = ok ? 0 : 1;
    return r;
}

op_result stack_run::rand_rw() {
    const bool is_read = rng_.next_below(10) < 7;
    const std::size_t addr =
        rng_.next_below(vol_->capacity() / kSmallOp) * kSmallOp;
    op_result r{is_read ? op_kind::read : op_kind::write};
    r.bytes = kSmallOp;
    bool ok = false;
    if (is_read) {
        const std::span<std::byte> out(buf_.data(), kSmallOp);
        r.t0 = now_ns();
        ok = vol_->read(addr, out);
        r.ns = now_ns() - r.t0;
        ok = ok && check(addr, out);
    } else {
        const std::span<std::byte> data(shadow_.data() + addr, kSmallOp);
        make_payload(data, addr);
        r.t0 = now_ns();
        ok = vol_->write(addr, data);
        r.ns = now_ns() - r.t0;
    }
    r.bad = ok ? 0 : 1;
    return r;
}

op_result stack_run::degraded_read() {
    const std::size_t addr =
        rng_.next_below(vol_->capacity() / kDegradedOp) * kDegradedOp;
    const std::span<std::byte> out(buf_.data(), kDegradedOp);
    op_result r{op_kind::read};
    r.bytes = kDegradedOp;
    r.t0 = now_ns();
    const bool ok = vol_->read(addr, out);
    r.ns = now_ns() - r.t0;
    r.bad = ok && check(addr, out) ? 0 : 1;
    return r;
}

op_result stack_run::rebuild_shard() {
    // Shards alternate; each full cycle over the shards moves to the next
    // disk pair, starting from a seed-chosen pair.
    const std::uint64_t i = rebuild_ops_++;
    raid::raid6_array& a = vol_->shard(static_cast<std::uint32_t>(i % kShards));
    const std::vector<std::uint32_t>& pair =
        pairs_[(o_.seed + i / kShards) % pairs_.size()];
    for (std::size_t j = 0; j < 2; ++j) {
        snap_[j].resize(a.map().disk_capacity());
        a.disk(pair[j]).peek(0, snap_[j]);
    }
    op_result r{op_kind::rebuild};
    r.units = stripes_;
    r.t0 = now_ns();
    for (const std::uint32_t d : pair) a.fail_disk(d);
    for (const std::uint32_t d : pair) a.replace_disk(d);
    const raid::rebuild_result res = raid::rebuild_disks(a, pair);
    r.ns = now_ns() - r.t0;
    r.bytes = res.bytes_written;
    // The rebuilt members must hold exactly what the failed ones held.
    const std::size_t strip = a.map().strip_size();
    std::vector<std::byte> got(strip);
    std::uint64_t wrong = 0;
    for (std::size_t s = 0; s < stripes_; ++s) {
        bool same = true;
        for (std::size_t j = 0; j < 2; ++j) {
            a.disk(pair[j]).peek(s * strip, got);
            same = same &&
                   std::memcmp(got.data(), snap_[j].data() + s * strip, strip) == 0;
        }
        if (!same) ++wrong;
    }
    r.bad = std::min<std::uint64_t>(stripes_, wrong + res.stripes_failed);
    return r;
}

op_result stack_run::step() {
    switch (o_.w) {
        case workload::seq_write: return seq_write();
        case workload::rand_rw_4k: return rand_rw();
        case workload::degraded_read_64k: return degraded_read();
        case workload::rebuild_2disk: return rebuild_shard();
    }
    return {};
}

bool stack_run::setup() {
    shadow_.assign(kShards * stripes_ * kStripeData, std::byte{0});
    rng_.fill(shadow_);
    pool_.resize(kPayloadPool);
    rng_.fill(pool_);
    buf_.resize(kSeqOp);
    pairs_ = codes::all_two_erasures(kK + 2);
    const std::uint64_t uuid = o_.seed * 0x9e3779b97f4a7c15ULL + 1;
    for (int i = 0; i < kSetups; ++i) {
        vol_.reset();
        std::error_code ec;
        std::filesystem::remove_all(dir_.path, ec);
        const std::uint64_t t0 = now_ns();
        vol_ = vp::create_volume(cfg_, scfg_, uuid);
        if (!vol_ || vol_->capacity() != shadow_.size()) return false;
        for (std::size_t addr = 0; addr < vol_->capacity(); addr += kSeqOp) {
            if (!vol_->write(addr, std::span<const std::byte>(
                                       shadow_.data() + addr, kSeqOp))) {
                return false;
            }
        }
        setup_ns_.push_back(now_ns() - t0);
    }
    return settle();
}

bool stack_run::settle() {
    bool ok = true;
    for (std::uint32_t s = 0; s < vol_->shard_count(); ++s) {
        raid::persist::store* st = vol_->shard(s).persistence();
        ok = st != nullptr && st->flush_all() && ok;
    }
    return ok;
}

op_result stack_run::traced_step(phase_stats& rec) {
    // The bench's span is the root of the op's causal tree: installed as
    // the ambient context, every span the volume and shards record for
    // this op names it as parent.
    const obs::trace_context ctx{obs::next_trace_id(), obs::next_span_id()};
    vol_->set_tracing(true);
    op_result r;
    {
        obs::trace_scope scope(ctx);
        r = step();
    }
    vol_->set_tracing(false);
    static const char* const kNames[] = {"bench.read", "bench.write",
                                         "bench.rebuild"};
    std::vector<lane_event> evs;
    obs::trace_event self;
    self.name = kNames[static_cast<int>(r.kind)];
    self.cat = "bench";
    self.ts_ns = r.t0;
    self.dur_ns = r.ns;
    self.trace_id = ctx.trace_id;
    self.span_id = ctx.span_id;
    evs.push_back({self, 0});
    const auto drain = [&](obs::tracer& t, std::uint32_t lane) {
        for (const obs::trace_event& e : t.ordered()) evs.push_back({e, lane});
        spans_dropped_ += t.dropped();
        t.clear();
    };
    drain(vol_->obs().trace(), 1);
    for (std::uint32_t s = 0; s < vol_->shard_count(); ++s) {
        drain(vol_->shard(s).obs().trace(), 2 + s);
    }
    spans_.add_op(evs);
    ++rec.traced_ops;
    rec.traced_busy_ns += r.ns;
    return r;
}

void stack_run::phase(double seconds, phase_stats* rec) {
    const std::uint64_t t_start = now_ns();
    const auto deadline = t_start + static_cast<std::uint64_t>(seconds * 1e9);
    for (std::uint64_t i = 0; now_ns() < deadline; ++i) {
        const bool traced = rec != nullptr && o_.trace && i % 2 == 1;
        const op_result r = traced ? traced_step(*rec) : step();
        account(r);
        if (rec == nullptr) continue;
        ++rec->all_ops;
        rec->all_bytes += r.bytes;
        if (r.kind != op_kind::read) {
            ++rec->write_ops;
            rec->write_bytes += r.bytes;
        }
        if (r.kind == op_kind::rebuild) rec->stripes_rebuilt += r.units;
        if (traced) continue;
        ++rec->ops;
        rec->busy_ns += r.ns;
        rec->bytes += r.bytes;
        (r.kind == op_kind::read    ? rec->read_ns
         : r.kind == op_kind::write ? rec->write_ns
                                    : rec->rebuild_ns)
            .push_back(r.ns);
    }
    if (rec != nullptr) {
        rec->wall_s = static_cast<double>(now_ns() - t_start) / 1e9;
    }
}

bool stack_run::remount() {
    if (!settle() || !vol_->unmount()) return false;
    vol_.reset();
    vp::volume_mount_options mo;
    mo.store = scfg_;
    mo.io_queue_depth = cfg_.shard.io_queue_depth;
    mo.verify_reads = cfg_.shard.verify_reads;
    mo.threaded_dispatch = cfg_.threaded_dispatch;
    for (int i = 0; i < kMounts; ++i) {
        const std::uint64_t t0 = now_ns();
        vp::mounted_volume m = vp::mount_volume(mo);
        const std::uint64_t dt = now_ns() - t0;
        if (!m.report.ok || !m.vol) {
            std::fprintf(stderr, "bench_stack: mount refused: %s\n",
                         m.report.error.c_str());
            return false;
        }
        mount_ns_.push_back(dt);
        if (i + 1 < kMounts) {
            if (!m.vol->unmount()) return false;
        } else {
            vol_ = std::move(m.vol);
        }
    }
    return true;
}

void stack_run::readback() {
    for (std::size_t addr = 0; addr < vol_->capacity(); addr += kSeqOp) {
        const std::span<std::byte> out(buf_.data(), kSeqOp);
        ++attempted_;
        if (!vol_->read(addr, out) || !check(addr, out)) ++failed_;
    }
}

void stack_run::report_end_to_end(const phase_stats& ph) {
    std::vector<std::uint64_t> setup = setup_ns_;
    std::vector<std::uint64_t> all = ph.read_ns;
    all.insert(all.end(), ph.write_ns.begin(), ph.write_ns.end());
    all.insert(all.end(), ph.rebuild_ns.begin(), ph.rebuild_ns.end());
    const double busy_s = static_cast<double>(ph.busy_ns) / 1e9;
    metrics_.push_back({"setup_s", quantile(setup, 0.5) / 1e9, "s", setup.size()});
    metrics_.push_back({"host_MBps", ratio(static_cast<double>(ph.bytes) / 1e6, busy_s),
                        "MB/s", ph.ops});
    metrics_.push_back({"op_p50_us", quantile(all, 0.50) / 1e3, "us", all.size()});
    metrics_.push_back({"op_p90_us", quantile(all, 0.90) / 1e3, "us", all.size()});
    metrics_.push_back({"space_amp",
                        ratio(static_cast<double>(allocated_bytes(dir_.path)),
                              static_cast<double>(vol_->capacity())),
                        "ratio", 0});
    metrics_.push_back({"peak_rss_MB", peak_rss_mb(), "MB", 0});
}

void stack_run::report_per_layer(const phase_stats& ph,
                                 const layer_counters& b,
                                 const layer_counters& e) {
    auto sm = spans_.samples();  // copied: quantile() reorders
    std::vector<std::uint64_t> reads = ph.read_ns;
    std::vector<std::uint64_t> writes = ph.write_ns;
    const raid::array_stats& sb = b.vs.shard_total;
    const raid::array_stats& se = e.vs.shard_total;
    const auto d = [](std::uint64_t hi, std::uint64_t lo) {
        return static_cast<double>(hi - lo);
    };
    const auto us50 = [](std::vector<std::uint64_t>& v) {
        return quantile(v, 0.5) / 1e3;
    };

    // Probes run on the remounted volume, on shard 0's geometry; the
    // decode patterns are the degraded workload's failed pair.
    raid::raid6_array& a = vol_->shard(0);
    const bench_stack::codec_probe codec =
        bench_stack::probe_codec(a, kDegradedDisks, o_.seed);
    const double crc_gbps = bench_stack::probe_crc_GBps(a.map().strip_size(), o_.seed);
    const double persist_us = bench_stack::probe_persist_us(a, 0, 200);

    const double host_ops = static_cast<double>(ph.all_ops);
    const double host_bytes = static_cast<double>(ph.all_bytes);
    const double write_bytes = static_cast<double>(ph.write_bytes);
    const double host_mbps =
        ratio(static_cast<double>(ph.bytes) / 1e6,
              static_cast<double>(ph.busy_ns) / 1e9);
    const double host_reads = d(e.vs.reads, b.vs.reads);
    const double host_vol_ops = host_reads + d(e.vs.writes, b.vs.writes);
    const double coded_s =
        d(se.full_stripe_writes, sb.full_stripe_writes) * codec.encode_s +
        (d(se.degraded_stripe_reads, sb.degraded_stripe_reads) +
         static_cast<double>(ph.stripes_rebuilt)) *
            codec.decode_s;
    const double disk_bytes = d(e.disk_read_bytes, b.disk_read_bytes) +
                              d(e.disk_written_bytes, b.disk_written_bytes);
    const double wchar = d(e.pio.wchar, b.pio.wchar);
    const double data_written = d(e.disk_written_bytes, b.disk_written_bytes);
    const double syscw = d(e.pio.syscw, b.pio.syscw);
    const double meta_syscalls = syscw - d(e.disk_writes, b.disk_writes);
    // Estimated shares are of the process CPU time, not of wall time:
    // the shards work in parallel, so their summed layer time can exceed
    // the client's wall clock.
    const double cpu_s = e.cpu_s - b.cpu_s;
    const double untraced_rate = ratio(static_cast<double>(ph.ops),
                                       static_cast<double>(ph.busy_ns));
    const double traced_rate = ratio(static_cast<double>(ph.traced_ops),
                                     static_cast<double>(ph.traced_busy_ns));

    const auto put = [&](const char* name, double v, const char* unit,
                         std::size_t n = 0) {
        metrics_.push_back({name, v, unit, n});
    };
    put("volume.self_us_p50", us50(sm.volume_self), "us", sm.volume_self.size());
    put("volume.dispatch_wait_us_p50", us50(sm.dispatch_wait), "us",
        sm.dispatch_wait.size());
    put("volume.multi_shard_frac",
        ratio(d(e.vs.multi_shard_ops, b.vs.multi_shard_ops), host_vol_ops),
        "ratio");
    put("volume.staged_bytes_per_host_byte",
        ratio(d(e.vs.staged_bytes, b.vs.staged_bytes), host_bytes), "ratio");
    put("volume.read_us_p50", quantile(reads, 0.50) / 1e3, "us", reads.size());
    put("volume.read_us_p99", quantile(reads, 0.99) / 1e3, "us", reads.size());
    put("volume.write_us_p50", quantile(writes, 0.50) / 1e3, "us", writes.size());
    put("volume.write_us_p99", quantile(writes, 0.99) / 1e3, "us", writes.size());
    std::vector<std::uint64_t> mount = mount_ns_;
    put("volume.mount_s", quantile(mount, 0.5) / 1e9, "s", mount.size());

    put("raid.read_us_p50", us50(sm.raid_read), "us", sm.raid_read.size());
    put("raid.read_self_us_p50", us50(sm.raid_read_self), "us",
        sm.raid_read_self.size());
    put("raid.write_small_us_p50", us50(sm.raid_write_small), "us",
        sm.raid_write_small.size());
    put("raid.write_small_self_us_p50", us50(sm.raid_write_small_self), "us",
        sm.raid_write_small_self.size());
    put("raid.write_full_us_p50", us50(sm.raid_write_full), "us",
        sm.raid_write_full.size());
    put("raid.write_full_self_us_p50", us50(sm.raid_write_full_self), "us",
        sm.raid_write_full_self.size());
    put("raid.parity_elems_per_small_write",
        ratio(d(se.parity_elements_updated, sb.parity_elements_updated),
              d(se.small_writes, sb.small_writes)),
        "count");
    put("raid.decodes_per_read",
        ratio(d(se.degraded_stripe_reads, sb.degraded_stripe_reads), host_reads),
        "count");
    put("raid.checksum_mismatches",
        d(se.checksum_mismatches, sb.checksum_mismatches), "count");
    put("raid.rebuild_window_us_p50", us50(sm.rebuild_window), "us",
        sm.rebuild_window.size());

    put("io.disk_reads_per_host_op", ratio(d(e.io.reads, b.io.reads), host_ops),
        "count");
    put("io.disk_writes_per_host_op",
        ratio(d(e.io.writes, b.io.writes), host_ops), "count");
    put("io.retries", d(e.io.retries, b.io.retries), "count");

    put("aio.queue_wait_us_mean",
        ratio(d(e.qwait_sum_ns, b.qwait_sum_ns) / 1e3,
              d(e.qwait_count, b.qwait_count)),
        "us");
    put("aio.execute_us_p50", us50(sm.aio_execute), "us", sm.aio_execute.size());
    put("aio.batches_per_host_op",
        ratio(d(e.aio_batches, b.aio_batches), host_ops), "count");
    put("aio.merge_frac",
        ratio(d(e.aio_merges, b.aio_merges), d(e.aio_submitted, b.aio_submitted)),
        "ratio");
    put("aio.inflight_highwater", static_cast<double>(e.aio_highwater), "count");

    put("codec.encode_GBps", codec.encode_GBps, "GB/s");
    put("codec.decode_GBps", codec.decode_GBps, "GB/s");
    put("codec.xors_per_encode", codec.xors_per_encode, "count");
    put("codec.xors_per_decode", codec.xors_per_decode, "count");
    put("codec.est_share", ratio(coded_s, cpu_s), "ratio");
    put("stack.encode_efficiency", ratio(host_mbps, codec.encode_GBps * 1000.0),
        "ratio");

    put("crc.GBps", crc_gbps, "GB/s");
    put("crc.est_share", ratio(disk_bytes / (crc_gbps * 1e9), cpu_s), "ratio");

    put("persist.write_amp", ratio(wchar, write_bytes), "ratio");
    put("persist.meta_bytes_per_host_byte", ratio(wchar - data_written, write_bytes),
        "ratio");
    put("persist.data_bytes_per_host_byte", ratio(data_written, write_bytes),
        "ratio");
    put("persist.syscalls_per_host_write",
        ratio(syscw, static_cast<double>(ph.write_ops)), "count");
    put("persist.superblock_persist_us", persist_us, "us");
    put("persist.est_share", ratio(meta_syscalls * persist_us / 1e6, cpu_s),
        "ratio");
    put("file.buffered_transfers", d(e.file_buffered, b.file_buffered), "count");
    put("file.direct_transfers", d(e.file_direct, b.file_direct), "count");

    put("disk.read_bytes_per_host_byte",
        ratio(d(e.disk_read_bytes, b.disk_read_bytes), host_bytes), "ratio");

    put("obs.tracing_overhead_ratio", ratio(traced_rate, untraced_rate), "ratio");
    put("obs.spans_dropped", static_cast<double>(spans_dropped_), "count");

    put("proc.cpu_util", ratio(cpu_s, ph.wall_s), "ratio");
    put("proc.cpu_s_per_host_GB", ratio(cpu_s, host_bytes / 1e9), "s/GB");
}

void stack_run::emit() {
    for (const metric& m : metrics_) {
        if (m.samples != 0) {
            std::printf("%-36s %14.4f %-6s (n=%zu)\n", m.name.c_str(), m.value,
                        m.unit.c_str(), m.samples);
        } else {
            std::printf("%-36s %14.4f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        }
    }
    const bool correct = failed_ == 0 && !lifecycle_failed_;
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
                correct ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(attempted_, 1)),
                static_cast<unsigned long long>(failed_ + (lifecycle_failed_ ? 1 : 0)));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i != 0 ? "," : "",
                    metrics_[i].name.c_str(), metrics_[i].value,
                    metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

int stack_run::run() {
    std::printf("# bench_stack workload=%s seed=%llu seconds=%g trace=%d%s\n",
                o_.name.c_str(), static_cast<unsigned long long>(o_.seed),
                o_.seconds, o_.trace ? 1 : 0, o_.smoke ? " smoke" : "");
    std::printf("# volume: %u shards x (k=%u, p=%u, element=%zu, stripes=%zu), "
                "chunk_stripes=1, io_queue_depth=8, verify_reads=on, no spares\n",
                kShards, kK, kP, kElem, stripes_);
    std::printf("# files: %s (removed at exit); flush policy: sync_meta=off "
                "sync_data=off direct_io=off -> page-cache latency, not device "
                "latency\n",
                dir_.path.c_str());
    std::printf("# load: closed loop, 1 client thread + %u shard dispatcher "
                "threads\n",
                kShards);
    std::fflush(stdout);

    if (!setup()) {
        std::fprintf(stderr, "bench_stack: set-up failed\n");
        lifecycle_failed_ = true;
        emit();
        return 1;
    }
    std::printf("# user data %.1f MiB, backing files %.1f MiB\n",
                static_cast<double>(vol_->capacity()) / (1 << 20),
                static_cast<double>(allocated_bytes(dir_.path)) / (1 << 20));
    if (o_.w == workload::degraded_read_64k) {
        for (std::uint32_t s = 0; s < vol_->shard_count(); ++s) {
            for (const std::uint32_t d : kDegradedDisks) vol_->shard(s).fail_disk(d);
        }
    }

    phase(std::min(2.0, o_.seconds / 5), nullptr);  // warm-up
    phase_stats ph;
    const layer_counters before = snapshot(*vol_);
    phase(o_.seconds, &ph);
    const layer_counters after = snapshot(*vol_);

    if (!remount()) {
        std::fprintf(stderr, "bench_stack: unmount/mount failed\n");
        lifecycle_failed_ = true;
    } else {
        readback();
        if (o_.trace) {
            report_per_layer(ph, before, after);
        } else {
            report_end_to_end(ph);
        }
    }
    if (o_.trace && !o_.trace_out.empty()) {
        if (!spans_.write_chrome_json(o_.trace_out)) {
            std::fprintf(stderr, "bench_stack: cannot write %s\n",
                         o_.trace_out.c_str());
        } else {
            std::printf("# chrome trace: %s (%zu events)\n", o_.trace_out.c_str(),
                        spans_.archived());
        }
    }
    if (vol_ && !vol_->unmount()) lifecycle_failed_ = true;
    vol_.reset();
    emit();
    return failed_ == 0 && !lifecycle_failed_ ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const options o = parse(argc, argv);
    stack_run run(o);
    return run.run();
}
