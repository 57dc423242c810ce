// Postmortem bundles: one directory per incident holding everything a
// human (or CI assertion) needs to reconstruct what happened — the
// metrics exposition, the merged causal trace, the flight-recorder ring,
// an optional mount/superblock census, and a MANIFEST.json naming them.
//
// Dumps happen at three automatic trip points (a failed chaos verdict, a
// refused mount, the first unrecoverable read of an array) and on demand
// via tools/obs_dump. Automatic dumps are opt-in through the
// LIBERATION_POSTMORTEM_DIR environment variable so production hot paths
// never touch the filesystem unasked; each bundle lands in a fresh
// subdirectory <reason>-<seq> of that root (seq is a process counter,
// not wall time, so seeded runs stay byte-deterministic).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace liberation::obs {

class hub;

/// The first host op a seeded run saw disagree with its reference copy:
/// a read that returned other bytes, or a read or write that was refused.
struct divergence {
    std::uint64_t op = 0;        ///< op index in the run's workload
    std::uint64_t addr = 0;      ///< host byte address
    std::uint64_t len = 0;       ///< host byte length
    std::uint64_t trace_id = 0;  ///< the op's root trace id (0 = untraced)
};

struct postmortem_bundle {
    std::string reason;        ///< "chaos_verdict", "mount_refused", ...
    std::string metrics_text;  ///< Prometheus exposition at dump time
    std::string trace_json;    ///< merged Chrome trace (may be empty)
    std::string census_text;   ///< mount/superblock census (may be empty)
    std::string slo_text;      ///< SLO status lines (may be empty)
    /// Named in MANIFEST.json as "first_bad_op" when set.
    std::optional<divergence> first_bad_op;
};

/// Write `b` plus the current flight-recorder ring into `dir`
/// (created if missing): MANIFEST.json, metrics.prom, trace.json,
/// flight_recorder.log, census.txt, slo.txt — empty sections are
/// skipped and the manifest lists only what was written. Returns the
/// bundle directory, or "" on any filesystem error.
std::string write_postmortem(const std::string& dir,
                             const postmortem_bundle& b);

/// Automatic trip point: no-op (returns "") unless
/// LIBERATION_POSTMORTEM_DIR is set, else writes the bundle into
/// $LIBERATION_POSTMORTEM_DIR/<reason>-<seq>. When `h` is non-null its
/// metrics/trace fill any empty bundle sections.
std::string auto_postmortem(const std::string& reason, hub* h,
                            postmortem_bundle b = {});

}  // namespace liberation::obs
