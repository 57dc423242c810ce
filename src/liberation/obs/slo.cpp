#include "liberation/obs/slo.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "liberation/obs/flight_recorder.hpp"
#include "liberation/obs/obs.hpp"

namespace liberation::obs {

slo_engine::slo_engine(hub& h, std::vector<slo_objective> objectives,
                       std::uint64_t window_ns, std::size_t max_frames)
    : hub_(h),
      objectives_(std::move(objectives)),
      window_ns_(window_ns),
      max_frames_(std::max<std::size_t>(2, max_frames)) {
    status_.resize(objectives_.size());
    for (std::size_t i = 0; i < objectives_.size(); ++i) {
        status_[i].name = objectives_[i].name;
    }
}

slo_engine::frame slo_engine::capture() {
    frame f;
    f.ts_ns = hub_.now_ns();
    f.hists.resize(objectives_.size());
    f.num.resize(objectives_.size(), 0);
    f.den.resize(objectives_.size(), 0);
    auto& m = hub_.metrics();
    for (std::size_t i = 0; i < objectives_.size(); ++i) {
        const slo_objective& o = objectives_[i];
        if (o.kind == slo_objective::kind_t::latency_quantile) {
            f.hists[i] = m.get_histogram(o.source).snapshot();
        } else {
            f.num[i] = m.get_counter(o.source).value();
            f.den[i] = o.denominator.empty()
                           ? 0
                           : m.get_counter(o.denominator).value();
        }
    }
    return f;
}

const std::vector<slo_status>& slo_engine::evaluate() {
    if (objectives_.empty()) return status_;
    frame cur = capture();

    // Slide: the front frame is the baseline — the newest frame at or
    // before (now - window). Keep at least one frame as baseline.
    while (frames_.size() >= 2 && cur.ts_ns >= window_ns_ &&
           frames_[1].ts_ns <= cur.ts_ns - window_ns_) {
        frames_.pop_front();
    }
    while (frames_.size() >= max_frames_) frames_.pop_front();
    const frame& base = frames_.empty() ? cur : frames_.front();

    for (std::size_t i = 0; i < objectives_.size(); ++i) {
        const slo_objective& o = objectives_[i];
        slo_status& st = status_[i];
        std::uint64_t total = 0;
        std::uint64_t bad = 0;
        if (o.kind == slo_objective::kind_t::latency_quantile) {
            const auto& c = cur.hists[i];
            const auto& b = base.hists[i];
            total = c.count - b.count;
            std::uint64_t good = 0;
            for (std::size_t k = 0; k < latency_histogram::kBuckets; ++k) {
                if (latency_histogram::bucket_upper(k) > o.threshold_ns) {
                    break;
                }
                good += c.buckets[k] - b.buckets[k];
            }
            bad = total - std::min(good, total);
        } else {
            bad = cur.num[i] - base.num[i];
            total = cur.den[i] - base.den[i];
            if (o.denominator.empty()) total = std::max(total, bad);
        }
        st.window_total = total;
        st.window_bad = bad;
        st.bad_fraction =
            total == 0 ? 0.0
                       : static_cast<double>(bad) / static_cast<double>(total);
        if (o.budget <= 0.0) {
            // Zero budget: any bad event is an immediate page.
            st.burn_rate = bad != 0 ? 1000.0 : 0.0;
        } else {
            st.burn_rate = st.bad_fraction / o.budget;
        }
        st.budget_remaining = std::max(1.0 - st.burn_rate, -1000.0);
        const bool was = st.violated;
        st.violated = st.burn_rate > 1.0;
        if (st.violated) ever_violated_ = true;
        if (st.violated && !was) {
            flight_recorder::instance().record(
                fr_kind::slo_violation, cur.ts_ns,
                static_cast<std::uint32_t>(i), st.window_bad);
        }

        const std::string label = "objective=\"" + o.name + "\"";
        auto& m = hub_.metrics();
        m.get_labeled_gauge("slo_burn_rate_milli", label,
                            "per-objective burn rate x1000 (>1000 = "
                            "violating its error budget)")
            .set(static_cast<std::int64_t>(std::llround(
                std::min(st.burn_rate, 1e6) * 1000.0)));
        m.get_labeled_gauge("slo_budget_remaining_milli", label,
                            "per-objective remaining error budget x1000")
            .set(static_cast<std::int64_t>(
                std::llround(st.budget_remaining * 1000.0)));
        m.get_labeled_gauge("slo_violated", label,
                            "1 while the objective is out of budget")
            .set(st.violated ? 1 : 0);
    }

    frames_.push_back(std::move(cur));
    return status_;
}

bool slo_engine::all_ok() const noexcept {
    return std::none_of(status_.begin(), status_.end(),
                        [](const slo_status& s) { return s.violated; });
}

std::string slo_engine::text() const {
    std::string out;
    char buf[224];
    for (const slo_status& s : status_) {
        std::snprintf(buf, sizeof buf,
                      "slo %s: total=%llu bad=%llu burn=%.3f "
                      "budget_remaining=%.3f violated=%d\n",
                      s.name.c_str(),
                      static_cast<unsigned long long>(s.window_total),
                      static_cast<unsigned long long>(s.window_bad),
                      s.burn_rate, s.budget_remaining, s.violated ? 1 : 0);
        out += buf;
    }
    return out;
}

}  // namespace liberation::obs
