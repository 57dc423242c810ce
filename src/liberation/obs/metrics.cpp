#include "liberation/obs/metrics.hpp"

#include <stdexcept>

namespace liberation::obs {

registry::entry& registry::get_entry(const std::string& name, kind k,
                                     std::string help) {
    return get_entry_impl(name, "", "", k, std::move(help));
}

registry::entry& registry::get_entry_impl(const std::string& name,
                                          const std::string& family,
                                          const std::string& labels, kind k,
                                          std::string help,
                                          const counter* link) {
    std::lock_guard lock(mutex_);
    auto it = metrics_.find(name);
    if (it == metrics_.end()) {
        entry e;
        e.k = k;
        e.help = std::move(help);
        e.family = family;
        e.labels = labels;
        switch (k) {
            case kind::counter_k:
                e.c = std::make_unique<counter>();
                break;
            case kind::link_k:
                e.link = link;
                break;
            case kind::gauge_k:
                e.g = std::make_unique<gauge>();
                break;
            case kind::histogram_k:
                e.h = std::make_unique<latency_histogram>();
                break;
        }
        it = metrics_.emplace(name, std::move(e)).first;
    } else if (it->second.k != k) {
        throw std::logic_error("obs::registry: metric '" + name +
                               "' registered with a different kind");
    }
    return it->second;
}

registry::entry& registry::get_labeled_entry(const std::string& family,
                                             const std::string& labels,
                                             kind k, std::string help,
                                             const counter* link) {
    return get_entry_impl(family + "{" + labels + "}", family, labels, k,
                          std::move(help), link);
}

counter& registry::get_counter(const std::string& name, std::string help) {
    return *get_entry(name, kind::counter_k, std::move(help)).c;
}

counter& registry::get_labeled_counter(const std::string& family,
                                       const std::string& labels,
                                       std::string help) {
    return *get_labeled_entry(family, labels, kind::counter_k, std::move(help))
                .c;
}

void registry::link_counter(const std::string& family,
                            const std::string& labels, const counter& source,
                            std::string help) {
    if (labels.empty()) {
        (void)get_entry_impl(family, "", "", kind::link_k, std::move(help),
                             &source);
    } else {
        (void)get_labeled_entry(family, labels, kind::link_k, std::move(help),
                                &source);
    }
}

gauge& registry::get_labeled_gauge(const std::string& family,
                                   const std::string& labels,
                                   std::string help) {
    return *get_labeled_entry(family, labels, kind::gauge_k, std::move(help))
                .g;
}

gauge& registry::get_gauge(const std::string& name, std::string help) {
    return *get_entry(name, kind::gauge_k, std::move(help)).g;
}

latency_histogram& registry::get_histogram(const std::string& name,
                                           std::string help) {
    return *get_entry(name, kind::histogram_k, std::move(help)).h;
}

std::string registry::metrics_text(const std::string& prefix) const {
    std::lock_guard lock(mutex_);
    std::string out;
    out.reserve(metrics_.size() * 128);
    const auto line = [&out](const std::string& name, std::uint64_t v) {
        out += name;
        out += ' ';
        out += std::to_string(v);
        out += '\n';
    };
    std::string last_labeled_family;
    for (const auto& [name, e] : metrics_) {
        if (!e.family.empty()) {
            // Labeled series: one header per family (series are
            // contiguous in map order), then family{labels} samples.
            const std::string fam = prefix + e.family;
            if (e.family != last_labeled_family) {
                last_labeled_family = e.family;
                if (!e.help.empty()) {
                    out += "# HELP " + fam + ' ' + e.help + '\n';
                }
                out += "# TYPE " + fam +
                       (e.k == kind::gauge_k ? " gauge\n" : " counter\n");
            }
            out += fam + '{' + e.labels + '}';
            out += ' ';
            out += e.k == kind::gauge_k ? std::to_string(e.g->value())
                                        : std::to_string(e.count());
            out += '\n';
            continue;
        }
        const std::string full = prefix + name;
        if (!e.help.empty()) {
            out += "# HELP " + full + ' ' + e.help + '\n';
        }
        switch (e.k) {
            case kind::counter_k:
            case kind::link_k:
                out += "# TYPE " + full + " counter\n";
                line(full, e.count());
                break;
            case kind::gauge_k:
                out += "# TYPE " + full + " gauge\n";
                out += full;
                out += ' ';
                out += std::to_string(e.g->value());
                out += '\n';
                break;
            case kind::histogram_k: {
                const latency_histogram::snapshot_t s = e.h->snapshot();
                out += "# TYPE " + full + " summary\n";
                line(full + "{quantile=\"0.5\"}", s.p50);
                line(full + "{quantile=\"0.95\"}", s.p95);
                line(full + "{quantile=\"0.99\"}", s.p99);
                line(full + "_sum", s.sum);
                line(full + "_count", s.count);
                out += "# TYPE " + full + "_max gauge\n";
                line(full + "_max", s.max);
                // Exemplar as a comment line: links the tail to a causal
                // trace id without adding a sample line scrapers must
                // understand (the classic text format has no exemplars).
                if (const std::uint64_t ex = e.h->exemplar_trace(); ex != 0) {
                    out += "# EXEMPLAR " + full + " trace_id=" +
                           std::to_string(ex) + " value=" +
                           std::to_string(e.h->exemplar_value()) + '\n';
                }
                break;
            }
        }
    }
    return out;
}

std::vector<std::pair<std::string, latency_histogram::snapshot_t>>
registry::histogram_snapshots() const {
    std::lock_guard lock(mutex_);
    std::vector<std::pair<std::string, latency_histogram::snapshot_t>> out;
    for (const auto& [name, e] : metrics_) {
        if (e.k == kind::histogram_k) {
            out.emplace_back(name, e.h->snapshot());
        }
    }
    return out;
}

}  // namespace liberation::obs
