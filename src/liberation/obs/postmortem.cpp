#include "liberation/obs/postmortem.hpp"

#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "liberation/obs/flight_recorder.hpp"
#include "liberation/obs/obs.hpp"

namespace liberation::obs {

namespace {

bool ensure_dir(const std::string& path) {
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0) return S_ISDIR(st.st_mode);
    // Create missing parents too: bundle roots are often nested paths
    // that don't exist yet (LIBERATION_POSTMORTEM_DIR=artifacts/pm).
    const std::size_t slash = path.find_last_of('/');
    if (slash != std::string::npos && slash != 0) {
        if (!ensure_dir(path.substr(0, slash))) return false;
    }
    if (::mkdir(path.c_str(), 0755) == 0) return true;
    return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

bool write_file(const std::string& path, const std::string& body) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    const bool ok =
        body.empty() || std::fwrite(body.data(), 1, body.size(), f) ==
                            body.size();
    return std::fclose(f) == 0 && ok;
}

/// JSON string escaping for the manifest (reasons/errors may hold
/// arbitrary text from mount reports).
std::string jesc(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

}  // namespace

std::string write_postmortem(const std::string& dir,
                             const postmortem_bundle& b) {
    if (!ensure_dir(dir)) return "";
    const flight_recorder& fr = flight_recorder::instance();

    std::string files = "\"flight_recorder.log\"";
    if (!write_file(dir + "/flight_recorder.log", fr.text())) return "";
    const auto section = [&](const char* name, const std::string& body) {
        if (body.empty()) return true;
        if (!write_file(dir + "/" + name, body)) return false;
        files += ",\"";
        files += name;
        files += '"';
        return true;
    };
    if (!section("metrics.prom", b.metrics_text)) return "";
    if (!section("trace.json", b.trace_json)) return "";
    if (!section("census.txt", b.census_text)) return "";
    if (!section("slo.txt", b.slo_text)) return "";

    char head[256];
    std::snprintf(head, sizeof head,
                  "{\"reason\":\"%s\",\"flight_records\":%llu,"
                  "\"flight_dropped\":%llu,\"files\":[",
                  jesc(b.reason).c_str(),
                  static_cast<unsigned long long>(fr.total()),
                  static_cast<unsigned long long>(fr.dropped()));
    std::string tail = "]";
    if (b.first_bad_op) {
        char bad[192];
        std::snprintf(bad, sizeof bad,
                      ",\"first_bad_op\":{\"op\":%llu,\"addr\":%llu,"
                      "\"len\":%llu,\"trace_id\":%llu}",
                      static_cast<unsigned long long>(b.first_bad_op->op),
                      static_cast<unsigned long long>(b.first_bad_op->addr),
                      static_cast<unsigned long long>(b.first_bad_op->len),
                      static_cast<unsigned long long>(
                          b.first_bad_op->trace_id));
        tail += bad;
    }
    if (!write_file(dir + "/MANIFEST.json",
                    std::string(head) + files + tail + "}\n")) {
        return "";
    }
    return dir;
}

std::string auto_postmortem(const std::string& reason, hub* h,
                            postmortem_bundle b) {
    const char* root = std::getenv("LIBERATION_POSTMORTEM_DIR");
    if (root == nullptr || root[0] == '\0') return "";
    if (!ensure_dir(root)) return "";
    b.reason = reason;
    if (h != nullptr) {
        if (b.metrics_text.empty()) b.metrics_text = h->metrics_text();
        if (b.trace_json.empty()) b.trace_json = h->trace_json();
    }
    static std::atomic<std::uint64_t> seq{0};
    const std::uint64_t n = seq.fetch_add(1, std::memory_order_relaxed);
    return write_postmortem(
        std::string(root) + "/" + reason + "-" + std::to_string(n), b);
}

}  // namespace liberation::obs
