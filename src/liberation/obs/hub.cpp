#include "liberation/obs/obs.hpp"

#include <map>

namespace liberation::obs {

std::uint64_t steady_now_ns(const void* /*ctx*/) noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

namespace {

/// `name{a="b"} v` -> `name{L,a="b"} v`; `name v` -> `name{L} v`.
std::string add_labels(const std::string& line, const std::string& labels) {
    const std::size_t end = line.find_first_of("{ ");
    if (end == std::string::npos) return line;
    if (line[end] == '{') {
        return line.substr(0, end + 1) + labels + ',' + line.substr(end + 1);
    }
    return line.substr(0, end) + '{' + labels + '}' + line.substr(end);
}

}  // namespace

std::string merged_metrics_text(const std::vector<metrics_part>& parts,
                                const std::string& prefix) {
    struct family {
        std::string header;  ///< # HELP (if any) + # TYPE
        std::string body;    ///< sample and exemplar lines of every part
    };
    std::vector<std::string> order;
    std::map<std::string, family> families;
    for (const metrics_part& p : parts) {
        const std::string text = p.h->metrics_text(prefix);
        std::string help;  // pending "# HELP" line of the next family
        family* cur = nullptr;
        std::size_t pos = 0;
        while (pos < text.size()) {
            std::size_t nl = text.find('\n', pos);
            if (nl == std::string::npos) nl = text.size();
            const std::string line = text.substr(pos, nl - pos);
            pos = nl + 1;
            if (line.rfind("# HELP ", 0) == 0) {
                help = line + '\n';
            } else if (line.rfind("# TYPE ", 0) == 0) {
                const std::size_t name_end = line.find(' ', 7);
                const std::string name = line.substr(7, name_end - 7);
                auto [it, fresh] = families.try_emplace(name);
                if (fresh) {
                    order.push_back(name);
                    it->second.header = help + line + '\n';
                }
                help.clear();
                cur = &it->second;
            } else if (cur != nullptr && !p.labels.empty() &&
                       line.rfind("# EXEMPLAR ", 0) == 0) {
                cur->body += "# EXEMPLAR " +
                             add_labels(line.substr(11), p.labels) + '\n';
            } else if (cur != nullptr) {
                cur->body += (p.labels.empty() || line.empty() || line[0] == '#'
                                  ? line
                                  : add_labels(line, p.labels)) +
                             '\n';
            }
        }
    }
    std::string out;
    for (const std::string& name : order) {
        out += families[name].header;
        out += families[name].body;
    }
    return out;
}

}  // namespace liberation::obs
