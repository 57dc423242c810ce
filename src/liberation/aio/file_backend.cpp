#include "liberation/aio/file_backend.hpp"

#include "liberation/util/assert.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace liberation::aio {

file_backend::file_backend(std::vector<std::string> paths,
                           std::size_t capacity,
                           const file_backend_config& cfg)
    : cfg_(cfg), capacity_(capacity) {
    fds_.reserve(paths.size());
    for (const std::string& path : paths) {
        int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
        if (fd >= 0) {
            // Size the file so the whole data area maps (reading zeros
            // where never written); an existing longer file is preserved.
            struct stat st{};
            const auto want =
                static_cast<off_t>(cfg_.data_offset + capacity_);
            if (::fstat(fd, &st) != 0 ||
                (st.st_size < want && ::ftruncate(fd, want) != 0)) {
                ::close(fd);
                fd = -1;
            }
        }
        fds_.push_back(fd);
    }
}

file_backend::~file_backend() {
    for (int fd : fds_) {
        if (fd >= 0) ::close(fd);
    }
}

bool file_backend::ok(std::uint32_t file) const noexcept {
    return file < fds_.size() && fds_[file] >= 0;
}

util::mapped_region file_backend::map_data(std::uint32_t file) const {
    LIBERATION_EXPECTS(cfg_.data_offset %
                           static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)) ==
                       0);
    if (!ok(file)) return {};
    return util::mapped_region::map_shared(fds_[file], cfg_.data_offset,
                                           capacity_);
}

util::mapped_region file_backend::map_meta(std::uint32_t file) {
    if (!ok(file) || cfg_.data_offset == 0 ||
        ::posix_fallocate(fds_[file], 0,
                          static_cast<off_t>(cfg_.data_offset)) != 0) {
        return {};
    }
    return util::mapped_region::map_shared(fds_[file], 0, cfg_.data_offset);
}

bool file_backend::preallocate_data(std::uint32_t file) {
    if (!ok(file)) return false;
    return ::posix_fallocate(fds_[file], static_cast<off_t>(cfg_.data_offset),
                             static_cast<off_t>(capacity_)) == 0;
}

bool file_backend::flush(std::uint32_t file) {
    if (!ok(file)) return false;
    return ::fdatasync(fds_[file]) == 0;
}

}  // namespace liberation::aio
