// Fused CRC32C + XOR kernel equivalence (the single-pass hot path).
//
// The fused blocked entry points (crc32c_blocks, copy_crc32c_blocks,
// xor_many_crc32c_blocks, xor_many_into_crc32c_blocks) must produce
// byte-identical regions AND checksums identical to the separate
// reference path (xor_many / memcpy followed by integrity::crc32c per
// block) on every dispatch tier, every pointer alignment, ragged sizes,
// and every fan-in across the pass split — the same grid discipline as
// test_xorops.cpp. The counting convention is pinned too: fusing the
// checksum into a traversal must not change any complexity figure.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "liberation/codes/stripe.hpp"
#include "liberation/core/liberation_optimal_code.hpp"
#include "liberation/core/optimal_encoder.hpp"
#include "liberation/integrity/crc32c.hpp"
#include "liberation/integrity/integrity_region.hpp"
#include "liberation/util/rng.hpp"
#include "liberation/xorops/xorops.hpp"

namespace {

using namespace liberation;

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
    std::vector<std::byte> v(n);
    util::xoshiro256 rng(seed);
    rng.fill(v);
    return v;
}

/// Reference: per-block CRC32C via the scalar one-shot routine.
std::vector<std::uint32_t> reference_crcs(const std::byte* p, std::size_t n,
                                          std::size_t block) {
    std::vector<std::uint32_t> out;
    for (std::size_t i = 0; i < n; i += block) {
        out.push_back(integrity::crc32c(p + i, block));
    }
    return out;
}

std::vector<xorops::xor_impl> available_impls() {
    std::vector<xorops::xor_impl> v;
    for (const auto impl :
         {xorops::xor_impl::scalar, xorops::xor_impl::avx2,
          xorops::xor_impl::avx512, xorops::xor_impl::neon}) {
        if (xorops::impl_available(impl)) v.push_back(impl);
    }
    return v;
}

class FusedImplSweep : public ::testing::TestWithParam<xorops::xor_impl> {};

// Checksum-only sweep: every alignment x size combination of the 3-lane
// split (lanes degenerate below 24 bytes) against the one-shot reference.
TEST_P(FusedImplSweep, Crc32cBlocksUnalignedGrid) {
    xorops::impl_scope scope(GetParam());
    for (std::size_t off = 0; off < 64; ++off) {
        for (std::size_t n = 1; n <= 129; ++n) {
            const auto buf = random_bytes(off + n, 100 + off * 7 + n);
            std::uint32_t got = 0xdeadbeef;
            xorops::crc32c_blocks(buf.data() + off, n, n, &got);
            ASSERT_EQ(got, integrity::crc32c(buf.data() + off, n))
                << "off=" << off << " n=" << n;
        }
    }
}

// Multi-block regions, including block sizes around the lane-combiner
// cache and large streaming runs.
TEST_P(FusedImplSweep, Crc32cBlocksMultiBlock) {
    xorops::impl_scope scope(GetParam());
    struct shape {
        std::size_t n, block;
    };
    for (const shape s : {shape{4096, 512}, shape{65536, 4096},
                          shape{24 * 40, 40}, shape{3 * 8192, 8192}}) {
        const auto buf = random_bytes(s.n, 7000 + s.n + s.block);
        std::vector<std::uint32_t> got(s.n / s.block, 0u);
        xorops::crc32c_blocks(buf.data(), s.n, s.block, got.data());
        ASSERT_EQ(got, reference_crcs(buf.data(), s.n, s.block))
            << "n=" << s.n << " block=" << s.block;
    }
}

// Fused copy: bytes identical to memcpy, checksums identical to the
// reference, across the alignment x size grid (guard bytes catch
// out-of-bounds stores).
TEST_P(FusedImplSweep, CopyCrcUnalignedGrid) {
    xorops::impl_scope scope(GetParam());
    constexpr std::size_t kPad = 256;
    for (std::size_t off = 0; off < 64; ++off) {
        for (std::size_t n = 1; n <= 129; ++n) {
            const auto src = random_bytes(off + n, 200 + off + 3 * n);
            auto dst = random_bytes(kPad + n + kPad, 300 + n);
            auto expected = dst;
            std::memcpy(expected.data() + kPad, src.data() + off, n);
            std::uint32_t got = 0;
            xorops::copy_crc32c_blocks(dst.data() + kPad, src.data() + off, n,
                                       n, &got);
            ASSERT_EQ(dst, expected) << "off=" << off << " n=" << n;
            ASSERT_EQ(got, integrity::crc32c(src.data() + off, n))
                << "off=" << off << " n=" << n;
        }
    }
}

// Fused xor_many / xor_many_into vs the separate path, fan-in 1..12 so
// both the single-pass and the split multi-pass shapes run, single- and
// multi-block checksum windows.
TEST_P(FusedImplSweep, XorManyCrcFanInSweep) {
    xorops::impl_scope scope(GetParam());
    ASSERT_GE(12u, xorops::max_fused_sources());
    struct shape {
        std::size_t n, block;
    };
    for (const shape sh : {shape{64, 64}, shape{129, 129}, shape{320, 64},
                           shape{4096, 512}}) {
        const std::size_t n = sh.n;
        std::vector<std::vector<std::byte>> bufs;
        std::vector<const std::byte*> srcs;
        for (std::size_t s = 0; s < 12; ++s) {
            bufs.push_back(random_bytes(n, 800 + 16 * n + s));
            srcs.push_back(bufs.back().data());
        }
        for (std::size_t fan = 1; fan <= 12; ++fan) {
            // Reference: plain xor_many, then per-block one-shot CRC.
            std::vector<std::byte> ref(n);
            xorops::xor_many(ref.data(), srcs.data(), fan, n);
            const auto ref_crcs = reference_crcs(ref.data(), n, sh.block);

            std::vector<std::byte> dst = random_bytes(n, 900 + fan);
            std::vector<std::uint32_t> got(n / sh.block, 0u);
            xorops::xor_many_crc32c_blocks(dst.data(), srcs.data(), fan, n,
                                           sh.block, got.data());
            ASSERT_EQ(dst, ref) << "fan=" << fan << " n=" << n;
            ASSERT_EQ(got, ref_crcs) << "fan=" << fan << " n=" << n;

            // Accumulating variant.
            auto acc = random_bytes(n, 901 + fan);
            auto ref_acc = acc;
            xorops::xor_many_into(ref_acc.data(), srcs.data(), fan, n);
            const auto ref_acc_crcs =
                reference_crcs(ref_acc.data(), n, sh.block);
            std::vector<std::uint32_t> got_acc(n / sh.block, 0u);
            xorops::xor_many_into_crc32c_blocks(acc.data(), srcs.data(), fan,
                                                n, sh.block, got_acc.data());
            ASSERT_EQ(acc, ref_acc) << "fan=" << fan << " n=" << n;
            ASSERT_EQ(got_acc, ref_acc_crcs) << "fan=" << fan << " n=" << n;
        }
    }
}

// nsrc == 0 on the accumulating variant degenerates to a pure checksum
// sweep of the existing destination bytes (no XOR work, no counts).
TEST_P(FusedImplSweep, XorManyIntoCrcZeroSources) {
    xorops::impl_scope scope(GetParam());
    const std::size_t n = 512, block = 128;
    auto dst = random_bytes(n, 1500);
    const auto before = dst;
    std::vector<std::uint32_t> got(n / block, 0u);
    xorops::counting_scope counts;
    xorops::xor_many_into_crc32c_blocks(dst.data(), nullptr, 0, n, block,
                                        got.data());
    EXPECT_EQ(dst, before);
    EXPECT_EQ(got, reference_crcs(dst.data(), n, block));
    EXPECT_EQ(counts.xors(), 0u);
    EXPECT_EQ(counts.copies(), 0u);
}

// Medium landings: with and without streaming stores, at every
// destination alignment and for lengths that are not multiples of 64, the
// destination receives exactly the source bytes (guard bytes around it
// unchanged), the words equal a separate sweep's, and nothing is counted.
TEST_P(FusedImplSweep, LandingCopiesAndChecksumsInOnePass) {
    xorops::impl_scope scope(GetParam());
    constexpr std::size_t kPad = 64;
    struct shape {
        std::size_t n, block;
    };
    for (const shape sh : {shape{16, 16}, shape{240, 16}, shape{1000, 8},
                           shape{3 * 4096 + 24, 12312},
                           shape{5 * 4096, 512}, shape{20480, 4096}}) {
        const auto src = random_bytes(sh.n + 63, 1700 + sh.n);
        for (const bool stream : {false, true}) {
            for (std::size_t doff = 0; doff < 64; doff += 5) {
                const std::byte* s = src.data() + doff % 7;
                auto dst = random_bytes(kPad + sh.n + kPad, 1800 + doff);
                auto expected = dst;
                std::memcpy(expected.data() + kPad + doff, s, sh.n);
                std::vector<std::uint32_t> got(sh.n / sh.block, 0u);
                xorops::counting_scope counts;
                xorops::land_crc32c_blocks(dst.data() + kPad + doff, s, sh.n,
                                           stream, sh.block, got.data());
                EXPECT_EQ(counts.copies(), 0u);
                ASSERT_EQ(dst, expected) << "n=" << sh.n << " doff=" << doff
                                         << " stream=" << stream;
                ASSERT_EQ(got, reference_crcs(s, sh.n, sh.block))
                    << "n=" << sh.n << " doff=" << doff
                    << " stream=" << stream;

                auto plain = random_bytes(kPad + sh.n + kPad, 1900 + doff);
                auto plain_expected = plain;
                std::memcpy(plain_expected.data() + kPad + doff, s, sh.n);
                xorops::land(plain.data() + kPad + doff, s, sh.n, stream);
                ASSERT_EQ(plain, plain_expected)
                    << "n=" << sh.n << " doff=" << doff
                    << " stream=" << stream;
            }
        }
    }
}

std::string impl_param_name(
    const ::testing::TestParamInfo<xorops::xor_impl>& info) {
    return xorops::impl_name(info.param);
}

INSTANTIATE_TEST_SUITE_P(Impls, FusedImplSweep,
                         ::testing::ValuesIn(available_impls()),
                         impl_param_name);

// ---------------------------------------------------------------------------
// Cross-implementation: forced scalar and the dispatched tier must agree
// on every checksum (the combiner math is tier-independent).

TEST(FusedDispatch, ScalarMatchesDispatched) {
    const std::size_t n = 4096, block = 256;
    const auto a = random_bytes(n, 2000);
    const auto b = random_bytes(n, 2001);
    const auto c = random_bytes(n, 2002);
    std::vector<const std::byte*> srcs{a.data(), b.data(), c.data()};

    auto run = [&](xorops::xor_impl impl) {
        xorops::impl_scope scope(impl);
        std::vector<std::byte> dst(n);
        std::vector<std::uint32_t> crcs(n / block, 0u);
        xorops::xor_many_crc32c_blocks(dst.data(), srcs.data(), srcs.size(),
                                       n, block, crcs.data());
        return std::pair{dst, crcs};
    };

    EXPECT_EQ(run(xorops::xor_impl::scalar), run(xorops::default_impl()));
}

// ---------------------------------------------------------------------------
// Counting convention: the fused variants must count exactly like the
// traversals they replace — checksum work is free, or every complexity
// figure would silently change.

TEST(FusedCounters, FusedCountsMatchUnfused) {
    const std::size_t n = 512, block = 128;
    std::vector<std::vector<std::byte>> bufs;
    std::vector<const std::byte*> srcs;
    for (std::size_t s = 0; s < 9; ++s) {  // crosses the 8-source pass split
        bufs.push_back(random_bytes(n, 3000 + s));
        srcs.push_back(bufs.back().data());
    }
    std::vector<std::byte> dst(n);
    std::vector<std::uint32_t> crcs(n / block);

    xorops::counting_scope scope;
    xorops::crc32c_blocks(dst.data(), n, block, crcs.data());
    EXPECT_EQ(scope.xors(), 0u);
    EXPECT_EQ(scope.copies(), 0u);

    xorops::reset_counters();
    xorops::copy_crc32c_blocks(dst.data(), srcs[0], n, block, crcs.data());
    auto stats = scope.snapshot();
    EXPECT_EQ(stats.copy_ops, 1u);
    EXPECT_EQ(stats.xor_ops, 0u);
    EXPECT_EQ(stats.bytes_copied, n);

    xorops::reset_counters();
    xorops::xor_many_crc32c_blocks(dst.data(), srcs.data(), 9, n, block,
                                   crcs.data());
    stats = scope.snapshot();
    EXPECT_EQ(stats.copy_ops, 1u);
    EXPECT_EQ(stats.xor_ops, 8u);
    EXPECT_EQ(stats.bytes_copied, n);
    EXPECT_EQ(stats.bytes_xored, 8 * n);

    xorops::reset_counters();
    xorops::xor_many_into_crc32c_blocks(dst.data(), srcs.data(), 9, n, block,
                                        crcs.data());
    stats = scope.snapshot();
    EXPECT_EQ(stats.copy_ops, 0u);
    EXPECT_EQ(stats.xor_ops, 9u);
    EXPECT_EQ(stats.bytes_xored, 9 * n);
}

// ---------------------------------------------------------------------------
// encode_crc: the fused encoder must reproduce encode()'s bytes, the
// reference checksums of both parity strips, and encode()'s exact
// counter deltas, across geometries and checksum granularities (window
// rounding included).

struct encode_case {
    std::uint32_t k, p;
    std::size_t elem, crc_block;
};

class EncodeCrcSweep : public ::testing::TestWithParam<encode_case> {};

TEST_P(EncodeCrcSweep, MatchesEncodePlusSweep) {
    const encode_case c = GetParam();
    core::liberation_optimal_code code(c.k, c.p);
    const std::uint32_t n = c.k + 2;

    codes::stripe_buffer ref_buf(code.rows(), n, c.elem);
    codes::stripe_buffer fused_buf(code.rows(), n, c.elem);
    util::xoshiro256 rng(42 + c.k + c.p + c.elem);
    for (std::uint32_t col = 0; col < c.k; ++col) {
        rng.fill(ref_buf.view().strip(col));
        std::memcpy(fused_buf.view().strip(col).data(),
                    ref_buf.view().strip(col).data(),
                    ref_buf.view().strip(col).size());
    }

    xorops::counting_scope scope;
    code.encode(ref_buf.view());
    const auto ref_stats = scope.snapshot();

    const std::size_t strip_blocks =
        static_cast<std::size_t>(code.rows()) * c.elem / c.crc_block;
    std::vector<std::uint32_t> p_crcs(strip_blocks, 0u);
    std::vector<std::uint32_t> q_crcs(strip_blocks, 0u);
    xorops::reset_counters();
    code.encode_crc(fused_buf.view(), c.crc_block, p_crcs.data(),
                    q_crcs.data());
    const auto fused_stats = scope.snapshot();

    for (std::uint32_t col = 0; col < n; ++col) {
        const auto ref = ref_buf.view().strip(col);
        const auto fused = fused_buf.view().strip(col);
        ASSERT_TRUE(std::equal(ref.begin(), ref.end(), fused.begin()))
            << "col=" << col;
    }
    const auto ps = ref_buf.view().strip(c.k);
    const auto qs = ref_buf.view().strip(c.k + 1);
    EXPECT_EQ(p_crcs, reference_crcs(ps.data(), ps.size(), c.crc_block));
    EXPECT_EQ(q_crcs, reference_crcs(qs.data(), qs.size(), c.crc_block));

    // The complexity-figure invariant: identical op multiset.
    EXPECT_EQ(fused_stats.xor_ops, ref_stats.xor_ops);
    EXPECT_EQ(fused_stats.copy_ops, ref_stats.copy_ops);
    EXPECT_EQ(fused_stats.bytes_xored, ref_stats.bytes_xored);
    EXPECT_EQ(fused_stats.bytes_copied, ref_stats.bytes_copied);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, EncodeCrcSweep,
    ::testing::Values(encode_case{4, 5, 4096, 512},    // windowed encode
                      encode_case{4, 5, 4096, 4096},   // block == element
                      encode_case{7, 7, 1024, 256},    // k == p
                      encode_case{1, 3, 512, 512},     // degenerate k=1
                      encode_case{5, 7, 8192, 4096},   // k < p, large elem
                      encode_case{10, 11, 2048, 1024},
                      // block > element: exercises the unfused fallback
                      // (encode + separate sweep) behind the same API.
                      encode_case{4, 5, 4096, 5 * 4096}),
    [](const ::testing::TestParamInfo<encode_case>& info) {
        const encode_case& c = info.param;
        return "k" + std::to_string(c.k) + "p" + std::to_string(c.p) + "e" +
               std::to_string(c.elem) + "b" + std::to_string(c.crc_block);
    });

// Forced-scalar encode_crc must equal the dispatched tier bit-for-bit.
TEST(EncodeCrcDispatch, ScalarMatchesDispatched) {
    core::liberation_optimal_code code(6, 7);
    const std::size_t elem = 4096, block = 512;
    const std::uint32_t n = 8;

    auto run = [&](xorops::xor_impl impl) {
        xorops::impl_scope scope(impl);
        codes::stripe_buffer buf(code.rows(), n, elem);
        util::xoshiro256 rng(99);
        for (std::uint32_t col = 0; col < 6; ++col) {
            rng.fill(buf.view().strip(col));
        }
        const std::size_t strip_blocks =
            static_cast<std::size_t>(code.rows()) * elem / block;
        std::vector<std::uint32_t> p_crcs(strip_blocks), q_crcs(strip_blocks);
        code.encode_crc(buf.view(), block, p_crcs.data(), q_crcs.data());
        std::vector<std::byte> parity(buf.view().strip(6).begin(),
                                      buf.view().strip(6).end());
        parity.insert(parity.end(), buf.view().strip(7).begin(),
                      buf.view().strip(7).end());
        return std::tuple{parity, p_crcs, q_crcs};
    };

    EXPECT_EQ(run(xorops::xor_impl::scalar), run(xorops::default_impl()));
}

// ---------------------------------------------------------------------------
// integrity_region fused-path semantics: install()ed words behave exactly
// like record()ed ones, matches() agrees with verify(), and
// verify_capture() returns the words verify computed.

TEST(IntegrityRegionFused, InstallMatchesCaptureRoundTrip) {
    const std::size_t block = 512, capacity = 8 * block;
    integrity::integrity_region region(capacity, block);
    const auto data = random_bytes(4 * block, 5000);

    // record() path as the reference.
    integrity::integrity_region ref(capacity, block);
    ref.record(block, data);

    // install() of externally computed words must be equivalent.
    const auto crcs = reference_crcs(data.data(), data.size(), block);
    region.install(block, crcs);
    for (std::size_t b = 0; b < capacity / block; ++b) {
        EXPECT_EQ(region.stored(b), ref.stored(b)) << "b=" << b;
    }
    EXPECT_TRUE(region.verify(block, data));
    EXPECT_TRUE(region.matches(block, crcs));

    // verify_capture: same verdict as verify(), words out even on
    // mismatch (the caller installs them after a repair writes back).
    std::vector<std::uint32_t> captured(crcs.size(), 0u);
    EXPECT_TRUE(region.verify_capture(block, data, captured.data()));
    EXPECT_EQ(captured, crcs);

    auto tampered = data;
    tampered[7] ^= std::byte{0x40};
    std::fill(captured.begin(), captured.end(), 0u);
    EXPECT_FALSE(region.verify_capture(block, tampered, captured.data()));
    EXPECT_EQ(captured,
              reference_crcs(tampered.data(), tampered.size(), block));
    EXPECT_FALSE(region.matches(block, captured));
    region.install(block, captured);
    EXPECT_TRUE(region.verify(block, tampered));
}

}  // namespace
