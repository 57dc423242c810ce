#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <vector>

#include "liberation/util/aligned_buffer.hpp"
#include "liberation/util/primes.hpp"
#include "liberation/util/rng.hpp"

namespace {

using namespace liberation::util;

TEST(Primes, SmallValues) {
    EXPECT_FALSE(is_prime(0));
    EXPECT_FALSE(is_prime(1));
    EXPECT_TRUE(is_prime(2));
    EXPECT_TRUE(is_prime(3));
    EXPECT_FALSE(is_prime(4));
    EXPECT_TRUE(is_prime(5));
    EXPECT_FALSE(is_prime(9));
    EXPECT_TRUE(is_prime(31));
    EXPECT_FALSE(is_prime(33));
    EXPECT_TRUE(is_prime(1021));
}

TEST(Primes, NextPrime) {
    EXPECT_EQ(next_prime(2), 2u);
    EXPECT_EQ(next_prime(4), 5u);
    EXPECT_EQ(next_prime(14), 17u);
    EXPECT_EQ(next_prime(23), 23u);
}

TEST(Primes, NextOddPrime) {
    EXPECT_EQ(next_odd_prime(1), 3u);
    EXPECT_EQ(next_odd_prime(2), 3u);
    EXPECT_EQ(next_odd_prime(3), 3u);
    EXPECT_EQ(next_odd_prime(4), 5u);
    EXPECT_EQ(next_odd_prime(24), 29u);
}

TEST(Primes, OddPrimesInRange) {
    const auto primes = odd_primes_in(3, 31);
    const std::vector<std::uint32_t> expected{3,  5,  7,  11, 13,
                                              17, 19, 23, 29, 31};
    EXPECT_EQ(primes, expected);
}

TEST(Primes, ModInverse) {
    for (std::uint32_t p : {3u, 5u, 7u, 11u, 13u, 31u}) {
        for (std::uint32_t a = 1; a < p; ++a) {
            const std::uint32_t inv = mod_inverse(a, p);
            EXPECT_EQ(a * inv % p, 1u) << "a=" << a << " p=" << p;
        }
    }
}

TEST(Rng, Deterministic) {
    xoshiro256 a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
    xoshiro256 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next()) ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
    xoshiro256 rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; ++i) {
            EXPECT_LT(rng.next_below(bound), bound);
        }
    }
}

TEST(Rng, FillCoversWholeBuffer) {
    xoshiro256 rng(9);
    std::vector<std::byte> buf(1031, std::byte{0});  // odd size: tail path
    rng.fill(buf);
    int nonzero = 0;
    for (auto b : buf) {
        if (b != std::byte{0}) ++nonzero;
    }
    EXPECT_GT(nonzero, 900);  // ~1/256 of bytes may be zero by chance
}

TEST(AlignedBuffer, AlignmentAndZeroInit) {
    aligned_buffer buf(100);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
    EXPECT_EQ(buf.size(), 100u);
    for (std::size_t i = 0; i < buf.size(); ++i) {
        EXPECT_EQ(buf.data()[i], std::byte{0});
    }
}

TEST(AlignedBuffer, CapacityRoundsUpTo64) {
    for (const std::size_t size : {1ul, 63ul, 64ul, 65ul, 100ul, 4096ul}) {
        aligned_buffer buf(size);
        EXPECT_GE(buf.capacity(), buf.size()) << "size=" << size;
        EXPECT_EQ(buf.capacity() % 64, 0u) << "size=" << size;
        EXPECT_LT(buf.capacity() - buf.size(), 64u) << "size=" << size;
        // The documented guarantee: padding bytes are allocated and zero,
        // so full-width vector loads over the tail are safe.
        for (std::size_t i = buf.size(); i < buf.capacity(); ++i) {
            EXPECT_EQ(buf.data()[i], std::byte{0}) << "i=" << i;
        }
    }
    EXPECT_EQ(aligned_buffer{}.capacity(), 0u);
}

TEST(AlignedBuffer, ZeroClearsPadding) {
    aligned_buffer buf(65);
    buf.data()[64] = std::byte{0xaa};  // dirty one padding byte
    buf.zero();
    for (std::size_t i = 0; i < buf.capacity(); ++i) {
        EXPECT_EQ(buf.data()[i], std::byte{0}) << "i=" << i;
    }
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
    aligned_buffer a(64);
    a.data()[0] = std::byte{42};
    aligned_buffer b(std::move(a));
    EXPECT_EQ(b.data()[0], std::byte{42});
    EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): spec'd empty
    a = std::move(b);
    EXPECT_EQ(a.data()[0], std::byte{42});
}

TEST(AlignedBuffer, SubspanBounds) {
    aligned_buffer buf(128);
    auto s = buf.subspan(64, 64);
    EXPECT_EQ(s.size(), 64u);
    EXPECT_EQ(s.data(), buf.data() + 64);
}

}  // namespace
