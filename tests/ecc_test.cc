/**
 * @file
 * Tests for the SECDED(39,32) codec protecting CommGuard headers and
 * shared queue pointers.
 */

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/ecc.hh"
#include "common/rng.hh"

namespace commguard
{
namespace
{

// Reference codec: the original bit-by-bit SECDED(39,32) encoder and
// decoder. The table-driven codec in common/ecc.cc must match it on
// every 64-bit input, not only on valid codewords.
//
// Codeword layout: bit positions 1..38 use classic Hamming numbering
// (check bits at powers of two: 1, 2, 4, 8, 16, 32; data bits fill the
// remaining 32 positions in increasing order). Bit position 0 holds the
// overall parity bit that upgrades Hamming SEC to SECDED.

constexpr int kPositions = 39;

bool
isPowerOfTwo(int x)
{
    return (x & (x - 1)) == 0;
}

/** Map data bit index (0..31) to its Hamming position (non-power-of-2). */
constexpr int
dataPosition(int data_bit)
{
    int pos = 0;
    int seen = -1;
    for (pos = 1; pos < kPositions; ++pos) {
        if (isPowerOfTwo(pos))
            continue;
        if (++seen == data_bit)
            return pos;
    }
    return -1;
}

EccWord
referenceEncode(Word data)
{
    EccWord code = 0;

    // Place data bits.
    for (int i = 0; i < 32; ++i) {
        if ((data >> i) & 1u)
            code |= EccWord{1} << dataPosition(i);
    }

    // Compute Hamming check bits (positions 1,2,4,8,16,32): check bit at
    // position p covers every position whose index has bit p set.
    for (int p = 1; p < kPositions; p <<= 1) {
        int parity = 0;
        for (int pos = 1; pos < kPositions; ++pos) {
            if ((pos & p) && !isPowerOfTwo(pos))
                parity ^= static_cast<int>((code >> pos) & 1u);
        }
        if (parity)
            code |= EccWord{1} << p;
    }

    // Overall parity over positions 1..38 stored at position 0.
    int overall = std::popcount(code >> 1) & 1;
    if (overall)
        code |= 1u;

    return code;
}

EccDecode
referenceDecode(EccWord code)
{
    // Recompute the syndrome.
    int syndrome = 0;
    for (int p = 1; p < kPositions; p <<= 1) {
        int parity = 0;
        for (int pos = 1; pos < kPositions; ++pos) {
            if (pos & p)
                parity ^= static_cast<int>((code >> pos) & 1u);
        }
        if (parity)
            syndrome |= p;
    }

    const int overall = std::popcount(code) & 1;

    EccDecode result;
    if (syndrome == 0 && overall == 0) {
        result.status = EccStatus::Clean;
    } else if (overall == 1) {
        // Odd number of flipped bits: correct the indicated position
        // (syndrome 0 with odd parity means the parity bit itself).
        if (syndrome < kPositions)
            code ^= EccWord{1} << syndrome;
        result.status = EccStatus::Corrected;
    } else {
        // Even number of flips with nonzero syndrome: uncorrectable.
        result.status = EccStatus::Uncorrectable;
    }

    // Extract data bits.
    Word data = 0;
    int seen = -1;
    for (int pos = 1; pos < kPositions; ++pos) {
        if (isPowerOfTwo(pos))
            continue;
        ++seen;
        if ((code >> pos) & 1u)
            data |= Word{1} << seen;
    }
    result.data = data;
    return result;
}

::testing::AssertionResult
sameEncode(Word data)
{
    const EccWord fast = eccEncode(data);
    const EccWord reference = referenceEncode(data);
    if (fast == reference)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << std::hex << "data 0x" << data << ": fast 0x" << fast
           << ", reference 0x" << reference;
}

::testing::AssertionResult
sameDecode(EccWord code)
{
    const EccDecode fast = eccDecode(code);
    const EccDecode reference = referenceDecode(code);
    if (fast.data == reference.data && fast.status == reference.status)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << std::hex << "code 0x" << code << ": fast {0x" << fast.data
           << ", status " << static_cast<int>(fast.status)
           << "}, reference {0x" << reference.data << ", status "
           << static_cast<int>(reference.status) << "}";
}

TEST(Ecc, CleanRoundtripZero)
{
    const EccDecode decoded = eccDecode(eccEncode(0));
    EXPECT_EQ(decoded.status, EccStatus::Clean);
    EXPECT_EQ(decoded.data, 0u);
}

TEST(Ecc, CleanRoundtripAllOnes)
{
    const EccDecode decoded = eccDecode(eccEncode(0xffffffffu));
    EXPECT_EQ(decoded.status, EccStatus::Clean);
    EXPECT_EQ(decoded.data, 0xffffffffu);
}

TEST(Ecc, CleanRoundtripWalkingOne)
{
    for (int bit = 0; bit < 32; ++bit) {
        const Word data = Word{1} << bit;
        const EccDecode decoded = eccDecode(eccEncode(data));
        EXPECT_EQ(decoded.status, EccStatus::Clean);
        EXPECT_EQ(decoded.data, data) << "bit " << bit;
    }
}

TEST(Ecc, CleanRoundtripRandomWords)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const Word data = rng.next32();
        const EccDecode decoded = eccDecode(eccEncode(data));
        EXPECT_EQ(decoded.status, EccStatus::Clean);
        EXPECT_EQ(decoded.data, data);
    }
}

/** Every single-bit flip in the codeword must be corrected. */
class EccSingleFlip : public ::testing::TestWithParam<int>
{
};

TEST_P(EccSingleFlip, Corrected)
{
    const int bit = GetParam();
    Rng rng(1234 + bit);
    for (int i = 0; i < 50; ++i) {
        const Word data = rng.next32();
        const EccWord corrupted = eccFlipBit(eccEncode(data), bit);
        const EccDecode decoded = eccDecode(corrupted);
        EXPECT_EQ(decoded.status, EccStatus::Corrected)
            << "bit " << bit;
        EXPECT_EQ(decoded.data, data) << "bit " << bit;
    }
}

INSTANTIATE_TEST_SUITE_P(AllCodewordBits, EccSingleFlip,
                         ::testing::Range(0, eccCodewordBits));

TEST(Ecc, DoubleFlipsDetected)
{
    Rng rng(99);
    for (int i = 0; i < 500; ++i) {
        const Word data = rng.next32();
        const int bit_a =
            static_cast<int>(rng.below(eccCodewordBits));
        int bit_b = static_cast<int>(rng.below(eccCodewordBits));
        while (bit_b == bit_a)
            bit_b = static_cast<int>(rng.below(eccCodewordBits));

        EccWord corrupted = eccEncode(data);
        corrupted = eccFlipBit(corrupted, bit_a);
        corrupted = eccFlipBit(corrupted, bit_b);
        const EccDecode decoded = eccDecode(corrupted);
        EXPECT_EQ(decoded.status, EccStatus::Uncorrectable)
            << "bits " << bit_a << "," << bit_b;
    }
}

TEST(Ecc, FlipBitIsInvolution)
{
    const EccWord code = eccEncode(0xdeadbeefu);
    EXPECT_EQ(eccFlipBit(eccFlipBit(code, 17), 17), code);
}

TEST(Ecc, DistinctDataDistinctCodewords)
{
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
        const Word a = rng.next32();
        const Word b = rng.next32();
        if (a != b) {
            EXPECT_NE(eccEncode(a), eccEncode(b));
        }
    }
}

/**
 * Fast codec against the reference on 10M seeded words, sharded over
 * 16 seeds so a parallel ctest spreads the reference work. Each word
 * is encoded by both codecs, and one variant of its codeword (clean,
 * one flip, two flips or an arbitrary 64-bit word) is decoded by both.
 */
class EccOracle : public ::testing::TestWithParam<int>
{
};

constexpr int kOracleShards = 16;
constexpr int kOracleWordsPerShard = 10'000'000 / kOracleShards;

TEST_P(EccOracle, FastMatchesReference)
{
    Rng rng(0xecc0'0000u + GetParam());
    for (int i = 0; i < kOracleWordsPerShard; ++i) {
        const Word data = rng.next32();
        ASSERT_TRUE(sameEncode(data));
        EccWord code = referenceEncode(data);
        switch (i % 4) {
          case 0:
            break;
          case 1:
            code = eccFlipBit(code, rng.below(eccCodewordBits));
            break;
          case 2: {
            const int bit_a = static_cast<int>(rng.below(eccCodewordBits));
            int bit_b = static_cast<int>(rng.below(eccCodewordBits - 1));
            if (bit_b >= bit_a)
                ++bit_b;
            code = eccFlipBit(eccFlipBit(code, bit_a), bit_b);
            break;
          }
          default:
            code = rng.next64();
            break;
        }
        ASSERT_TRUE(sameDecode(code));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EccOracle,
                         ::testing::Range(0, kOracleShards));

TEST(EccOracleFlips, EverySingleAndDoubleFlipMatchesReference)
{
    Rng rng(2024);
    int doubles = 0;
    for (int word = 0; word < 64; ++word) {
        const EccWord code = referenceEncode(rng.next32());
        ASSERT_TRUE(sameDecode(code));
        for (int a = 0; a < eccCodewordBits; ++a) {
            const EccWord single = eccFlipBit(code, a);
            ASSERT_TRUE(sameDecode(single)) << "bit " << a;
            for (int b = a + 1; b < eccCodewordBits; ++b) {
                ASSERT_TRUE(sameDecode(eccFlipBit(single, b)))
                    << "bits " << a << "," << b;
                if (word == 0)
                    ++doubles;
            }
        }
    }
    EXPECT_EQ(doubles, 741);
}

TEST(EccOracleFlips, ArbitraryWordsMatchReference)
{
    Rng rng(31337);
    for (int i = 0; i < 200'000; ++i)
        ASSERT_TRUE(sameDecode(rng.next64()));

    for (int word = 0; word < 32; ++word) {
        const EccWord code = referenceEncode(rng.next32());

        // Stray bits above the codeword flip only the overall parity:
        // one reads as a corrected parity bit, two as clean.
        for (int high = eccCodewordBits; high < 64; ++high) {
            const EccWord one = eccFlipBit(code, high);
            EXPECT_EQ(referenceDecode(one).status, EccStatus::Corrected);
            ASSERT_TRUE(sameDecode(one)) << "bit " << high;
            const int other = high == 63 ? eccCodewordBits : high + 1;
            const EccWord two = eccFlipBit(one, other);
            EXPECT_EQ(referenceDecode(two).status, EccStatus::Clean);
            ASSERT_TRUE(sameDecode(two)) << "bits " << high << "," << other;
        }

        // Syndromes >= 39 name no codeword position: with odd parity
        // the decoder reports Corrected but flips nothing, with even
        // parity Uncorrectable.
        for (int a = 1; a < eccCodewordBits; ++a) {
            for (int b = a + 1; b < eccCodewordBits; ++b) {
                if ((a ^ b) < eccCodewordBits)
                    continue;
                const EccWord even = eccFlipBit(eccFlipBit(code, a), b);
                EXPECT_EQ(referenceDecode(even).status,
                          EccStatus::Uncorrectable);
                ASSERT_TRUE(sameDecode(even)) << a << "," << b;
                const EccWord odd = eccFlipBit(even, 0);
                EXPECT_EQ(referenceDecode(odd).status,
                          EccStatus::Corrected);
                ASSERT_TRUE(sameDecode(odd)) << a << "," << b << ",0";
            }
        }
    }
}

} // namespace
} // namespace commguard
