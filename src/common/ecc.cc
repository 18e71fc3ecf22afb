#include "common/ecc.hh"

#include <array>
#include <bit>

namespace commguard
{

namespace
{

// Codeword layout: bit positions 1..38 use classic Hamming numbering
// (check bits at powers of two: 1, 2, 4, 8, 16, 32; data bits fill the
// remaining 32 positions in increasing order). Bit position 0 holds the
// overall parity bit that upgrades Hamming SEC to SECDED.
//
// The codec is table-driven; every table is built at compile time.
// Encoding is linear over GF(2): the codeword of a data word is the
// XOR of the codewords of its four bytes, so encode is four lookups.
// Decode takes the syndrome as six masked parities and gathers the
// data bits back with five per-byte tables. tests/ecc_test.cc holds a
// bit-by-bit reference codec that this one must match on every 64-bit
// input, not only on valid codewords.

constexpr int kPositions = 39;
constexpr int kCheckBits = 6;

constexpr bool
isPowerOfTwo(int x)
{
    return (x & (x - 1)) == 0;
}

/** Hamming position (non-power-of-2, 3..38) of each data bit 0..31. */
constexpr std::array<int, 32> kDataPosition = [] {
    std::array<int, 32> positions{};
    int seen = 0;
    for (int pos = 1; pos < kPositions; ++pos) {
        if (!isPowerOfTwo(pos))
            positions[seen++] = pos;
    }
    return positions;
}();

/**
 * Positions 1..38 covered by check bit 2^i: every position whose index
 * has bit i set. The check bit's own position is included, so the
 * parity of (code & mask) is syndrome bit i; the check bit is always
 * clear while encoding, so the same mask gives the check bit itself.
 */
constexpr std::array<EccWord, kCheckBits> kCheckMask = [] {
    std::array<EccWord, kCheckBits> masks{};
    for (int i = 0; i < kCheckBits; ++i) {
        for (int pos = 1; pos < kPositions; ++pos) {
            if (pos & (1 << i))
                masks[i] |= EccWord{1} << pos;
        }
    }
    return masks;
}();

constexpr int
parity(EccWord bits)
{
    return std::popcount(bits) & 1;
}

/** Full encode of one data word; only used to fill kEncodeTable. */
constexpr EccWord
encodeByParities(Word data)
{
    EccWord code = 0;
    for (int i = 0; i < 32; ++i) {
        if ((data >> i) & 1u)
            code |= EccWord{1} << kDataPosition[i];
    }
    for (int i = 0; i < kCheckBits; ++i)
        code |= EccWord(parity(code & kCheckMask[i])) << (1 << i);
    return code | EccWord(parity(code));
}

/** kEncodeTable[k][b]: codeword of the data word b << 8k. */
constexpr std::array<std::array<EccWord, 256>, 4> kEncodeTable = [] {
    std::array<std::array<EccWord, 256>, 4> table{};
    for (int k = 0; k < 4; ++k) {
        for (Word b = 0; b < 256; ++b)
            table[k][b] = encodeByParities(b << (8 * k));
    }
    return table;
}();

/**
 * kGatherTable[k][b]: the data bits held in codeword bits 8k..8k+7
 * when those bits equal b. Positions 0, the check bits and anything
 * at or above 39 contribute nothing.
 */
constexpr std::array<std::array<Word, 256>, 5> kGatherTable = [] {
    std::array<std::array<Word, 256>, 5> table{};
    for (int k = 0; k < 5; ++k) {
        for (int b = 0; b < 256; ++b) {
            for (int i = 0; i < 32; ++i) {
                const int pos = kDataPosition[i];
                if (pos / 8 == k && ((b >> (pos % 8)) & 1))
                    table[k][b] |= Word{1} << i;
            }
        }
    }
    return table;
}();

} // namespace

EccWord
eccEncode(Word data)
{
    return kEncodeTable[0][data & 0xffu] ^
           kEncodeTable[1][(data >> 8) & 0xffu] ^
           kEncodeTable[2][(data >> 16) & 0xffu] ^
           kEncodeTable[3][data >> 24];
}

EccDecode
eccDecode(EccWord code)
{
    int syndrome = 0;
    for (int i = 0; i < kCheckBits; ++i)
        syndrome |= parity(code & kCheckMask[i]) << i;

    // Overall parity spans the whole 64-bit container, so stray bits
    // at or above position 39 count toward it.
    const int overall = parity(code);

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

    result.data = kGatherTable[0][code & 0xffu] |
                  kGatherTable[1][(code >> 8) & 0xffu] |
                  kGatherTable[2][(code >> 16) & 0xffu] |
                  kGatherTable[3][(code >> 24) & 0xffu] |
                  kGatherTable[4][(code >> 32) & 0xffu];
    return result;
}

EccWord
eccFlipBit(EccWord code, int bit)
{
    return code ^ (EccWord{1} << bit);
}

} // namespace commguard
