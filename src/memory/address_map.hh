/**
 * @file
 * Set-index functions. The conventional mapping uses the low line bits;
 * the CEASER-style mapping (Qureshi, MICRO'18) encrypts the line
 * address with a keyed permutation before indexing, which CleanupSpec
 * adopts on lower-level caches in lieu of restoration.
 *
 * SetIndexer is the one implementation: a concrete enum-dispatched
 * indexer that inlines the common modulo case into Cache::probe and
 * friends.
 */

#ifndef UNXPEC_MEMORY_ADDRESS_MAP_HH
#define UNXPEC_MEMORY_ADDRESS_MAP_HH

#include <cstdint>

#include "sim/config.hh"
#include "sim/types.hh"

namespace unxpec {

namespace detail {

/** Simple keyed mixing function for one Feistel round. */
inline std::uint32_t
feistelRound(std::uint32_t half, std::uint64_t key)
{
    std::uint64_t x = half ^ key;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 29;
    return static_cast<std::uint32_t>(x);
}

/** Expand a CEASER key into the four Feistel round keys. */
inline void
expandCeaserKeys(std::uint64_t key, std::uint64_t (&round_keys)[4])
{
    std::uint64_t k = key ? key : 0xdeadbeefcafef00dull;
    for (auto &round_key : round_keys) {
        k = k * 6364136223846793005ull + 1442695040888963407ull;
        round_key = k;
    }
}

/** 4-round Feistel permutation of a 64-bit line number. */
inline std::uint64_t
ceaserPermute(std::uint64_t line_number, const std::uint64_t (&keys)[4])
{
    auto left = static_cast<std::uint32_t>(line_number >> 32);
    auto right = static_cast<std::uint32_t>(line_number);
    for (const auto round_key : keys) {
        const std::uint32_t next = left ^ feistelRound(right, round_key);
        left = right;
        right = next;
    }
    return (static_cast<std::uint64_t>(left) << 32) | right;
}

} // namespace detail

/**
 * Set indexer used on the cache hot path. Dispatch is a predictable
 * branch on a two-value enum, and the common case (modulo indexing over
 * a power-of-two set count) is a single AND that the compiler inlines
 * into probe()/install(). The CEASER policy (a 4-round Feistel network
 * over the 64-bit line number under a secret key) is bijective, so
 * distinct lines never alias more than the modulo itself introduces.
 * rekey() supports Core::reset re-deriving seed-dependent CEASER keys
 * without reallocating the owning cache.
 */
class SetIndexer
{
  public:
    SetIndexer(IndexPolicy policy, unsigned num_sets, std::uint64_t key)
        : policy_(policy), numSets_(num_sets),
          powerOfTwo_(num_sets != 0 && (num_sets & (num_sets - 1)) == 0),
          setMask_(num_sets - 1)
    {
        detail::expandCeaserKeys(key, roundKeys_);
    }

    /** Set index for a line address (offset bits already stripped). */
    unsigned
    set(Addr line_addr) const
    {
        std::uint64_t line = lineNumber(line_addr);
        if (policy_ != IndexPolicy::Modulo)
            line = detail::ceaserPermute(line, roundKeys_);
        if (powerOfTwo_)
            return static_cast<unsigned>(line & setMask_);
        return static_cast<unsigned>(line % numSets_);
    }

    /** The keyed permutation itself (exposed for tests). */
    std::uint64_t
    permute(std::uint64_t line_number) const
    {
        return detail::ceaserPermute(line_number, roundKeys_);
    }

    /** Re-derive the CEASER round keys from a new key (Core::reset). */
    void rekey(std::uint64_t key) { detail::expandCeaserKeys(key, roundKeys_); }

    IndexPolicy policy() const { return policy_; }
    unsigned numSets() const { return numSets_; }

  private:
    IndexPolicy policy_;
    unsigned numSets_;
    bool powerOfTwo_;
    std::uint64_t setMask_;
    std::uint64_t roundKeys_[4];
};

} // namespace unxpec

#endif // UNXPEC_MEMORY_ADDRESS_MAP_HH
