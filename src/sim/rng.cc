#include "sim/rng.hh"

#include <cmath>

namespace unxpec {

namespace {

std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t s)
{
    seed(s);
}

std::uint64_t
Rng::deriveSeed(std::uint64_t master, std::uint64_t stream)
{
    // SplitMix64's k-th output is a pure function of its state:
    // out_k = mix(master + (k+1) * gamma). Jump straight to it.
    std::uint64_t x = master + stream * 0x9e3779b97f4a7c15ull;
    return splitMix64(x);
}

void
Rng::seed(std::uint64_t s)
{
    // Expand the single seed into the 256-bit state; SplitMix64 cannot
    // produce the all-zero state Xoshiro forbids.
    for (auto &word : state_)
        word = splitMix64(s);
    hasCachedGaussian_ = false;
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

std::uint64_t
Rng::range(std::uint64_t bound)
{
    // Lemire-style rejection to avoid modulo bias.
    std::uint64_t threshold = (-bound) % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::gaussian()
{
    if (hasCachedGaussian_) {
        hasCachedGaussian_ = false;
        return cachedGaussian_;
    }
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * M_PI * u2;
    cachedGaussian_ = radius * std::sin(angle);
    hasCachedGaussian_ = true;
    return radius * std::cos(angle);
}

} // namespace unxpec
