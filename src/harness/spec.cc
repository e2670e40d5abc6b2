#include "harness/spec.hh"

#include <mutex>

#include "sim/log.hh"

namespace unxpec {

ExperimentSpec &
ExperimentSpec::with(const std::string &key, double value)
{
    params.emplace_back(key, value);
    return *this;
}

double
ExperimentSpec::param(const std::string &key, double fallback) const
{
    for (const auto &[name, value] : params) {
        if (name == key)
            return value;
    }
    return fallback;
}

namespace {

template <typename Factory>
struct Entry
{
    std::string name;
    std::string description;
    Factory factory;
};

/** Ordered name->factory table with replace-on-reregister semantics. */
template <typename Factory>
class Registry
{
  public:
    void
    add(const std::string &name, const std::string &description,
        Factory factory)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &entry : entries_) {
            if (entry.name == name) {
                entry.description = description;
                entry.factory = std::move(factory);
                return;
            }
        }
        entries_.push_back({name, description, std::move(factory)});
    }

    const Factory *
    find(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &entry : entries_) {
            if (entry.name == name)
                return &entry.factory;
        }
        return nullptr;
    }

    std::vector<std::pair<std::string, std::string>>
    names() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<std::pair<std::string, std::string>> out;
        for (const auto &entry : entries_)
            out.emplace_back(entry.name, entry.description);
        return out;
    }

  private:
    mutable std::mutex mutex_;
    std::vector<Entry<Factory>> entries_;
};

using NoiseFactory = std::function<NoiseProfile()>;
using AttackApply = std::function<void(UnxpecConfig &)>;

Registry<DefenseFactory> &
defenses()
{
    static Registry<DefenseFactory> registry;
    static std::once_flag once;
    std::call_once(once, [] {
        registry.add("unsafe", "no rollback: transient installs persist",
                     [] { return SystemConfig::makeUnsafeBaseline(); });
        registry.add("cleanup_l1", "CleanupSpec, L1-only invalidation",
                     [] {
                         SystemConfig cfg = SystemConfig::makeDefault();
                         cfg.cleanupMode = CleanupMode::Cleanup_FOR_L1;
                         return cfg;
                     });
        registry.add("cleanup_l1l2",
                     "CleanupSpec, L1+L2 invalidation (paper Table I)",
                     [] { return SystemConfig::makeDefault(); });
        registry.add("invisispec",
                     "InvisiSpec-style Invisible defense (MICRO'18)",
                     [] { return SystemConfig::makeInvisiSpec(); });
        registry.add("delay_on_miss",
                     "delay-on-miss Invisible defense (ISCA'19)",
                     [] { return SystemConfig::makeDelayOnMiss(); });
        registry.add("safespec",
                     "SafeSpec shadow-L1 defense (DAC'19): speculative "
                     "fills land in a shadow buffer, promoted at commit",
                     [] { return SystemConfig::makeSafeSpec(); });
        registry.add("specbox",
                     "label-based isolation: speculative lines tagged in "
                     "place, hidden from probes, flash-cleared on squash",
                     [] { return SystemConfig::makeSpecBox(); });
        registry.add("cachesquash",
                     "squash propagates into the MSHR: speculative fills "
                     "park in cancellable entries, no tags installed",
                     [] { return SystemConfig::makeCacheSquash(); });
        registry.add("noisy_host",
                     "CleanupSpec on the noisy-host profile (SVI-D)",
                     [] { return SystemConfig::makeNoisyHost(); });
        registry.add("cleanup_const65",
                     "CleanupSpec + 65-cycle constant-time rollback",
                     [] {
                         SystemConfig cfg = SystemConfig::makeDefault();
                         cfg.cleanupTiming.constantTimeCycles = 65;
                         return cfg;
                     });
        registry.add("cleanup_fuzzy40",
                     "CleanupSpec + fuzzy dummy-cleanup <=40 cycles (SVII)",
                     [] {
                         SystemConfig cfg = SystemConfig::makeDefault();
                         cfg.cleanupTiming.fuzzyMaxCycles = 40;
                         return cfg;
                     });
    });
    return registry;
}

Registry<NoiseFactory> &
noises()
{
    static Registry<NoiseFactory> registry;
    static std::once_flag once;
    std::call_once(once, [] {
        registry.add("quiet", "silent machine: deterministic timing",
                     [] { return NoiseProfile::quiet(); });
        registry.add("evaluation",
                     "light background activity (the paper's SVI setting)",
                     [] { return NoiseProfile::evaluation(); });
        registry.add("noisy_host",
                     "busy real host: DRAM jitter + interrupt stalls",
                     [] { return NoiseProfile::noisyHost(); });
    });
    return registry;
}

Registry<AttackApply> &
attacks()
{
    static Registry<AttackApply> registry;
    static std::once_flag once;
    std::call_once(once, [] {
        // The unXpec variants register themselves from the attack layer.
        for (const UnxpecVariant &variant : unxpecVariants()) {
            registry.add(variant.name, variant.description,
                         [apply = variant.apply](UnxpecConfig &cfg) {
                             apply(cfg);
                         });
        }
        registry.add("spectre_v1",
                     "Spectre v1 + Flush+Reload contrast baseline",
                     [](UnxpecConfig &) {});
        registry.add("contention",
                     "SpectreRewind FU-contention receiver: cache-free "
                     "channel through a non-pipelined multiplier",
                     [](UnxpecConfig &) {});
        // Secret-bearing victim programs (victim/victim.hh). Like
        // "contention", selection is by name: trial functions build a
        // VictimAttack directly, so there are no UnxpecConfig knobs.
        registry.add("victim-aes",
                     "AES-128 T-table first round: full key-byte "
                     "recovery through the Flush+Reload probe",
                     [](UnxpecConfig &) {});
        registry.add("victim-rsa",
                     "RSA square-and-multiply: exponent-bit recovery "
                     "through the multiplier-line reload",
                     [](UnxpecConfig &) {});
        registry.add("none", "no attack: workload-only experiments",
                     [](UnxpecConfig &) {});
    });
    return registry;
}

} // namespace

void
registerDefense(const std::string &name, const std::string &description,
                DefenseFactory factory)
{
    defenses().add(name, description, std::move(factory));
}

SystemConfig
makeDefense(const std::string &name)
{
    const DefenseFactory *factory = defenses().find(name);
    if (factory == nullptr)
        fatal("unknown defense mode '", name, "' (see --list-modes)");
    return (*factory)();
}

bool
knownDefense(const std::string &name)
{
    return defenses().find(name) != nullptr;
}

std::vector<std::pair<std::string, std::string>>
defenseNames()
{
    return defenses().names();
}

void
registerNoise(const std::string &name, const std::string &description,
              const NoiseProfile &profile)
{
    noises().add(name, description, [profile] { return profile; });
}

NoiseProfile
noiseProfile(const std::string &name)
{
    const NoiseFactory *factory = noises().find(name);
    if (factory == nullptr)
        fatal("unknown noise profile '", name, "' (see --list-modes)");
    return (*factory)();
}

bool
knownNoise(const std::string &name)
{
    return noises().find(name) != nullptr;
}

std::vector<std::pair<std::string, std::string>>
noiseNames()
{
    return noises().names();
}

void
applyAttackVariant(const std::string &name, UnxpecConfig &cfg)
{
    const AttackApply *apply = attacks().find(name);
    if (apply == nullptr)
        fatal("unknown attack variant '", name, "' (see --list-modes)");
    (*apply)(cfg);
}

bool
knownAttack(const std::string &name)
{
    return attacks().find(name) != nullptr;
}

std::vector<std::pair<std::string, std::string>>
attackNames()
{
    return attacks().names();
}

} // namespace unxpec
