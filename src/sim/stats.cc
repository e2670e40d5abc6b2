#include "sim/stats.hh"

#include <iomanip>

namespace unxpec {

std::string
StatGroup::fullName(const std::string &name) const
{
    return prefix_.empty() ? name : prefix_ + "." + name;
}

Counter &
StatGroup::counter(const std::string &name, const std::string &desc)
{
    const std::string full = fullName(name);
    auto it = counters_.find(full);
    if (it == counters_.end())
        // lint-ok(steady-alloc): amortized — first-touch insert only
        it = counters_.emplace(full, Counter(full, desc)).first;
    return it->second;
}

const Counter *
StatGroup::findCounter(const std::string &name) const
{
    auto it = counters_.find(fullName(name));
    return it == counters_.end() ? nullptr : &it->second;
}

void
StatGroup::resetAll()
{
    for (auto &[name, counter] : counters_)
        counter.reset();
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &[name, counter] : counters_) {
        os << std::left << std::setw(52) << name << " "
           << std::setw(16) << counter.value();
        if (!counter.desc().empty())
            os << " # " << counter.desc();
        os << "\n";
    }
}

} // namespace unxpec
