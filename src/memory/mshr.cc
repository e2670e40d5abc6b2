#include "memory/mshr.hh"

#include <algorithm>

#include "sim/log.hh"

namespace unxpec {

void
MshrFile::release(Cycle now)
{
    std::erase_if(entries_, [now](const MshrEntry &e) {
        return e.readyCycle <= now;
    });
}

MshrEntry *
MshrFile::find(Addr line_addr)
{
    for (auto &entry : entries_) {
        if (entry.lineAddr == line_addr)
            return &entry;
    }
    return nullptr;
}

const MshrEntry *
MshrFile::find(Addr line_addr) const
{
    return const_cast<MshrFile *>(this)->find(line_addr);
}

MshrEntry &
MshrFile::allocate(Addr line_addr, Cycle ready, bool speculative,
                   SeqNum installer)
{
    if (full())
        panic("MshrFile::allocate on full file");
    MshrEntry entry;
    entry.lineAddr = line_addr;
    entry.readyCycle = ready;
    entry.speculative = speculative;
    entry.installer = installer;
    entry.targets = 1;
    // lint-ok(steady-alloc): reserved to capacity, full() checked above
    entries_.push_back(entry);
    return entries_.back();
}

bool
MshrFile::squash(Addr line_addr)
{
    const auto before = entries_.size();
    std::erase_if(entries_, [line_addr](const MshrEntry &e) {
        return e.lineAddr == line_addr;
    });
    return entries_.size() != before;
}

bool
MshrFile::cancel(Addr line_addr, SeqNum installer)
{
    const auto before = entries_.size();
    std::erase_if(entries_, [line_addr, installer](const MshrEntry &e) {
        return e.lineAddr == line_addr && e.speculative &&
               e.installer == installer;
    });
    return entries_.size() != before;
}

Cycle
MshrFile::earliestReady() const
{
    Cycle earliest = kCycleNever;
    for (const auto &entry : entries_)
        earliest = std::min(earliest, entry.readyCycle);
    return earliest;
}

} // namespace unxpec
