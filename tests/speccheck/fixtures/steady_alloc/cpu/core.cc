// speccheck fixture: heap growth in a per-cycle file (steady-alloc).
// runStep() is a run-loop entry; dump() is cold but lives in a
// per-cycle file, so its growth site needs a justification too.
#include <memory>
#include <vector>

namespace unxpec {

class Core {
  public:
    void runStep();
    void dump();

  private:
    std::vector<int> log_;
    std::unique_ptr<int> scratch_;
};

void
Core::runStep()
{
    log_.push_back(1);
    scratch_ = std::make_unique<int>(2);
}

void
Core::dump()
{
    log_.push_back(0);
}

}  // namespace unxpec
