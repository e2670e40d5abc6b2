// speccheck fixture: the first element of an unordered_map depends on
// the hash order (unordered-iteration through begin()).
#include <unordered_map>

namespace unxpec {

class MiniIndex {
  public:
    int first() const { return table_.begin()->second; }

  private:
    std::unordered_map<int, int> table_;
};

}  // namespace unxpec
