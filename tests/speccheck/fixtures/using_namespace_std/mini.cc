// speccheck fixture: using namespace std (using-namespace-std).
#include <string>

using namespace std;

namespace unxpec {

string
label()
{
    return "mini";
}

}  // namespace unxpec
