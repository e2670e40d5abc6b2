// speccheck fixture: a lint-ok marker with an empty justification
// (unjustified-suppression); it suppresses nothing.
namespace unxpec {

double
half(unsigned long cycles)
{
    float ratio = 0.5f; // lint-ok(float-cycle):
    return static_cast<double>(cycles) * ratio;
}

}  // namespace unxpec
