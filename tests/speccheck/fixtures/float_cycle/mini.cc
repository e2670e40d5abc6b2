// speccheck fixture: a 32-bit float holding a latency (float-cycle).
namespace unxpec {

double
scaled(unsigned long latency)
{
    float ratio = 0.5f;
    return static_cast<double>(latency) * ratio;
}

}  // namespace unxpec
