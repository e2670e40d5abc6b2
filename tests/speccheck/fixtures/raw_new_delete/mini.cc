// speccheck fixture: naked new and delete (raw-new-delete).
namespace unxpec {

int
roundTrip()
{
    int *cell = new int(3);
    const int value = *cell;
    delete cell;
    return value;
}

}  // namespace unxpec
