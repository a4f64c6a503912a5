#include "ecc/data_ecc.hh"

#include <sstream>

namespace aiecc
{

Burst
DataEcc::encode(const BitVec &data, uint32_t mtbAddr) const
{
    Burst out;
    out.setData(data);
    encodeBurst(out, mtbAddr);
    return out;
}

std::string
EccResult::describe() const
{
    std::ostringstream out;
    switch (status) {
      case EccStatus::Clean:
        out << "clean";
        break;
      case EccStatus::Corrected:
        out << "corrected " << symbolsCorrected << " symbol"
            << (symbolsCorrected == 1 ? "" : "s");
        break;
      case EccStatus::Uncorrectable:
        out << "uncorrectable";
        break;
    }
    if (addressError)
        out << " (address)";
    if (recoveredAddress)
        out << " diagnosed @0x" << std::hex << *recoveredAddress;
    return out.str();
}

} // namespace aiecc
