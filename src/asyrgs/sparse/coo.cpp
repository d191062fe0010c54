#include "asyrgs/sparse/coo.hpp"

namespace asyrgs {

// Anchor one instantiation per supported storage policy (see csr.cpp).
template class CooBuilderT<std::int64_t, double>;
template class CooBuilderT<std::int32_t, double>;

}  // namespace asyrgs
