#include "asyrgs/sparse/csr.hpp"

namespace asyrgs {

// Anchor one instantiation of each supported policy in this TU so policy-set
// regressions (a member that fails to compile for the narrow width) surface
// here instead of in whichever consumer first touches the variant.
template class CsrMatrixT<std::int64_t, double>;
template class CsrMatrixT<std::int32_t, double>;

}  // namespace asyrgs
