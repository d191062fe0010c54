#include "asyrgs/gen/laplacian.hpp"

#include <cmath>
#include <cstdint>

#include <limits>
#include <string>

#include "asyrgs/sparse/coo.hpp"

namespace asyrgs {

namespace {

/// a * b in index_t, or a thrown Error naming `who` when the product would
/// wrap.  Grid-dimension products are the one place these generators can
/// overflow *before* any positivity check sees a bad value — signed wrap is
/// UB and, where it happens to produce a positive n, would silently build
/// the wrong operator.  Callers guarantee a, b > 0.
index_t checked_mul(index_t a, index_t b, const char* who) {
  if (a > std::numeric_limits<index_t>::max() / b)
    throw Error(std::string(who) +
                ": grid dimensions overflow the index type");
  return a * b;
}

/// n rows at `stencil` entries each as a std::size_t reserve count, guarded
/// so the stencil multiple cannot wrap index_t (a 1D chain at n near
/// 2^63 / 3 passes the dimension checks but not this one).
std::size_t checked_reserve(index_t n, index_t stencil, const char* who) {
  if (n > std::numeric_limits<index_t>::max() / stencil)
    throw Error(std::string(who) +
                ": nonzero estimate overflows the index type");
  return static_cast<std::size_t>(stencil * n);
}

}  // namespace

template <class Index, class Value>
CsrMatrixT<Index, Value> laplacian_1d_as(index_t n) {
  require(n > 0, "laplacian_1d: n must be positive");
  CooBuilderT<Index, Value> b(n, n);
  b.reserve(checked_reserve(n, 3, "laplacian_1d"));
  for (index_t i = 0; i < n; ++i) {
    b.add(i, i, 2.0);
    if (i + 1 < n) {
      b.add(i, i + 1, -1.0);
      b.add(i + 1, i, -1.0);
    }
  }
  return b.to_csr();
}

CsrMatrix laplacian_1d(index_t n) {
  return laplacian_1d_as<std::int64_t, double>(n);
}

template <class Index, class Value>
CsrMatrixT<Index, Value> laplacian_2d_as(index_t nx, index_t ny, double ax,
                                         double ay) {
  require(nx > 0 && ny > 0, "laplacian_2d: grid dims must be positive");
  require(ax > 0.0 && ay > 0.0, "laplacian_2d: anisotropy must be positive");
  const index_t n = checked_mul(nx, ny, "laplacian_2d");
  CooBuilderT<Index, Value> b(n, n);
  b.reserve(checked_reserve(n, 5, "laplacian_2d"));
  auto id = [nx](index_t ix, index_t iy) { return iy * nx + ix; };
  for (index_t iy = 0; iy < ny; ++iy) {
    for (index_t ix = 0; ix < nx; ++ix) {
      const index_t me = id(ix, iy);
      b.add(me, me, 2.0 * ax + 2.0 * ay);
      if (ix > 0) b.add(me, id(ix - 1, iy), -ax);
      if (ix + 1 < nx) b.add(me, id(ix + 1, iy), -ax);
      if (iy > 0) b.add(me, id(ix, iy - 1), -ay);
      if (iy + 1 < ny) b.add(me, id(ix, iy + 1), -ay);
    }
  }
  return b.to_csr();
}

CsrMatrix laplacian_2d(index_t nx, index_t ny, double ax, double ay) {
  return laplacian_2d_as<std::int64_t, double>(nx, ny, ax, ay);
}

template <class Index, class Value>
CsrMatrixT<Index, Value> laplacian_3d_as(index_t nx, index_t ny, index_t nz) {
  require(nx > 0 && ny > 0 && nz > 0,
          "laplacian_3d: grid dims must be positive");
  const index_t n =
      checked_mul(checked_mul(nx, ny, "laplacian_3d"), nz, "laplacian_3d");
  CooBuilderT<Index, Value> b(n, n);
  b.reserve(checked_reserve(n, 7, "laplacian_3d"));
  auto id = [nx, ny](index_t ix, index_t iy, index_t iz) {
    return (iz * ny + iy) * nx + ix;
  };
  for (index_t iz = 0; iz < nz; ++iz) {
    for (index_t iy = 0; iy < ny; ++iy) {
      for (index_t ix = 0; ix < nx; ++ix) {
        const index_t me = id(ix, iy, iz);
        b.add(me, me, 6.0);
        if (ix > 0) b.add(me, id(ix - 1, iy, iz), -1.0);
        if (ix + 1 < nx) b.add(me, id(ix + 1, iy, iz), -1.0);
        if (iy > 0) b.add(me, id(ix, iy - 1, iz), -1.0);
        if (iy + 1 < ny) b.add(me, id(ix, iy + 1, iz), -1.0);
        if (iz > 0) b.add(me, id(ix, iy, iz - 1), -1.0);
        if (iz + 1 < nz) b.add(me, id(ix, iy, iz + 1), -1.0);
      }
    }
  }
  return b.to_csr();
}

CsrMatrix laplacian_3d(index_t nx, index_t ny, index_t nz) {
  return laplacian_3d_as<std::int64_t, double>(nx, ny, nz);
}

double laplacian_1d_eigenvalue(index_t n, index_t k) {
  require(k >= 1 && k <= n, "laplacian_1d_eigenvalue: k out of range");
  constexpr double pi = 3.14159265358979323846;
  return 2.0 - 2.0 * std::cos(static_cast<double>(k) * pi /
                              static_cast<double>(n + 1));
}

#define ASYRGS_INSTANTIATE_LAPLACIAN(Index, Value)                          \
  template CsrMatrixT<Index, Value> laplacian_1d_as<Index, Value>(index_t); \
  template CsrMatrixT<Index, Value> laplacian_2d_as<Index, Value>(          \
      index_t, index_t, double, double);                                    \
  template CsrMatrixT<Index, Value> laplacian_3d_as<Index, Value>(          \
      index_t, index_t, index_t);

ASYRGS_INSTANTIATE_LAPLACIAN(std::int64_t, double)
ASYRGS_INSTANTIATE_LAPLACIAN(std::int32_t, double)

#undef ASYRGS_INSTANTIATE_LAPLACIAN

}  // namespace asyrgs
