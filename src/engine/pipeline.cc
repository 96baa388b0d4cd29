#include "engine/pipeline.h"

#include <vector>

#include "common/cpu.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pctagg {

namespace {

// ---------------------------------------------------------------------------
// Vectorized divide.
// ---------------------------------------------------------------------------

#if defined(__x86_64__)
__attribute__((target("avx2"))) void DivideLanesAvx2(const double* a,
                                                     const double* b,
                                                     double* r, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(r + i, _mm256_div_pd(_mm256_loadu_pd(a + i),
                                          _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) r[i] = a[i] / b[i];
}
#endif

void DivideLanes(const double* a, const double* b, double* r, size_t n) {
#if defined(__x86_64__)
  if (CpuHasAvx2() && SimdEnabled()) {
    DivideLanesAvx2(a, b, r, n);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) r[i] = a[i] / b[i];
}

bool IsNumeric(const Column& c) {
  return c.type() == DataType::kInt64 || c.type() == DataType::kFloat64;
}

}  // namespace

Result<Column> PercentDivideColumns(const Column& num, const Column& den) {
  if (!IsNumeric(num) || !IsNumeric(den)) {
    return Status::TypeMismatch("percentage divide requires numeric operands");
  }
  const size_t n = num.size();
  std::vector<double> a(n), b(n), r(n);
  std::vector<uint8_t> ok(n);
  const uint8_t* nv = num.validity().data();
  const uint8_t* dv = den.validity().data();
  for (size_t i = 0; i < n; ++i) {
    // NULL slots hold placeholder payloads; reading them is fine because
    // `ok` masks those lanes out of the output.
    a[i] = num.NumericAt(i);
    b[i] = den.NumericAt(i);
    ok[i] = nv[i] != 0 && dv[i] != 0 && b[i] != 0.0;
  }
  DivideLanes(a.data(), b.data(), r.data(), n);
  Column out(DataType::kFloat64);
  out.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (ok[i]) {
      out.AppendFloat64(r[i]);
    } else {
      out.AppendNull();
    }
  }
  return out;
}

Result<Column> PercentDivideScalar(const Column& num, const Value& total) {
  if (!IsNumeric(num)) {
    return Status::TypeMismatch("percentage divide requires numeric operands");
  }
  const size_t n = num.size();
  Column out(DataType::kFloat64);
  out.Reserve(n);
  if (total.is_null() || total.AsDouble() == 0.0) {
    for (size_t i = 0; i < n; ++i) out.AppendNull();
    return out;
  }
  const double b = total.AsDouble();
  std::vector<double> a(n), bb(n, b), r(n);
  const uint8_t* nv = num.validity().data();
  for (size_t i = 0; i < n; ++i) a[i] = num.NumericAt(i);
  DivideLanes(a.data(), bb.data(), r.data(), n);
  for (size_t i = 0; i < n; ++i) {
    if (nv[i] != 0) {
      out.AppendFloat64(r[i]);
    } else {
      out.AppendNull();
    }
  }
  return out;
}

}  // namespace pctagg
