// Loop-vectorization hint for the serving hot paths (LUT feature
// extraction's bank merge).
//
// PHISHINGHOOK_SIMD expands to `#pragma omp simd` when the build enables
// OpenMP SIMD pragmas (CMake adds -fopenmp-simd and defines
// PHISHINGHOOK_OPENMP_SIMD), and to nothing otherwise. The scalar loop is
// the *same source loop* either way: every annotated loop writes each
// iteration's outputs independently (no reductions, no reordered floating
// point), so vectorized and scalar builds are bit-identical — proven by
// the ci.sh -DPHISHINGHOOK_NO_SIMD=ON leg, which compiles with the pragma
// disabled and auto-vectorization off and re-runs the oracle suites.
#pragma once

#if defined(PHISHINGHOOK_NO_SIMD)
#define PHISHINGHOOK_SIMD
#elif defined(PHISHINGHOOK_OPENMP_SIMD) || defined(_OPENMP)
#define PHISHINGHOOK_SIMD _Pragma("omp simd")
#else
#define PHISHINGHOOK_SIMD
#endif
