//===- support/Compiler.h - Compiler portability helpers --------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small compiler-portability macros. ST_ALWAYS_INLINE forces inlining of
/// per-event fast-path wrappers whose out-of-line call cost is measurable
/// (compilers decline to partial-inline comdat template members that they
/// happily split when the same code is a plain class; see the core impl
/// headers).
///
/// ST_CHECK(expr) guards invariants that sanitizers cannot see, such as a
/// use of a recycled arena record (ASan only watches the heap, and an arena
/// never returns its slots to it). It is active in builds without NDEBUG
/// and in sanitizer builds (CMake defines SMARTTRACK_SANITIZE there), and
/// compiles to nothing in Release and benchmark builds. A failed check
/// prints the expression and its location, then aborts.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_SUPPORT_COMPILER_H
#define SMARTTRACK_SUPPORT_COMPILER_H

#include <cstdio>
#include <cstdlib>

#if defined(__GNUC__) || defined(__clang__)
#define ST_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define ST_ALWAYS_INLINE inline
#endif

#if !defined(NDEBUG) || defined(SMARTTRACK_SANITIZE)
#define ST_CHECKS_ENABLED 1
#define ST_CHECK(X)                                                            \
  do {                                                                         \
    if (!(X))                                                                  \
      ::st::checkFailed(#X, __FILE__, __LINE__, __func__);                     \
  } while (0)
#else
#define ST_CHECKS_ENABLED 0
#define ST_CHECK(X)                                                            \
  do {                                                                         \
  } while (0)
#endif

namespace st {

/// Reports a failed ST_CHECK and aborts.
[[noreturn]] inline void checkFailed(const char *Expr, const char *File,
                                     int Line, const char *Function) {
  std::fprintf(stderr,
               "Check `%s` failed.\n  src location: %s:%d\n  function: %s\n",
               Expr, File, Line, Function);
  std::fflush(stderr);
  std::abort();
}

} // namespace st

#endif // SMARTTRACK_SUPPORT_COMPILER_H
