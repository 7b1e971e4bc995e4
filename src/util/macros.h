#ifndef GISTCR_UTIL_MACROS_H_
#define GISTCR_UTIL_MACROS_H_

#include <cstdio>
#include <cstdlib>

/// \file
/// Project-wide assertion and helper macros.

/// Aborts the process with a message when \p cond is false. Used for internal
/// invariants that indicate a programming error (never for user errors, which
/// are reported through Status).
#define GISTCR_CHECK(cond)                                                 \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "GISTCR_CHECK failed at %s:%d: %s\n", __FILE__, \
                   __LINE__, #cond);                                       \
      std::abort();                                                        \
    }                                                                      \
  } while (0)

/// 1 in ThreadSanitizer builds (GCC defines __SANITIZE_THREAD__; Clang
/// reports the feature), else 0.
#if defined(__SANITIZE_THREAD__)
#define GISTCR_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GISTCR_TSAN 1
#endif
#endif
#ifndef GISTCR_TSAN
#define GISTCR_TSAN 0
#endif

/// Like GISTCR_CHECK but compiled out in NDEBUG builds; for hot paths.
#ifdef NDEBUG
#define GISTCR_DCHECK(cond) \
  do {                      \
  } while (0)
#else
#define GISTCR_DCHECK(cond) GISTCR_CHECK(cond)
#endif

/// Propagates a non-OK Status from the current function.
#define GISTCR_RETURN_IF_ERROR(expr)             \
  do {                                           \
    ::gistcr::Status _st = (expr);               \
    if (!_st.ok()) return _st;                   \
  } while (0)

#define GISTCR_DISALLOW_COPY_AND_ASSIGN(Type) \
  Type(const Type&) = delete;                 \
  Type& operator=(const Type&) = delete

#endif  // GISTCR_UTIL_MACROS_H_
