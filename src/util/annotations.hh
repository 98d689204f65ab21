/**
 * @file
 * Source annotations consumed by the static-analysis layer
 * (tools/lint/oblivious_lint.py; DESIGN.md "Static analysis").
 *
 * Under clang the macros expand to `annotate` attributes so the
 * libclang engine sees them in the AST; under other compilers they
 * expand to nothing. The linter's fallback engine keys on the macro
 * tokens themselves, so the annotations work identically everywhere.
 *
 * - PRORAM_OBLIVIOUS: this function's control flow must not depend on
 *   secret state (Leaf / BlockId values). The linter flags any branch,
 *   loop bound, switch, or ternary whose condition data-depends on a
 *   secret-typed parameter, outside the allowlisted sentinel
 *   comparisons (== / != against kInvalidBlock / kInvalidLeaf, which
 *   gate dummy-slot handling that Path ORAM performs on every slot of
 *   every fetched bucket regardless of the access).
 *
 * - PRORAM_HOT: this function runs on the per-access hot path and
 *   must not allocate. The linter flags `new` expressions and
 *   growth calls (push_back / emplace_back / resize / reserve /
 *   insert / assign) on containers inside the body.
 *
 * - PRORAM_LINT_ALLOW(rule): suppress one diagnostic of @p rule on
 *   the same or the following source line, e.g.
 *   `// PRORAM_LINT_ALLOW(hot-alloc): one-time lazy init`.
 *   Suppressions are grep-able and reviewed like NOLINT.
 *
 * Thread-safety macros (PRORAM_CAPABILITY and friends) expand to
 * clang's Thread Safety Analysis attributes, so a clang build with
 * `-Wthread-safety -Werror` (the CI `thread-safety` job) statically
 * verifies util::ThreadPool's queue locking (util/mutex.hh). Under
 * gcc they expand to nothing. The only sanctioned per-function
 * opt-out is PRORAM_NO_THREAD_SAFETY_ANALYSIS, and every use must
 * carry a why-comment (condition-variable waits the analysis cannot
 * model).
 */

#ifndef PRORAM_UTIL_ANNOTATIONS_HH
#define PRORAM_UTIL_ANNOTATIONS_HH

#if defined(__clang__)
#define PRORAM_OBLIVIOUS __attribute__((annotate("proram_oblivious")))
#define PRORAM_HOT __attribute__((annotate("proram_hot")))
#else
#define PRORAM_OBLIVIOUS
#define PRORAM_HOT
#endif

/* Clang Thread Safety Analysis attribute surface. Kept to the subset
 * the codebase uses; see
 * https://clang.llvm.org/docs/ThreadSafetyAnalysis.html for semantics.
 */
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define PRORAM_TSA(x) __attribute__((x))
#endif
#endif
#ifndef PRORAM_TSA
#define PRORAM_TSA(x)
#endif

/** The annotated type is a lockable capability (util::Mutex). */
#define PRORAM_CAPABILITY(x) PRORAM_TSA(capability(x))
/** The annotated type is an RAII holder of a capability
 *  (util::ScopedLock). */
#define PRORAM_SCOPED_CAPABILITY PRORAM_TSA(scoped_lockable)
/** Data member readable/writable only while holding @p x. */
#define PRORAM_GUARDED_BY(x) PRORAM_TSA(guarded_by(x))
/** Function acquires the listed capabilities (held on return). */
#define PRORAM_ACQUIRE(...) PRORAM_TSA(acquire_capability(__VA_ARGS__))
/** Function releases the listed capabilities. */
#define PRORAM_RELEASE(...) PRORAM_TSA(release_capability(__VA_ARGS__))
/** Caller must NOT already hold the listed capabilities (deadlock
 *  guard for self-locking entry points). */
#define PRORAM_EXCLUDES(...) PRORAM_TSA(locks_excluded(__VA_ARGS__))
/** Escape hatch: body not analyzed. Every use needs a why-comment. */
#define PRORAM_NO_THREAD_SAFETY_ANALYSIS \
    PRORAM_TSA(no_thread_safety_analysis)

#endif // PRORAM_UTIL_ANNOTATIONS_HH
