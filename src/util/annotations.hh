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

#endif // PRORAM_UTIL_ANNOTATIONS_HH
