/* The serial RL loop of repro.numeric.rl, compiled: one call factorizes a
 * whole arena in place.
 *
 * For each supernode s, left to right: ?potrf on the w x w diagonal block,
 * ?trsm on the b x w rectangle below it, ?syrk of the rectangle into the
 * b x b workspace u (lower triangle), then u subtracted from the ancestors
 * through the pattern's assembly index (repro.symbolic.relind):
 *
 *   flat form    arena[dst[k]] -= u[src[k]]     for k in fptr[s] .. fptr[s+1]
 *   block form   one rectangle per piece        for pieces pptr[s] .. pptr[s+1]
 *
 * A piece is the row (base, ld, r0, r1, c0, c1, i0, i1, j0, j1) of the index's
 * piece table: arena[base + r0 + c0 * ld ...] (leading dimension ld) minus
 * u[i0:i1, j0:j1].  The Python body subtracts a piece's entries above u's
 * diagonal too, where f2py's ?syrk left zeros; x - 0 is x, so skipping them
 * here gives the same bits without clearing u.
 *
 * Panels are F-ordered (m, w) at arena + off[s]: the BLAS routines work on
 * them in place with leading dimension m.  The routines are the caller's
 * (scipy.linalg.cython_blas / cython_lapack, the same library the f2py
 * wrappers call), so each supernode runs the Python body's arithmetic.
 *
 * Returns -1, or the supernode whose ?potrf failed with its info in *info.
 */
#include <stdint.h>

#define RL_LOOP(NAME, REAL)                                                         \
    typedef void NAME##_potrf(char *, int *, REAL *, int *, int *);                 \
    typedef void NAME##_trsm(char *, char *, char *, char *, int *, int *, REAL *,  \
                             REAL *, int *, REAL *, int *);                         \
    typedef void NAME##_syrk(char *, char *, int *, int *, REAL *, REAL *, int *,   \
                             REAL *, REAL *, int *);                                \
                                                                                    \
    int64_t NAME(int64_t nsup, const int64_t *m, const int64_t *w,                  \
                 const int64_t *off, REAL *arena, const int64_t *fptr,              \
                 const int64_t *dst, const int64_t *src, const int64_t *pptr,       \
                 const int64_t *pieces, REAL *u, void *potrf_, void *trsm_,         \
                 void *syrk_, int64_t *info)                                        \
    {                                                                               \
        NAME##_potrf *potrf = (NAME##_potrf *)potrf_;                               \
        NAME##_trsm *trsm = (NAME##_trsm *)trsm_;                                   \
        NAME##_syrk *syrk = (NAME##_syrk *)syrk_;                                   \
        char lo = 'L', right = 'R', tr = 'T', no = 'N';                             \
        REAL one = 1, zero = 0;                                                     \
        for (int64_t s = 0; s < nsup; s++) {                                        \
            int ms = (int)m[s], ws = (int)w[s], b = ms - ws, fail = 0;              \
            REAL *panel = arena + off[s];                                           \
            potrf(&lo, &ws, panel, &ms, &fail);                                     \
            if (fail) {                                                             \
                *info = fail;                                                       \
                return s;                                                           \
            }                                                                       \
            if (!b)                                                                 \
                continue;                                                           \
            trsm(&right, &lo, &tr, &no, &b, &ws, &one, panel, &ms, panel + ws, &ms); \
            syrk(&lo, &no, &b, &ws, &one, panel + ws, &ms, &zero, u, &b);           \
            for (int64_t k = fptr[s]; k < fptr[s + 1]; k++)                         \
                arena[dst[k]] -= u[src[k]];                                         \
            for (int64_t q = pptr[s]; q < pptr[s + 1]; q++) {                       \
                const int64_t *p = pieces + 10 * q;                                 \
                int64_t ld = p[1], i0 = p[6], i1 = p[7];                            \
                REAL *col = arena + p[0] + p[2] + p[4] * ld;                        \
                for (int64_t j = p[8]; j < p[9]; j++, col += ld) {                  \
                    const REAL *uj = u + j * b;                                     \
                    for (int64_t i = j > i0 ? j : i0; i < i1; i++)                  \
                        col[i - i0] -= uj[i];                                       \
                }                                                                   \
            }                                                                       \
        }                                                                           \
        return -1;                                                                  \
    }

RL_LOOP(rl_loop_d, double)
RL_LOOP(rl_loop_s, float)
