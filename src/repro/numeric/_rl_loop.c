/* The serial loops of repro.numeric.rl and repro.numeric.rlb, compiled: one
 * call factorizes a whole arena in place.
 *
 * For each supernode s, left to right: ?potrf on the w x w diagonal block,
 * ?trsm on the b x w rectangle below it, then the source's updates in its
 * form (form[s]; every source is RL when form is NULL):
 *
 *   RL       ?syrk of the rectangle into the b x b workspace u (lower
 *            triangle), subtracted from the ancestors through the pattern's
 *            assembly index (repro.symbolic.relind)
 *   BATCHED  an RLB source whose pair updates are slices of one product:
 *            ?gemm(rect, rect^T) into u (with one block, ?syrk), each
 *            block's own ?syrk over its diagonal block when w > 1, then the
 *            assembly index as RL
 *   PAIRS    an RLB source updated pair by pair: ?syrk / ?gemm of the
 *            pair's blocks into u, subtracted from the pair's target
 *
 * The assembly index has two forms:
 *
 *   flat form    arena[dst[k]] -= u[src[k]]     for k in fptr[s] .. fptr[s+1]
 *   block form   one rectangle per piece        for pieces pptr[s] .. pptr[s+1]
 *
 * A piece is the row (base, ld, r0, r1, c0, c1, i0, i1, j0, j1) of the index's
 * piece table: arena[base + r0 + c0 * ld ...] (leading dimension ld) minus
 * u[i0:i1, j0:j1].  A pair q of repro.symbolic.blocks.pair_index joins the
 * blocks upper[q] <= lower[q] (rows blk_start .. + blk_len of the rectangle)
 * and lands at row_off[q], col_off[q] of the panel of blk_owner[upper[q]].
 * The Python bodies subtract the entries above a ?syrk's diagonal too, where
 * f2py's ?syrk left zeros; x - 0 is x, so skipping them here gives the same
 * bits without clearing u.
 *
 * Panels are F-ordered (m, w) at arena + off[s]: the BLAS routines work on
 * them in place with leading dimension m.  The routines are the caller's
 * (scipy.linalg.cython_blas / cython_lapack, the same library the f2py
 * wrappers call), so each supernode runs the Python bodies' arithmetic.
 *
 * Returns -1, or the supernode whose ?potrf failed with its info in *info.
 */
#include <stdint.h>

enum { RL, BATCHED, PAIRS };

#define RL_LOOP(NAME, REAL)                                                         \
    typedef void NAME##_potrf(char *, int *, REAL *, int *, int *);                 \
    typedef void NAME##_trsm(char *, char *, char *, char *, int *, int *, REAL *,  \
                             REAL *, int *, REAL *, int *);                         \
    typedef void NAME##_syrk(char *, char *, int *, int *, REAL *, REAL *, int *,   \
                             REAL *, REAL *, int *);                                \
    typedef void NAME##_gemm(char *, char *, int *, int *, int *, REAL *, REAL *,   \
                             int *, REAL *, int *, REAL *, REAL *, int *);          \
                                                                                    \
    int64_t NAME(int64_t nsup, const int64_t *m, const int64_t *w,                  \
                 const int64_t *off, REAL *arena, const int64_t *fptr,              \
                 const int64_t *dst, const int64_t *src, const int64_t *pptr,       \
                 const int64_t *pieces, REAL *u, void *potrf_, void *trsm_,         \
                 void *syrk_, void *gemm_, const int8_t *form,                      \
                 const int64_t *blk_ptr, const int64_t *blk_start,                  \
                 const int64_t *blk_len, const int64_t *pair_ptr,                   \
                 const int64_t *upper, const int64_t *lower,                        \
                 const int64_t *row_off, const int64_t *col_off,                    \
                 const int64_t *blk_owner, int64_t *info)                           \
    {                                                                               \
        NAME##_potrf *potrf = (NAME##_potrf *)potrf_;                               \
        NAME##_trsm *trsm = (NAME##_trsm *)trsm_;                                   \
        NAME##_syrk *syrk = (NAME##_syrk *)syrk_;                                   \
        NAME##_gemm *gemm = (NAME##_gemm *)gemm_;                                   \
        char lo = 'L', right = 'R', tr = 'T', no = 'N';                             \
        REAL one = 1, zero = 0;                                                     \
        for (int64_t s = 0; s < nsup; s++) {                                        \
            int ms = (int)m[s], ws = (int)w[s], b = ms - ws, fail = 0;              \
            int kind = form ? form[s] : RL;                                         \
            REAL *panel = arena + off[s], *rect = panel + ws;                       \
            potrf(&lo, &ws, panel, &ms, &fail);                                     \
            if (fail) {                                                             \
                *info = fail;                                                       \
                return s;                                                           \
            }                                                                       \
            if (!b)                                                                 \
                continue;                                                           \
            trsm(&right, &lo, &tr, &no, &b, &ws, &one, panel, &ms, rect, &ms);      \
            if (kind == PAIRS) {                                                    \
                for (int64_t q = pair_ptr[s]; q < pair_ptr[s + 1]; q++) {           \
                    int64_t i = upper[q], j = lower[q], p = blk_owner[i], ld = m[p]; \
                    int li = (int)blk_len[i], lj = (int)blk_len[j];                 \
                    REAL *ri = rect + blk_start[i], *col;                           \
                    if (i == j)                                                     \
                        syrk(&lo, &no, &li, &ws, &one, ri, &ms, &zero, u, &li);     \
                    else                                                            \
                        gemm(&no, &tr, &lj, &li, &ws, &one, rect + blk_start[j], &ms, \
                             ri, &ms, &zero, u, &lj);                               \
                    col = arena + off[p] + row_off[q] + col_off[q] * ld;            \
                    for (int c = 0; c < li; c++, col += ld) {                       \
                        const REAL *uc = u + (int64_t)c * lj;                       \
                        for (int r = i == j ? c : 0; r < lj; r++)                   \
                            col[r] -= uc[r];                                        \
                    }                                                               \
                }                                                                   \
                continue;                                                           \
            }                                                                       \
            int64_t b0 = kind == BATCHED ? blk_ptr[s] : 0;                          \
            int64_t nb = kind == BATCHED ? blk_ptr[s + 1] - b0 : 1;                 \
            if (nb == 1) {                                                          \
                syrk(&lo, &no, &b, &ws, &one, rect, &ms, &zero, u, &b);             \
            } else {                                                                \
                gemm(&no, &tr, &b, &b, &ws, &one, rect, &ms, rect, &ms, &zero, u, &b); \
                for (int64_t k = b0; ws > 1 && k < b0 + nb; k++) {                  \
                    int a = (int)blk_start[k], len = (int)blk_len[k];               \
                    syrk(&lo, &no, &len, &ws, &one, rect + a, &ms, &zero,           \
                         u + a + (int64_t)a * b, &b);                               \
                }                                                                   \
            }                                                                       \
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
