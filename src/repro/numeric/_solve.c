/* The serial triangular sweeps of repro.solve.triangular, compiled: one call
 * runs the forward sweep L y = b, the backward sweep L^T x = y, or both, in
 * place on an F-ordered n x k right-hand side y (leading dimension n).
 *
 * Supernode s owns the w = snptr[s+1] - snptr[s] columns from snptr[s] and
 * the m = rowptr[s+1] - rowptr[s] rows rows[rowptr[s] ..]; its panel is the
 * F-ordered m x w array at panels[s] (leading dimension m), its rectangle the
 * b = m - w rows below the diagonal block, over the rows below[0 .. b).
 *
 *   forward, s ascending    ?trtrs('L', 'N') of the diagonal block on y's
 *                           own w rows; u = rect y_seg (?gemm); y[below] -= u
 *   backward, s descending  v = rect^T y[below] (?gemm on the rows gathered
 *                           first); y_seg -= v; ?trtrs('L', 'T')
 *
 * The routines are the caller's (scipy.linalg.cython_lapack / cython_blas),
 * the ones the Python bodies call through f2py with the same flags and
 * sizes, so each supernode runs their arithmetic.  ?gemm even for k = 1:
 * ?gemv's sums depend on the operands' leading dimension and on their
 * addresses modulo 16 bytes, ?gemm's and ?trtrs's on neither, so the bits do
 * not depend on where a panel lies (an arena, a private copy, f2py's
 * contiguous copy).  The products and the gathered rows live in one
 * workspace of max(m) * k entries per call, zeroed before each product as
 * f2py's fresh outputs are.
 *
 * Returns -1; or the supernode whose ?trtrs found an exactly-zero diagonal
 * entry (or an illegal argument), its info in *info; or -2 when the
 * workspace cannot be allocated.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { FORWARD = 1, BACKWARD = 2 };

#define SOLVE_LOOP(NAME, REAL)                                                      \
    typedef void NAME##_trtrs(char *, char *, char *, int *, int *, REAL *, int *,  \
                              REAL *, int *, int *);                                \
    typedef void NAME##_gemm(char *, char *, int *, int *, int *, REAL *, REAL *,   \
                             int *, REAL *, int *, REAL *, REAL *, int *);          \
                                                                                    \
    /* u = rect x (trans 'N', b rows out) or rect^T x (trans 'T', w rows out) */    \
    static void NAME##_product(NAME##_gemm *gemm, char trans, int b, int w, int k,  \
                               REAL *rect, int m, REAL *x, int ldx, REAL *u)        \
    {                                                                               \
        char no = 'N';                                                              \
        int rows = trans == 'N' ? b : w, inner = trans == 'N' ? w : b;              \
        REAL one = 1, zero = 0;                                                     \
        memset(u, 0, sizeof(REAL) * (size_t)rows * (size_t)k);                      \
        gemm(&trans, &no, &rows, &k, &inner, &one, rect, &m, x, &ldx, &zero, u, &rows); \
    }                                                                               \
                                                                                    \
    int64_t NAME(int64_t nsup, int64_t n, int64_t k, int64_t sweeps,                \
                 const int64_t *snptr, const int64_t *rowptr, const int64_t *rows,  \
                 REAL *const *panels, REAL *y, void *trtrs_, void *gemm_,           \
                 int64_t *info)                                                     \
    {                                                                               \
        NAME##_trtrs *trtrs = (NAME##_trtrs *)trtrs_;                               \
        NAME##_gemm *gemm = (NAME##_gemm *)gemm_;                                   \
        char lo = 'L', no = 'N', tr = 'T';                                          \
        int nrhs = (int)k, ldy = n > 1 ? (int)n : 1, fail = 0;                      \
        int64_t most = 1, at = -1;                                                  \
        for (int64_t s = 0; s < nsup; s++)                                          \
            if (rowptr[s + 1] - rowptr[s] > most)                                   \
                most = rowptr[s + 1] - rowptr[s];                                   \
        REAL *work = malloc(sizeof(REAL) * (size_t)most * (size_t)(k > 1 ? k : 1)); \
        if (!work)                                                                  \
            return -2;                                                              \
        for (int64_t s = 0; (sweeps & FORWARD) && s < nsup; s++) {                  \
            int w = (int)(snptr[s + 1] - snptr[s]);                                 \
            int m = (int)(rowptr[s + 1] - rowptr[s]), b = m - w;                    \
            REAL *panel = panels[s], *seg = y + snptr[s];                           \
            const int64_t *below = rows + rowptr[s] + w;                            \
            trtrs(&lo, &no, &no, &w, &nrhs, panel, &m, seg, &ldy, &fail);           \
            if (fail) {                                                             \
                at = s;                                                             \
                goto done;                                                          \
            }                                                                       \
            if (!b)                                                                 \
                continue;                                                           \
            NAME##_product(gemm, 'N', b, w, nrhs, panel + w, m, seg, ldy, work);    \
            for (int64_t j = 0; j < k; j++)                                         \
                for (int i = 0; i < b; i++)                                         \
                    y[below[i] + j * n] -= work[i + j * b];                         \
        }                                                                           \
        for (int64_t s = nsup - 1; (sweeps & BACKWARD) && s >= 0; s--) {            \
            int w = (int)(snptr[s + 1] - snptr[s]);                                 \
            int m = (int)(rowptr[s + 1] - rowptr[s]), b = m - w;                    \
            REAL *panel = panels[s], *seg = y + snptr[s], *v = work + (int64_t)b * k; \
            const int64_t *below = rows + rowptr[s] + w;                            \
            if (b) {                                                                \
                for (int64_t j = 0; j < k; j++)                                     \
                    for (int i = 0; i < b; i++)                                     \
                        work[i + j * b] = y[below[i] + j * n];                      \
                NAME##_product(gemm, 'T', b, w, nrhs, panel + w, m, work, b, v);    \
                for (int64_t j = 0; j < k; j++)                                     \
                    for (int i = 0; i < w; i++)                                     \
                        seg[i + j * n] -= v[i + j * w];                             \
            }                                                                       \
            trtrs(&lo, &tr, &no, &w, &nrhs, panel, &m, seg, &ldy, &fail);           \
            if (fail) {                                                             \
                at = s;                                                             \
                goto done;                                                          \
            }                                                                       \
        }                                                                           \
    done:                                                                           \
        *info = fail;                                                               \
        free(work);                                                                 \
        return at;                                                                  \
    }

SOLVE_LOOP(solve_loop_d, double)
SOLVE_LOOP(solve_loop_s, float)
