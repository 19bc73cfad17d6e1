/* The scalar loops of the symbolic analysis, compiled: one call each, with
 * the inputs, outputs and visiting order of the Python loop it stands in for
 * (which stays as the fallback and as the oracle).
 *
 *   md_order     repro.ordering.mindeg._order_pieces: every piece induced
 *                from the top graph and ordered by exact minimum degree,
 *                mass elimination (absorbed vertices ascending) and a lazy
 *                min-heap on (degree, vertex)
 *   pp_vertex    repro.ordering.graph.pseudo_peripheral_vertex: George-Liu
 *                over FIFO breadth-first searches, neighbours in adjncy
 *                order, only mask-true vertices visited (mask may be NULL)
 *   etree_liu    repro.symbolic.etree._liu: Liu's elimination tree with
 *                ancestor path compression
 *   post_order   repro.symbolic.etree.postorder: depth-first, children in
 *                the order of the child lists, roots ascending
 *   col_counts   repro.symbolic.colcounts.column_counts, first descendants
 *                included (Gilbert-Ng-Peyton)
 *   amalg_merge  repro.symbolic.amalgamate._merge's greedy loop: a lazy
 *                min-heap on (extra fill, supernode) within a budget
 *
 * Heap entries that tie are equal pairs, so any correct min-heap pops the
 * sequence Python's heapq pops.  Arrays are int64 unless named otherwise;
 * no call keeps state between calls, so threads may run them at once.
 * md_order and amalg_merge return -1 when memory cannot be allocated.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    int64_t key, id;
} pair;

typedef struct {
    pair *at;
    int64_t size, cap;
} heap;

static int before(pair a, pair b)
{
    return a.key < b.key || (a.key == b.key && a.id < b.id);
}

static int heap_push(heap *h, int64_t key, int64_t id)
{
    if (h->size == h->cap) {
        int64_t cap = h->cap ? 2 * h->cap : 16;
        pair *at = realloc(h->at, sizeof(pair) * (size_t)cap);
        if (!at)
            return -1;
        h->at = at;
        h->cap = cap;
    }
    int64_t i = h->size++;
    pair x = {key, id};
    while (i > 0 && before(x, h->at[(i - 1) / 2])) {
        h->at[i] = h->at[(i - 1) / 2];
        i = (i - 1) / 2;
    }
    h->at[i] = x;
    return 0;
}

static pair heap_pop(heap *h)
{
    pair top = h->at[0], x = h->at[--h->size];
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= h->size)
            break;
        if (c + 1 < h->size && before(h->at[c + 1], h->at[c]))
            c++;
        if (!before(h->at[c], x))
            break;
        h->at[i] = h->at[c];
        i = c;
    }
    if (h->size)
        h->at[i] = x;
    return top;
}

/* ---------------------------------------------------------------- md_order */

typedef struct {
    int64_t *v;
    int64_t len, cap;
} set; /* a vertex set, unordered: minimum degree only reads sizes */

static int set_add(set *s, int64_t x)
{
    if (s->len == s->cap) {
        int64_t cap = s->cap ? 2 * s->cap : 8;
        int64_t *v = realloc(s->v, sizeof(int64_t) * (size_t)cap);
        if (!v)
            return -1;
        s->v = v;
        s->cap = cap;
    }
    s->v[s->len++] = x;
    return 0;
}

static void set_discard(set *s, int64_t x)
{
    for (int64_t i = 0; i < s->len; i++)
        if (s->v[i] == x) {
            s->v[i] = s->v[--s->len];
            return;
        }
}

static int ascending(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* The minimum-degree order of the k-vertex graph adj (consumed) into out.
 * mark is a stamp per vertex (*tag its last stamp), elim, tmp scratch. */
static int eliminate(int64_t k, set *adj, int64_t *out, uint8_t *elim, int64_t *mark,
                     int64_t *tag, int64_t *tmp, heap *h)
{
    h->size = 0;
    for (int64_t v = 0; v < k; v++) {
        elim[v] = 0;
        if (heap_push(h, adj[v].len, v))
            return -1;
    }
    int64_t done = 0;
    while (done < k) {
        pair top = heap_pop(h);
        int64_t v = top.id;
        if (elim[v] || top.key != adj[v].len)
            continue; /* stale heap entry */
        /* eliminate v: its neighbours become a clique */
        set clique = adj[v];
        adj[v] = (set){0};
        out[done++] = v;
        elim[v] = 1;
        int64_t t = ++*tag;
        for (int64_t i = 0; i < clique.len; i++) {
            set_discard(&adj[clique.v[i]], v);
            mark[clique.v[i]] = t;
        }
        /* mass elimination: neighbours dominated by the clique go now */
        int64_t na = 0;
        for (int64_t i = 0; i < clique.len; i++) {
            int64_t u = clique.v[i], j = 0;
            while (j < adj[u].len && mark[adj[u].v[j]] == t)
                j++;
            if (j == adj[u].len)
                tmp[na++] = u;
        }
        qsort(tmp, (size_t)na, sizeof(int64_t), ascending);
        for (int64_t i = 0; i < na; i++) {
            int64_t u = tmp[i];
            out[done++] = u;
            elim[u] = 1;
            for (int64_t j = 0; j < adj[u].len; j++)
                set_discard(&adj[adj[u].v[j]], u);
            adj[u].len = 0;
        }
        int64_t ns = 0;
        for (int64_t i = 0; i < clique.len; i++)
            if (!elim[clique.v[i]])
                tmp[ns++] = clique.v[i];
        free(clique.v);
        for (int64_t i = 0; i < ns; i++) {
            int64_t u = tmp[i];
            t = ++*tag;
            mark[u] = t;
            for (int64_t j = 0; j < adj[u].len; j++)
                mark[adj[u].v[j]] = t;
            for (int64_t j = 0; j < ns; j++)
                if (mark[tmp[j]] != t && set_add(&adj[u], tmp[j]))
                    return -1;
            if (heap_push(h, adj[u].len, u))
                return -1;
        }
    }
    return 0;
}

/* Pieces p = 0 .. npieces-1 are verts[start[p] .. start[p+1]) (ascending,
 * disjoint, covering the n vertices); perm gets their orders back to back. */
int64_t md_order(int64_t n, int64_t npieces, const int64_t *xadj, const int64_t *adjncy,
                 const int64_t *start, const int64_t *verts, int64_t *perm)
{
    int64_t most = 0, tag = 0, status = -1;
    for (int64_t p = 0; p < npieces; p++)
        if (start[p + 1] - start[p] > most)
            most = start[p + 1] - start[p];
    int64_t *piece_of = malloc(sizeof(int64_t) * (size_t)(2 * n + 3 * most + 1));
    set *adj = calloc((size_t)most + 1, sizeof(set));
    uint8_t *elim = malloc((size_t)most + 1);
    heap h = {0};
    if (!piece_of || !adj || !elim)
        goto done;
    int64_t *local_of = piece_of + n, *mark = local_of + n, *tmp = mark + most,
            *order = tmp + most;
    for (int64_t p = 0; p < npieces; p++)
        for (int64_t i = start[p]; i < start[p + 1]; i++) {
            piece_of[verts[i]] = p;
            local_of[verts[i]] = i - start[p];
        }
    memset(mark, 0, sizeof(int64_t) * (size_t)most);
    for (int64_t p = 0; p < npieces; p++) {
        const int64_t *vs = verts + start[p];
        int64_t k = start[p + 1] - start[p];
        /* the edges inside the piece, renumbered locally, each once */
        for (int64_t i = 0; i < k; i++) {
            int64_t t = ++tag;
            adj[i].len = 0;
            mark[i] = t;
            for (int64_t e = xadj[vs[i]]; e < xadj[vs[i] + 1]; e++) {
                int64_t w = adjncy[e], l = local_of[w];
                if (piece_of[w] == p && mark[l] != t) {
                    mark[l] = t;
                    if (set_add(&adj[i], l))
                        goto done;
                }
            }
        }
        if (eliminate(k, adj, order, elim, mark, &tag, tmp, &h))
            goto done;
        for (int64_t i = 0; i < k; i++)
            perm[start[p] + i] = vs[order[i]];
    }
    status = 0;
done:
    for (int64_t i = 0; adj && i <= most; i++)
        free(adj[i].v);
    free(adj);
    free(piece_of);
    free(elim);
    free(h.at);
    return status;
}

/* --------------------------------------------------------------- pp_vertex */

static int64_t bfs(int64_t root, const int64_t *xadj, const int64_t *adjncy,
                   const uint8_t *mask, int64_t *levels, int64_t *order)
{
    int64_t tail = 1;
    levels[root] = 0;
    order[0] = root;
    for (int64_t head = 0; head < tail; head++) {
        int64_t v = order[head], d = levels[v] + 1;
        for (int64_t e = xadj[v]; e < xadj[v + 1]; e++) {
            int64_t u = adjncy[e];
            if (levels[u] < 0 && (!mask || mask[u])) {
                levels[u] = d;
                order[tail++] = u;
            }
        }
    }
    return tail;
}

/* From start (mask-true), up to max_iter jumps to the first minimum-degree
 * vertex of the deepest level while the eccentricity grows.  levels and
 * levels2 come filled with -1; the final search is left in levels and
 * order, its vertex in *vertex; returns how many vertices it reached. */
int64_t pp_vertex(int64_t n, int64_t start, int64_t max_iter, const int64_t *xadj,
                  const int64_t *adjncy, const uint8_t *mask, int64_t *levels, int64_t *order,
                  int64_t *levels2, int64_t *order2, int64_t *vertex)
{
    int64_t *lv = levels, *od = order, *lv2 = levels2, *od2 = order2, *swap;
    int64_t count = bfs(start, xadj, adjncy, mask, lv, od), count2 = 0, v = start, c;
    int64_t ecc = lv[od[count - 1]];
    for (int64_t it = 0; it < max_iter; it++) {
        int64_t first = count, cand, degree;
        while (first > 0 && lv[od[first - 1]] == ecc)
            first--;
        cand = od[first];
        degree = xadj[cand + 1] - xadj[cand];
        for (int64_t i = first + 1; i < count; i++)
            if (xadj[od[i] + 1] - xadj[od[i]] < degree) {
                cand = od[i];
                degree = xadj[cand + 1] - xadj[cand];
            }
        for (int64_t i = 0; i < count2; i++)
            lv2[od2[i]] = -1;
        count2 = bfs(cand, xadj, adjncy, mask, lv2, od2);
        if (lv2[od2[count2 - 1]] <= ecc)
            break;
        v = cand;
        ecc = lv2[od2[count2 - 1]];
        swap = lv, lv = lv2, lv2 = swap;
        swap = od, od = od2, od2 = swap;
        c = count, count = count2, count2 = c;
    }
    if (lv != levels) {
        memcpy(levels, lv, sizeof(int64_t) * (size_t)n);
        memcpy(order, od, sizeof(int64_t) * (size_t)count);
    }
    *vertex = v;
    return count;
}

/* ------------------------------------------------------ etree, postorder */

/* Row i's below-diagonal columns are rcols[rowptr[i] .. rowptr[i+1]). */
int64_t etree_liu(int64_t n, const int64_t *rowptr, const int64_t *rcols, int64_t *parent,
                  int64_t *ancestor)
{
    for (int64_t j = 0; j < n; j++)
        parent[j] = ancestor[j] = -1;
    for (int64_t i = 0; i < n; i++)
        for (int64_t p = rowptr[i]; p < rowptr[i + 1]; p++)
            /* walk from k to the root of its current tree, compressing */
            for (int64_t k = rcols[p], a; (a = ancestor[k]) != i; k = a) {
                ancestor[k] = i;
                if (a == -1) {
                    parent[k] = i;
                    break;
                }
            }
    return 0;
}

/* Node j's children are child[childptr[j] .. childptr[j+1]); stack holds 2n
 * entries (node, next-child cursor).  Returns how many nodes were visited:
 * fewer than n when parent has a cycle. */
int64_t post_order(int64_t n, const int64_t *parent, const int64_t *childptr,
                   const int64_t *child, int64_t *post, int64_t *stack)
{
    int64_t count = 0;
    for (int64_t root = 0; root < n; root++) {
        if (parent[root] >= 0)
            continue;
        int64_t top = 0;
        stack[0] = root;
        stack[1] = childptr[root];
        while (top >= 0) {
            int64_t node = stack[2 * top], cursor = stack[2 * top + 1];
            if (cursor < childptr[node + 1]) {
                int64_t c = child[cursor];
                stack[2 * top + 1] = cursor + 1;
                top++;
                stack[2 * top] = c;
                stack[2 * top + 1] = childptr[c];
            } else {
                top--;
                post[count++] = node;
            }
        }
    }
    return count;
}

/* ------------------------------------------------------------ col_counts */

/* Column j of the lower triangle is indices[indptr[j] .. indptr[j+1]), its
 * diagonal first; work holds 4n entries. */
int64_t col_counts(int64_t n, const int64_t *parent, const int64_t *post, const int64_t *indptr,
                   const int64_t *indices, int64_t *counts, int64_t *work)
{
    int64_t *first = work, *maxfirst = work + n, *prevleaf = work + 2 * n,
            *ancestor = work + 3 * n, *delta = counts;
    for (int64_t j = 0; j < n; j++) {
        first[j] = maxfirst[j] = prevleaf[j] = -1;
        ancestor[j] = j;
        delta[j] = 1; /* 1 iff j is a leaf of the elimination tree */
    }
    for (int64_t j = 0; j < n; j++)
        if (parent[j] >= 0)
            delta[parent[j]] = 0;
    for (int64_t k = 0; k < n; k++)
        for (int64_t j = post[k]; j != -1 && first[j] == -1; j = parent[j])
            first[j] = k;
    for (int64_t k = 0; k < n; k++) {
        int64_t j = post[k];
        if (parent[j] != -1)
            delta[parent[j]]--; /* child subtree overlaps parent's diagonal */
        for (int64_t p = indptr[j] + 1; p < indptr[j + 1]; p++) {
            int64_t i = indices[p];
            if (first[j] <= maxfirst[i])
                continue;
            /* j is a new leaf of the row subtree T_i */
            delta[j]++;
            maxfirst[i] = first[j];
            int64_t q = prevleaf[i];
            if (q != -1) {
                /* LCA(prevleaf[i], j) via path compression on ancestor */
                int64_t r = q;
                while (r != ancestor[r])
                    r = ancestor[r];
                while (q != r) {
                    int64_t up = ancestor[q];
                    ancestor[q] = r;
                    q = up;
                }
                delta[r]--; /* subtract the overlap counted twice */
            }
            prevleaf[i] = j;
        }
        if (parent[j] != -1)
            ancestor[j] = parent[j];
    }
    for (int64_t k = 0; k < n; k++) {
        int64_t j = post[k];
        if (parent[j] != -1)
            counts[parent[j]] += counts[j];
    }
    return 0;
}

/* ----------------------------------------------------------- amalg_merge */

/* Whether alive snode c's successor next[c] is its parent; then *extra is
 * the fill that merging c into it adds (merge_extra_fill). */
static int candidate(int64_t c, const int64_t *w, const int64_t *b, const int64_t *parent,
                     const int64_t *next, int64_t *extra)
{
    int64_t p = next[c];
    if (!(c < parent[c] && parent[c] <= p))
        return 0;
    *extra = w[c] * (w[p] + b[p] - b[c]);
    return 1;
}

/* Supernodes of widths w (updated in place), below-row counts b and tree
 * parent; alive gets 0 for every snode merged into its successor.  work
 * holds 2 nsup entries. */
int64_t amalg_merge(int64_t nsup, int64_t budget, int64_t *w, const int64_t *b,
                    const int64_t *parent, uint8_t *alive, int64_t *work)
{
    int64_t *prev = work, *next = work + nsup, spent = 0, cur, status = -1;
    heap h = {0};
    for (int64_t s = 0; s < nsup; s++) {
        alive[s] = 1;
        prev[s] = s - 1;
        next[s] = s + 1 < nsup ? s + 1 : -1;
    }
    for (int64_t c = 0; c + 1 < nsup; c++)
        if (candidate(c, w, b, parent, next, &cur) && heap_push(&h, cur, c))
            goto fail;
    while (h.size) {
        pair top = heap_pop(&h);
        int64_t c = top.id;
        if (!alive[c])
            continue;
        if (!candidate(c, w, b, parent, next, &cur))
            continue;
        if (cur != top.key) {
            if (heap_push(&h, cur, c))
                goto fail;
            continue;
        }
        if (spent + top.key > budget)
            break;
        /* merge c into p (p keeps its id; its columns now start at c's) */
        int64_t p = next[c], prv = prev[c];
        spent += top.key;
        w[p] += w[c];
        alive[c] = 0;
        prev[p] = prv;
        if (prv != -1) {
            next[prv] = p;
            if (candidate(prv, w, b, parent, next, &cur) && heap_push(&h, cur, prv))
                goto fail;
        }
        if (candidate(p, w, b, parent, next, &cur) && heap_push(&h, cur, p))
            goto fail;
    }
    status = 0;
fail:
    free(h.at);
    return status;
}
