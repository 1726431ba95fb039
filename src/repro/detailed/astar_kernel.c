/*
 * Eq. (10) detailed A* over flat node ids idx = (x * height + y) *
 * layers + (layer - 1): the heap loop behind DetailedGrid.indexed_search.
 * Entering a node costs its base step (alpha + gamma escape term; < 0
 * when structurally blocked), plus the foreign penalty on another net's
 * non-pin wire, plus the column's via surcharge (beta) on z moves.
 * Bit-identical to repro.detailed.search.reference_astar under -O2
 * -ffp-contract=off (contract: docs/performance.md).  Scratch lives in
 * a caller-owned Workspace, one per thread; there are no mutable statics.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { F_SOURCE = 1, F_TARGET = 2, F_BLOCKED = 4, F_LOCAL = 8, F_READ = 16 };

#define RELEASED (-1)          /* overlay tombstone: reads as free */
#define KEEP_SLOTS (1 << 18)   /* larger scratch is dropped on the next call */
#define KEEP_ENTRIES (1 << 17)

typedef struct {
    const double *step;      /* base step per node; < 0 = blocked */
    const int32_t *owner;    /* owner net id per node; 0 = free */
    const uint8_t *pin;      /* fixed-pin mask per node */
    const double *via_extra; /* per-column via surcharge */
    const uint8_t *on_line;  /* per-column stitching-line flag */
    const uint8_t *vertical; /* per-layer flag, 1-based */
    int64_t width, height, layers;
} Grid;

typedef struct {
    int64_t id, parent, local; /* local: overlay-buffered owner (F_LOCAL) */
    double g;                  /* best cost so far; INFINITY = unreached */
    uint32_t gen, flags;       /* live iff gen == workspace gen */
} Slot;

typedef struct {
    double f, g;
    int64_t id, dx, dy; /* dx, dy: clipped heuristic deltas of id */
} Entry;

typedef struct {
    /* Results of the last call (the leading fields the caller reads). */
    int64_t *path, path_len, *reads, reads_len;
    int64_t expansions, evaluations, pops, heap_left;
    /* Scratch. */
    int64_t path_cap, reads_cap;
    Slot *slots;
    int64_t slot_cap, slot_used; /* slot_cap: power of two, or 0 */
    uint32_t gen;
    Entry *heap;
    int64_t heap_len, heap_cap;
} Workspace;

Workspace *repro_workspace_new(void) { return calloc(1, sizeof(Workspace)); }

static void drop_scratch(Workspace *ws) {
    free(ws->path);
    free(ws->reads);
    free(ws->slots);
    free(ws->heap);
    memset(ws, 0, sizeof *ws);
}

void repro_workspace_free(Workspace *ws) {
    drop_scratch(ws);
    free(ws);
}

/* Id table: open addressing, linear probing. */
static Slot *slot_probe(Workspace *ws, int64_t id, int insert) {
    uint64_t mask = (uint64_t)ws->slot_cap - 1;
    uint64_t i = ((uint64_t)id * 0x9E3779B97F4A7C15ULL) & mask;
    for (;; i = (i + 1) & mask) {
        Slot *s = &ws->slots[i];
        if (s->gen != ws->gen) {
            if (!insert)
                return NULL;
            *s = (Slot){id, -1, 0, INFINITY, ws->gen, 0};
            ws->slot_used++;
            return s;
        }
        if (s->id == id)
            return s;
    }
}

/* Room for `extra` more inserts at load <= 1/2; slot pointers stay
 * valid until the next reserve. */
static int slot_reserve(Workspace *ws, int64_t extra) {
    int64_t need = 2 * (ws->slot_used + extra), cap = ws->slot_cap;
    if (need <= cap)
        return 0;
    for (cap = cap ? cap : 4096; cap < need; cap *= 2)
        ;
    Slot *old = ws->slots, *fresh = calloc((size_t)cap, sizeof(Slot));
    int64_t old_cap = ws->slot_cap;
    if (fresh == NULL)
        return -1;
    /* Zeroed slots carry gen 0, never a live generation. */
    ws->slots = fresh;
    ws->slot_cap = cap;
    ws->slot_used = 0;
    for (int64_t k = 0; k < old_cap; k++)
        if (old[k].gen == ws->gen)
            *slot_probe(ws, old[k].id, 1) = old[k];
    free(old);
    return 0;
}

/* The heap is ordered on (f, g, id), a total order. */
static int less(const Entry *a, const Entry *b) {
    return a->f != b->f ? a->f < b->f : a->g != b->g ? a->g < b->g : a->id < b->id;
}

/* The caller reserved room (RESERVE below). */
static void heap_push(Workspace *ws, Entry e) {
    int64_t i = ws->heap_len++;
    for (; i > 0 && less(&e, &ws->heap[(i - 1) / 2]); i = (i - 1) / 2)
        ws->heap[i] = ws->heap[(i - 1) / 2];
    ws->heap[i] = e;
}

static Entry heap_pop(Workspace *ws) {
    Entry *h = ws->heap, top = h[0], last = h[--ws->heap_len];
    int64_t n = ws->heap_len, i = 0, c;
    while ((c = 2 * i + 1) < n) {
        if (c + 1 < n && less(&h[c + 1], &h[c]))
            c++;
        if (!less(&h[c], &last))
            break;
        h[i] = h[c];
        i = c;
    }
    if (n > 0)
        h[i] = last;
    return top;
}

/* Grow array `buf` (capacity `cap`, doubling from `first`) to hold
 * `need` items, or jump to the caller's `oom` label. */
#define RESERVE(buf, cap, need, first)                                   \
    do {                                                                 \
        if ((need) > (cap)) {                                            \
            int64_t grown_ = (cap) ? (cap) : (first);                    \
            while (grown_ < (need))                                      \
                grown_ *= 2;                                             \
            void *moved_ = realloc((buf), (size_t)grown_ * sizeof(*(buf))); \
            if (moved_ == NULL)                                          \
                goto oom;                                                \
            (buf) = moved_;                                              \
            (cap) = grown_;                                              \
        }                                                                \
    } while (0)

static int64_t clip(int64_t v, int64_t lo, int64_t hi) {
    return v < lo ? lo - v : (v > hi ? v - hi : 0);
}

typedef struct {
    const Grid *grid;
    Workspace *ws;
    int log_reads, has_penalty;
    int64_t net_id, si, x;
    double penalty, g, weight;
} Expansion;

/* One candidate move of the node being expanded: the body of the
 * reference's neighbors() + relaxation for successor `ci`. */
static void visit(Expansion *e, int64_t ci, int via, int in_window,
                  int64_t dx, int64_t dy) {
    const Grid *grid = e->grid;
    Workspace *ws = e->ws;
    double sc = grid->step[ci];
    if (!(sc >= 0.0))
        return; /* structurally blocked */
    Slot *s = NULL;
    int64_t o = grid->owner[ci];
    if (e->log_reads) {
        s = slot_probe(ws, ci, 1);
        if (!(s->flags & F_READ)) {
            s->flags |= F_READ;
            ws->reads[ws->reads_len++] = ci;
        }
        if (s->flags & F_LOCAL)
            o = s->local == RELEASED ? 0 : s->local;
    }
    if (o != 0 && o != e->net_id) {
        if (!e->has_penalty || grid->pin[ci])
            return;
        sc = sc + e->penalty;
    }
    if (via && grid->on_line[e->x])
        return; /* via constraint (hard) */
    ws->evaluations++;
    if (via)
        sc = sc + grid->via_extra[e->x];
    if (!in_window)
        return;
    if (s == NULL)
        s = slot_probe(ws, ci, 0);
    if (s != NULL && (s->flags & F_BLOCKED))
        return;
    double candidate = e->g + sc;
    if (!(candidate < (s != NULL ? s->g : INFINITY) - 1e-12))
        return;
    if (s == NULL)
        s = slot_probe(ws, ci, 1);
    s->g = candidate;
    s->parent = e->si;
    heap_push(ws, (Entry){candidate + e->weight * (double)(dx + dy),
                          candidate, ci, dx, dy});
}

/*
 * 1: a target was reached (ids in ws->path, source first); 0: the heap
 * emptied or the expansion limit was hit; -1: out of memory; -2: an
 * input id lies outside the grid (nothing is read then).  Counters,
 * and with log_reads (overlays) the distinct ids whose ownership was
 * consulted, are left in ws.  local_ids/local_vals: an overlay's
 * buffered ownership (RELEASED = tombstone).
 */
int repro_astar(const Grid *grid, Workspace *ws,
                const int64_t *sources, int64_t n_sources,
                const int64_t *targets, int64_t n_targets,
                const int64_t *blocked, int64_t n_blocked,
                const int64_t *local_ids, const int64_t *local_vals,
                int64_t n_local, int log_reads, int64_t net_id,
                int has_penalty, double penalty,
                int64_t lo_x, int64_t lo_y, int64_t hi_x, int64_t hi_y,
                int64_t expansion_limit, double weight) {
    const int64_t layers = grid->layers, hl = grid->height * layers;
    int64_t t_lo_x = INT64_MAX, t_hi_x = INT64_MIN;
    int64_t t_lo_y = INT64_MAX, t_hi_y = INT64_MIN;
    Expansion e = {grid, ws, log_reads, has_penalty, net_id, 0, 0,
                   penalty, 0.0, weight};
    const int64_t *inputs[] = {sources, targets, blocked, local_ids};
    const int64_t counts[] = {n_sources, n_targets, n_blocked, n_local};
    int status = 0;

    for (int l = 0; l < 4; l++)
        for (int64_t k = 0; k < counts[l]; k++)
            if (inputs[l][k] < 0 || inputs[l][k] >= grid->width * hl)
                return -2; /* before anything is read */

    /* One huge search must not pin its scratch for the rest of the run
     * (the previous call's path and read log have been consumed). */
    if (ws->slot_cap > KEEP_SLOTS || ws->heap_cap > KEEP_ENTRIES ||
        ws->reads_cap > KEEP_ENTRIES || ws->path_cap > KEEP_ENTRIES)
        drop_scratch(ws);
    ws->path_len = ws->reads_len = ws->heap_len = ws->slot_used = 0;
    ws->expansions = ws->evaluations = ws->pops = 0;
    if (++ws->gen == 0) { /* wrapped: stale stamps could match again */
        if (ws->slots != NULL)
            memset(ws->slots, 0, (size_t)ws->slot_cap * sizeof(Slot));
        ws->gen = 1;
    }
    if (slot_reserve(ws, n_sources + n_targets + n_blocked + n_local) < 0)
        goto oom;
    RESERVE(ws->heap, ws->heap_cap, n_sources, 1024);
    for (int64_t k = 0; k < n_targets; k++) {
        int64_t x = targets[k] / hl, y = targets[k] % hl / layers;
        t_lo_x = x < t_lo_x ? x : t_lo_x;
        t_hi_x = x > t_hi_x ? x : t_hi_x;
        t_lo_y = y < t_lo_y ? y : t_lo_y;
        t_hi_y = y > t_hi_y ? y : t_hi_y;
        slot_probe(ws, targets[k], 1)->flags |= F_TARGET;
    }
    for (int64_t k = 0; k < n_blocked; k++)
        slot_probe(ws, blocked[k], 1)->flags |= F_BLOCKED;
    for (int64_t k = 0; k < n_local; k++) {
        Slot *s = slot_probe(ws, local_ids[k], 1);
        s->flags |= F_LOCAL;
        s->local = local_vals[k];
    }
    /* Seeding order is immaterial: the heap order is total. */
    for (int64_t k = 0; k < n_sources; k++) {
        Slot *s = slot_probe(ws, sources[k], 1);
        int64_t dx = clip(sources[k] / hl, t_lo_x, t_hi_x);
        int64_t dy = clip(sources[k] % hl / layers, t_lo_y, t_hi_y);
        s->flags |= F_SOURCE;
        s->g = 0.0;
        heap_push(ws, (Entry){weight * (double)(dx + dy), 0.0, sources[k], dx, dy});
    }

    while (ws->heap_len > 0) {
        Entry top = heap_pop(ws);
        ws->pops++;
        Slot *cur = slot_probe(ws, top.id, 0);
        if (top.g > cur->g)
            continue; /* stale entry */
        if (cur->flags & F_TARGET) {
            int64_t n = 1;
            for (Slot *s = cur; !(s->flags & F_SOURCE); n++)
                s = slot_probe(ws, s->parent, 0);
            RESERVE(ws->path, ws->path_cap, n, 256);
            for (ws->path_len = n; n > 0; cur = slot_probe(ws, cur->parent, 0))
                ws->path[--n] = cur->id;
            status = 1;
            break;
        }
        if (++ws->expansions > expansion_limit)
            break;
        /* <= 4 candidates, each adding <= 1 slot, read and heap entry. */
        if (slot_reserve(ws, 4) < 0)
            goto oom;
        RESERVE(ws->reads, ws->reads_cap, ws->reads_len + 4, 256);
        RESERVE(ws->heap, ws->heap_cap, ws->heap_len + 4, 1024);
        const int64_t si = top.id, x = si / hl, y = si % hl / layers;
        const int64_t lm = si % layers, dx = top.dx, dy = top.dy;
        const int in_x = lo_x <= x && x <= hi_x, in_y = lo_y <= y && y <= hi_y;
        e.si = si;
        e.x = x;
        e.g = top.g;
        if (grid->vertical[lm + 1]) {
            if (y > 0)
                visit(&e, si - layers, 0, in_x && lo_y <= y - 1 && y - 1 <= hi_y,
                      dx, clip(y - 1, t_lo_y, t_hi_y));
            if (y + 1 < grid->height)
                visit(&e, si + layers, 0, in_x && lo_y <= y + 1 && y + 1 <= hi_y,
                      dx, clip(y + 1, t_lo_y, t_hi_y));
        } else {
            if (x > 0)
                visit(&e, si - hl, 0, in_y && lo_x <= x - 1 && x - 1 <= hi_x,
                      clip(x - 1, t_lo_x, t_hi_x), dy);
            if (x + 1 < grid->width)
                visit(&e, si + hl, 0, in_y && lo_x <= x + 1 && x + 1 <= hi_x,
                      clip(x + 1, t_lo_x, t_hi_x), dy);
        }
        if (lm > 0)
            visit(&e, si - 1, 1, in_x && in_y, dx, dy);
        if (lm + 1 < layers)
            visit(&e, si + 1, 1, in_x && in_y, dx, dy);
    }
    ws->heap_left = ws->heap_len;
    return status;
oom:
    ws->heap_left = ws->heap_len;
    return -1;
}
