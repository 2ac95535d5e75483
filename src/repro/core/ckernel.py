"""C hot paths, built on demand into one library loaded via ``ctypes``.

Seven loops live here, each the C form of a numpy, hashlib or
list-backed Python definition that stays in the repo and that it
matches bit for bit:

* **the block walk** (:func:`block_walk`) — from ``health_state``
  through the block index to the day's candidate rows, block-major,
  with a CSR over the active blocks (``exposure._numpy_walk``);
* **exposure accumulation** (:func:`accumulate_exposures`) — from those
  rows to the per-``(location, person)`` hazard sums of the
  ``"compiled"`` kernel (the ``"flat"`` kernel's pair stage), block by
  block, in row order only for persons with two or more visits at a
  location;
* **keyed draws** (:func:`keyed_raw`) — BLAKE2b seed derivation,
  ``SeedSequence`` mixing and the first PCG64 outputs of every keyed
  stream in one pass over 1, 4 or 8 keys, behind
  :mod:`repro.util.rng`'s batched primitives under *every* kernel;
* **the visit indexes** (:func:`block_index`) — a stable counting sort
  of the visit rows by ``(location, sublocation)`` block, equal to the
  numpy packed-key sort in ``PersonLocationGraph.block_visit_index()``,
  whose counting pass also counts visits per person for
  ``person_visit_slices()``: one sequential read of the three id
  columns, typed once per call, checks every id (and that
  ``visit_person`` never descends) and counts both indexes;
* **the partitioner's sequential loops** — heavy-edge matching
  (:func:`heavy_edge_matching`, over the ``rng.permutation`` order
  drawn in Python), contraction (:func:`contract`: a count pass, then
  a fill of exactly the coarse graph's size, rows in
  ``CSRGraph.from_edge_list``'s order) and every FM pass of one
  ``fm_refine`` call (:func:`fm_refine`), equal to the list-backed
  loops of ``repro.partition.coarsen`` / ``refine``.

The location phase
------------------
``repro.core.exposure._compiled_kernel`` argues why the accumulation is
bit-identical to the flat kernel; its slots come out grouped by
location, unordered inside one; its pair loop keeps the partners that
overlap with no branch, then adds only those, in partner order.  Its
scratch is sized by the largest location's candidates, plus two bitmaps
over the persons.  Both loops
read each column as it lies (:func:`phase_columns`, built once per
phase), raise ``ValueError`` on a person id or health state out of
range, and free their scratch on every path.

Keyed draws
-----------
A keyed stream is ``Generator(PCG64(derive_seed(root, *key)))``;
:func:`repro.util.rng.derive_seeds` (hashlib) and
:mod:`repro.util.pcg` (numpy) are its batched definition.  The C loop
restates the same three steps per key — BLAKE2b with ``digest_size=8``
and no key over ``root_le8 ‖ key_le8…`` (one compression up to 15 key
words, a second beyond), ``SeedSequence(seed).generate_state(4,
uint64)``, PCG64 ``srandom`` and the first ``n_out`` XSL-RR outputs —
in integer arithmetic, which is exactly specified, so equality with
the definition is the whole contract (``tests/util/test_keyed_c.py``).

The pass runs over L keys at a time, one key row per SIMD lane: L = 8
under AVX-512F, 4 under AVX2, else the scalar loop (the reference, and
the path on every other CPU or architecture).  ``repro_keyed_isa``
reports the widest level ``__builtin_cpu_supports`` finds; it is read
once at load (:func:`keyed_isa`) and passed to every call.  The lane
functions carry their own ``target`` attribute instead of the build
taking ``-march``, so one cached library runs on any x86-64 that shares
``REPRO_CKERNEL_CACHE``.

Build and fallback
------------------
The shared library is compiled once per hash of the source and the
compile flags (:data:`_CFLAGS`) with the system C compiler (``$CC``,
else ``cc``/``gcc``/``clang``) into a cache directory and memoised per
process; forked SMP workers inherit the mapping.  ``-ffp-contract=off`` keeps the compiler from fusing the
multiply-add into an FMA that would change the bits.

Every array goes to C as a bare address (``c_void_p`` arguments,
:func:`_addr`); :func:`checked` vets each one handed in — dtype,
C-contiguity, length — and raises ``ValueError`` before any C runs.
The partitioner loops check their CSR in C before they write anything
(``xadj`` from 0 to ``len(adjncy)``, never descending; ``adjncy``,
``order`` and ``match`` in ``[0, n)``; ``part`` 0 / 1), and raise
``ValueError`` naming the array.

No toolchain (or ``REPRO_NO_CKERNEL=1``) simply means
:func:`available` is ``False``: callers fall back to the numpy /
hashlib definitions and tests skip cleanly — nothing in the repo
*requires* a compiler.  The one switch governs all seven paths because
they are one library: a machine has all seven C loops or none, and
since each path is bit-identical to its fallback, the switch changes
speed, never an epidemic or a partition.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

__all__ = ["available", "build_error", "checked", "checked_masks", "phase_columns", "block_walk",
           "accumulate_exposures", "keyed_isa", "keyed_raw", "block_index", "heavy_edge_matching",
           "contract", "fm_refine", "cache_dir", "KEYED_ISAS", "KEYED_LANES"]

C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define REPRO_ID(col, width, i) /* an id column in its own width, 4 or 8 */ \
    ((width) == 8 ? ((const int64_t *)(col))[i] : ((const int32_t *)(col))[i])

/* ---- the location phase: col[] / width[] are the visit columns and
 * health_state as they lie; role[state] has bits SUS / INF ------------ */
enum { PERSON, LOCATION, SUBLOC, START, END, HEALTH };
#define COL(k, i) REPRO_ID(col[k], width[k], i)
enum { SUS = 1, INF = 2 };

/* Health state of person p; -1 / -2 when p / the state is out of range */
static inline int64_t state_of(const void *const *col, const int64_t *width,
                               int64_t n_persons, int64_t n_states, int64_t p)
{
    if (p < 0 || p >= n_persons) return -1;
    const int64_t s = COL(HEALTH, p);
    return s < 0 || s >= n_states ? -2 : s;
}

/* keys[0, n) (non-negative) ascending by LSD radix, a byte a pass, through
 * tmp (n entries); returns keys or tmp, whichever ends up holding them */
static int64_t *sort_keys(int64_t *keys, int64_t *tmp, int64_t n)
{
    int64_t top = 0;
    for (int64_t i = 0; i < n; ++i) top |= keys[i];
    for (int shift = 0; top >> shift; shift += 8) {
        int64_t count[257] = {0}, *swap = keys;
        for (int64_t i = 0; i < n; ++i) ++count[(keys[i] >> shift & 255) + 1];
        for (int d = 0; d < 256; ++d) count[d + 1] += count[d];
        for (int64_t i = 0; i < n; ++i) tmp[count[keys[i] >> shift & 255]++] = keys[i];
        keys = tmp, tmp = swap;
    }
    return keys;
}

/* exposure._numpy_walk: candidate rows block-major, bptr over the active
 * blocks, out = {candidates, active blocks, walked rows}.  owned (per
 * location) and removed (per visit row) are NULL or byte masks: carrier
 * rows unowned or removed mark no block, removed rows are no candidates.
 * mark is zeroed, one byte per block.  bptr + 1 collects the walked
 * blocks; sorted, they are there or in the walk's scratch, and block i is
 * read before bptr[i + 1] can be overwritten.  Returns 0, or 1 / 2 for a
 * person id / health state out of range, 4 no memory. */
int64_t repro_block_walk(
    const void *const *col, const int64_t *width,
    int64_t n_persons, const int64_t *person_ptr, const int64_t *sub_off,
    const int64_t *index, const int64_t *ptr, const uint8_t *role, int64_t n_states,
    const uint8_t *owned, const uint8_t *removed,
    uint8_t *mark, int64_t *rows, int64_t *bptr, int64_t *out)
{
    int64_t *blocks = bptr + 1, n_walked = 0, walked = 0, n = 0, n_active = 0;
#define WALK(r0, r1, SKIP) /* mark the blocks of carrier rows [r0, r1) */ \
    for (int64_t r = (r0), end = (r1); r < end; ++r) { \
        const int64_t l = COL(LOCATION, r), b = sub_off[l] + COL(SUBLOC, r); \
        if (!(SKIP) && (++walked, !mark[b])) mark[b] = 1, blocks[n_walked++] = b; \
    }
#define SCAN(T, SKIP) /* every person: health_state typed as it lies */ \
    for (int64_t i = 0; i < n_persons; ++i) { \
        const T s = ((const T *)col[HEALTH])[i]; \
        if ((uint64_t)s >= (uint64_t)n_states) return 2; \
        if (role[s] & INF) WALK(person_ptr[i], person_ptr[i + 1], SKIP) \
    }
#define MASKED ((owned && !owned[l]) || (removed && removed[r]))
    if (!owned && !removed) { /* no mask test in the loop */
        if (width[HEALTH] == 8) SCAN(int64_t, 0) else SCAN(int32_t, 0)
    } else if (width[HEALTH] == 8) SCAN(int64_t, MASKED) else SCAN(int32_t, MASKED)
#undef MASKED
#undef SCAN
#undef WALK
    int64_t *tmp = malloc((n_walked + 1) * sizeof *tmp), bad = 0;
    if (!tmp) return 4;
    const int64_t *sorted = sort_keys(blocks, tmp, n_walked); /* distinct, >= 0 */
    bptr[0] = 0;
    for (int64_t i = 0; !bad && i < n_walked; ++i) {
        const int64_t b = sorted[i], first = n;
        int64_t sus = 0;
        walked += ptr[b + 1] - ptr[b];
        for (int64_t k = ptr[b]; k < ptr[b + 1]; ++k) {
            const int64_t r = index[k];
            if (removed && removed[r]) continue;
            const int64_t s = state_of(col, width, n_persons, n_states, COL(PERSON, r));
            if (s < 0) { bad = -s; break; }
            if (role[s]) rows[n++] = r, sus |= role[s] & SUS;
        }
        if (sus) bptr[++n_active] = n; else n = first;
    }
    free(tmp);
    out[0] = n, out[1] = n_active, out[2] = walked;
    return bad;
}

/* a susceptible visit and the sums of its pairs so far: hazard, least
 * overlap end, count */
typedef struct { int64_t row, person, start, end, state, block; double acc; int64_t fmin, hits; }
    sus_visit;
typedef struct { int64_t row, start, end, column; } inf_visit; /* column = state * n_states */

/* Onto p's sums: the hazards of v's pairs with partners [w, w_end),
 * added left to right, their least overlap end and their count.  Filter,
 * then fold, PAIR_CHUNK partners at a time: every partner's index goes to
 * a stack buffer whose fill count advances only if it overlaps v and is
 * not v (no branch: about 3/4 fail, unpredictably); the kept pairs are
 * then added in partner order, the same left fold over the same pairs. */
enum { PAIR_CHUNK = 128 }; /* buffer indexes fit a uint8_t */
#define OVERLAP(x) /* os / oe: v's overlap with partner x */ \
    const int64_t os = start > (x).start ? start : (x).start, oe = end < (x).end ? end : (x).end
static inline void add_pairs(sus_visit *p, const sus_visit *v, const inf_visit *w,
                             const inf_visit *w_end, const double *haz_table)
{
    const int64_t row = v->row, start = v->start, end = v->end;
    const double *haz = haz_table + v->state;
    double acc = p->acc;
    int64_t fmin = p->fmin, hits = p->hits;
    for (int64_t n; w < w_end; w += n) {
        uint8_t kept[PAIR_CHUNK];
        int64_t k = 0;
        n = w_end - w < PAIR_CHUNK ? w_end - w : PAIR_CHUNK;
        for (int64_t j = 0; j < n; ++j) {
            OVERLAP(w[j]);
            kept[k] = (uint8_t)j, k += (oe > os) & (w[j].row != row);
        }
        for (int64_t j = 0; j < k; ++j) {
            OVERLAP(w[kept[j]]);
            acc += (double)(oe - os) * haz[w[kept[j]].column];
            if (oe < fmin) fmin = oe;
        }
        hits += k;
    }
    p->acc = acc, p->fmin = fmin, p->hits = hits;
}
#undef OVERLAP

#define BIT(set, p) ((set)[(p) >> 6] >> ((p) & 63) & 1)
#define SET(set, p) ((set)[(p) >> 6] |= (uint64_t)1 << ((p) & 63))
#define CLEAR(set, p) ((set)[(p) >> 6] &= ~((uint64_t)1 << ((p) & 63)))

/* Hazards per (location, person) slot from the walk's rows / bptr, one
 * location (adjacent blocks) at a time.  Block by block, each
 * susceptible candidate's partial: +0.0 plus its block's infectious
 * partners in block order, the slot of a person with one such visit.
 * Persons seen twice (bitmaps seen / twice, cleared by the location's
 * own visits) have their visits sorted by row, one run each (the visit
 * table is person-sorted), and the later visits' pairs added onto the
 * first's partial: the row-order left fold.  Writes the slots with a
 * pair, grouped by ascending location, in no order within one; out[0] =
 * those of persons seen twice, out[1] the partner records add_pairs read
 * (partials and re-adds).  Returns the number of slots, or -1 / -2
 * (person id / health state), -3 (rows / bptr) out of range, -4 no memory. */
int64_t repro_accumulate_exposures(
    int64_t n, const int64_t *rows, int64_t n_blocks, const int64_t *bptr,
    const void *const *col, const int64_t *width, int64_t n_visits, int64_t n_persons,
    const uint8_t *role, const double *haz_table, int64_t n_states,
    int64_t *keys, double *total_h, int64_t *first_minute, int64_t *pair_count, int64_t *out)
{
    if (bptr[0] != 0 || bptr[n_blocks] != n) return -3;
    for (int64_t j = 0; j < n_blocks; ++j) if (bptr[j + 1] <= bptr[j]) return -3;
    for (int64_t k = 0; k < n; ++k) if (rows[k] < 0 || rows[k] >= n_visits) return -3;
    int64_t most = 0, b = 0, n_slots = 0, n_multi_slots = 0, partners = 0;
    for (int64_t j0 = 0, j1; j0 < n_blocks; j0 = j1) {
        const int64_t loc = COL(LOCATION, rows[bptr[j0]]);
        for (j1 = j0 + 1; j1 < n_blocks && COL(LOCATION, rows[bptr[j1]]) == loc; ++j1) {}
        if (bptr[j1] - bptr[j0] > most) most = bptr[j1] - bptr[j0]; /* a location's candidates */
    }
    while (most >> b) ++b; /* multi key = row << b | index */
    if (b && (n_visits - 1) >> (63 - b)) return -3;
    const int64_t words = (n_persons + 63) / 64;
    sus_visit *sus = malloc((most + 1) * sizeof *sus);
    inf_visit *inf = malloc((most + 1) * sizeof *inf);
    int64_t *inf_off = malloc((most + 1) * sizeof *inf_off);
    int64_t *multi = malloc(2 * (most + 1) * sizeof *multi);
    uint64_t *seen = calloc(2 * words + 1, sizeof *seen), *twice = seen + words;
    if (!sus || !inf || !inf_off || !multi || !seen) n_slots = -4;
#define AT(key) ((key) & ((1LL << b) - 1)) /* a multi key's visit */
#define EMIT(p, v) \
    keys[n_slots] = loc * n_persons + (p), total_h[n_slots] = (v).acc, \
    first_minute[n_slots] = (v).fmin, pair_count[n_slots++] = (v).hits
    for (int64_t j0 = 0, j1; n_slots >= 0 && j0 < n_blocks; j0 = j1) {
        const int64_t loc = COL(LOCATION, rows[bptr[j0]]);
        int64_t n_sus = 0, n_inf = 0, n_multi = 0;
        for (j1 = j0; n_slots >= 0 && j1 < n_blocks && COL(LOCATION, rows[bptr[j1]]) == loc;
             ++j1) {
            const int64_t first = n_sus;
            inf_off[j1 - j0] = n_inf;
            for (int64_t k = bptr[j1]; k < bptr[j1 + 1]; ++k) {
                const int64_t r = rows[k], p = COL(PERSON, r);
                const int64_t s = state_of(col, width, n_persons, n_states, p);
                if (s < 0) { n_slots = s; break; }
                const int64_t a = COL(START, r), e = COL(END, r);
                if (role[s] & INF) inf[n_inf++] = (inf_visit){r, a, e, s * n_states};
                if (role[s] & SUS)
                    sus[n_sus++] = (sus_visit){r, p, a, e, s, j1 - j0, 0.0, INT64_MAX, 0};
            }
            for (int64_t i = first; n_slots >= 0 && i < n_sus; ++i) {
                const int64_t p = sus[i].person;
                add_pairs(&sus[i], &sus[i], inf + inf_off[j1 - j0], inf + n_inf, haz_table);
                if (BIT(seen, p)) SET(twice, p); else SET(seen, p);
            }
            partners += (n_sus - first) * (n_inf - inf_off[j1 - j0]);
        }
        inf_off[j1 - j0] = n_inf;
        for (int64_t i = 0; n_slots >= 0 && i < n_sus; ++i) {
            const int64_t p = sus[i].person;
            if (BIT(twice, p)) multi[n_multi++] = sus[i].row << b | i;
            else if (sus[i].hits) EMIT(p, sus[i]);
            CLEAR(seen, p);
        }
        const int64_t *by_row = sort_keys(multi, multi + most + 1, n_multi);
        for (int64_t m = 0; n_slots >= 0 && m < n_multi;) {
            const int64_t p = sus[AT(by_row[m])].person;
            sus_visit slot = sus[AT(by_row[m])];
            CLEAR(twice, p);
            for (++m; m < n_multi && sus[AT(by_row[m])].person == p; ++m) {
                const sus_visit *u = &sus[AT(by_row[m])];
                add_pairs(&slot, u, inf + inf_off[u->block], inf + inf_off[u->block + 1],
                          haz_table);
                partners += inf_off[u->block + 1] - inf_off[u->block];
            }
            if (slot.hits) EMIT(p, slot), ++n_multi_slots;
        }
    }
#undef EMIT
#undef AT
#undef CLEAR
#undef SET
#undef BIT
    free(sus), free(inf), free(inf_off), free(multi), free(seen);
    out[0] = n_multi_slots, out[1] = partners;
    return n_slots;
}

/* The block index and the person index in one counting sort: order =
 * argsort(sub_off[loc] + sub, kind="stable") with its CSR bounds ptr, and
 * person_ptr, the CSR bounds of the person-sorted rows (both zeroed on
 * entry; sub_off has n_locations + 1 entries).  Each id column is read
 * typed as it lies, the type picked once per call.  Pass 1 checks and
 * counts; a bad row returns 1 (location) / 2 (sublocation) / 3 (person)
 * out of range, and else a person below the row before returns 4, all
 * before any scatter.
 * Pass 2 scatters ascending rows through ptr[b] as the cursor, which
 * shifts ptr down one block; the last loop shifts it back. */
int64_t repro_block_index(
    int64_t n, const void *loc, int64_t loc_width, const void *sub, int64_t sub_width,
    const void *person, int64_t person_width, const int64_t *sub_off, int64_t n_locations,
    int64_t n_persons, int64_t *ptr, int64_t *person_ptr, int64_t *order)
{
    const int64_t n_blocks = sub_off[n_locations];
    int64_t unsorted = 0;
#define TYPED(width, T, ...) /* __VA_ARGS__ with T the column's C type */ \
    if ((width) == 8) { typedef int64_t T; __VA_ARGS__ } else { typedef int32_t T; __VA_ARGS__ }
#define COUNT \
    for (int64_t i = 0, last = 0; i < n; ++i) { \
        const int64_t l = ((const TL *)loc)[i], s = ((const TS *)sub)[i]; \
        const int64_t p = ((const TP *)person)[i]; \
        if ((uint64_t)l >= (uint64_t)n_locations) return 1; \
        const int64_t b = sub_off[l] + s; \
        if ((uint64_t)s >= (uint64_t)(sub_off[l + 1] - sub_off[l]) \
            || (uint64_t)b >= (uint64_t)n_blocks) return 2; \
        if ((uint64_t)p >= (uint64_t)n_persons) return 3; \
        unsorted |= p < last; \
        ++ptr[b + 1], ++person_ptr[p + 1], last = p; \
    }
#define SCATTER \
    for (int64_t i = 0; i < n; ++i) \
        order[ptr[sub_off[((const TL *)loc)[i]] + ((const TS *)sub)[i]]++] = i;
    TYPED(loc_width, TL, TYPED(sub_width, TS, TYPED(person_width, TP, COUNT)))
    if (unsorted) return 4;
    for (int64_t b = 0; b < n_blocks; ++b) ptr[b + 1] += ptr[b];
    for (int64_t p = 0; p < n_persons; ++p) person_ptr[p + 1] += person_ptr[p];
    TYPED(loc_width, TL, TYPED(sub_width, TS, SCATTER))
#undef SCATTER
#undef COUNT
#undef TYPED
    for (int64_t b = n_blocks; b > 0; --b) ptr[b] = ptr[b - 1];
    ptr[0] = 0;
    return 0;
}

/* ---- keyed draws ---------------------------------------------------- */

static const uint64_t B2B_IV[8] = {
    0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL,
    0x3c6ef372fe94f82bULL, 0xa54ff53a5f1d36f1ULL,
    0x510e527fade682d1ULL, 0x9b05688c2b3e6c1fULL,
    0x1f83d9abfb41bd6bULL, 0x5be0cd19137e2179ULL,
};

static const uint8_t B2B_SIGMA[12][16] = {
    { 0,  1,  2,  3,  4,  5,  6,  7,  8,  9, 10, 11, 12, 13, 14, 15},
    {14, 10,  4,  8,  9, 15, 13,  6,  1, 12,  0,  2, 11,  7,  5,  3},
    {11,  8, 12,  0,  5,  2, 15, 13, 10, 14,  3,  6,  7,  1,  9,  4},
    { 7,  9,  3,  1, 13, 12, 11, 14,  2,  6,  5, 10,  4,  0, 15,  8},
    { 9,  0,  5,  7,  2,  4, 10, 15, 14,  1, 11, 12,  6,  8,  3, 13},
    { 2, 12,  6, 10,  0, 11,  8,  3,  4, 13,  7,  5, 15, 14,  1,  9},
    {12,  5,  1, 15, 14, 13,  4, 10,  0,  7,  6,  3,  9,  2,  8, 11},
    {13, 11,  7, 14, 12,  1,  3,  9,  5,  0, 15,  4,  8,  6,  2, 10},
    { 6, 15, 14,  9, 11,  3,  0,  8, 12,  2, 13,  7,  1,  4, 10,  5},
    {10,  2,  8,  4,  7,  6,  1,  5, 15, 11,  9, 14,  3, 12, 13,  0},
    { 0,  1,  2,  3,  4,  5,  6,  7,  8,  9, 10, 11, 12, 13, 14, 15},
    {14, 10,  4,  8,  9, 15, 13,  6,  1, 12,  0,  2, 11,  7,  5,  3},
};

#define ROTR64(x, n) (((x) >> (n)) | ((x) << (64 - (n))))
/* v and m are words or vectors of lanes; ROT rotates them */
#define B2B_G(a, b, c, d, x, y, ROT) do {                     \
        v[a] += v[b] + (x); v[d] = ROT(v[d] ^ v[a], 32);      \
        v[c] += v[d];       v[b] = ROT(v[b] ^ v[c], 24);      \
        v[a] += v[b] + (y); v[d] = ROT(v[d] ^ v[a], 16);      \
        v[c] += v[d];       v[b] = ROT(v[b] ^ v[c], 63);      \
    } while (0)
#define B2B_ROUND(r, ROT) do {                                \
        const uint8_t *s = B2B_SIGMA[r];                      \
        B2B_G(0, 4,  8, 12, m[s[ 0]], m[s[ 1]], ROT);         \
        B2B_G(1, 5,  9, 13, m[s[ 2]], m[s[ 3]], ROT);         \
        B2B_G(2, 6, 10, 14, m[s[ 4]], m[s[ 5]], ROT);         \
        B2B_G(3, 7, 11, 15, m[s[ 6]], m[s[ 7]], ROT);         \
        B2B_G(0, 5, 10, 15, m[s[ 8]], m[s[ 9]], ROT);         \
        B2B_G(1, 6, 11, 12, m[s[10]], m[s[11]], ROT);         \
        B2B_G(2, 7,  8, 13, m[s[12]], m[s[13]], ROT);         \
        B2B_G(3, 4,  9, 14, m[s[14]], m[s[15]], ROT);         \
    } while (0)
#define B2B_ROUNDS(ROT) do {                                  \
        B2B_ROUND(0, ROT); B2B_ROUND(1, ROT); B2B_ROUND(2, ROT);  B2B_ROUND(3, ROT);  \
        B2B_ROUND(4, ROT); B2B_ROUND(5, ROT); B2B_ROUND(6, ROT);  B2B_ROUND(7, ROT);  \
        B2B_ROUND(8, ROT); B2B_ROUND(9, ROT); B2B_ROUND(10, ROT); B2B_ROUND(11, ROT); \
    } while (0)

/* One BLAKE2b compression (RFC 7693 F); t = bytes hashed so far,
 * always < 2**64 here, so the high counter word stays zero. */
static void b2b_compress(uint64_t h[8], const uint64_t m[16], uint64_t t, int last)
{
    uint64_t v[16];
    for (int i = 0; i < 8; ++i) { v[i] = h[i]; v[i + 8] = B2B_IV[i]; }
    v[12] ^= t;
    if (last) v[14] = ~v[14];
    B2B_ROUNDS(ROTR64);
    for (int i = 0; i < 8; ++i) h[i] ^= v[i] ^ v[i + 8];
}

/* blake2b(root_le8 + key_le8..., digest_size=8), read little-endian:
 * util.rng.derive_seed.  Message words are the root then the keys, so
 * block b holds words 16b .. 16b+15, zero-padded after the last. */
static uint64_t keyed_seed(uint64_t root, const int64_t *key, int64_t k)
{
    uint64_t h[8], m[16];
    for (int i = 0; i < 8; ++i) h[i] = B2B_IV[i];
    h[0] ^= 0x01010008ULL;  /* depth 1, fanout 1, no key, 8-byte digest */
    const int64_t n_words = k + 1;
    for (int64_t w = 0;;) {
        const int64_t take = n_words - w < 16 ? n_words - w : 16;
        for (int64_t i = 0; i < 16; ++i) {
            const int64_t j = w + i;
            m[i] = i >= take ? 0 : j == 0 ? root : (uint64_t)key[j - 1];
        }
        w += take;
        /* the last block is compressed with the final flag even when
         * full: BLAKE2 never finalises an empty block */
        b2b_compress(h, m, (uint64_t)w * 8, w == n_words);
        if (w == n_words) return h[0];
    }
}

/* numpy SeedSequence's hashmix / mix (bit_generator.pyx). */
static inline uint32_t ss_hashmix(uint32_t value, uint32_t *hash_const, uint32_t mult)
{
    value ^= *hash_const;
    *hash_const *= mult;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static inline uint32_t ss_mix(uint32_t x, uint32_t y)
{
    const uint32_t r = 0xca01f9ddU * x - 0x4973f715U * y;
    return r ^ (r >> 16);
}

/* PCG64 srandom from the words w of SeedSequence(seed).generate_state(4,
 * uint64), then n_out XSL-RR outputs written stride words apart (util.pcg).
 * initstate = w0:w1, initseq = w2:w3 (high:low). */
static void pcg64_out(const uint64_t w[4], int64_t n_out, uint64_t *out, int64_t stride)
{
    const unsigned __int128 mult =
        ((unsigned __int128)2549297995355413924ULL << 64) | 4865540595714422341ULL;
    const unsigned __int128 initstate = ((unsigned __int128)w[0] << 64) | w[1];
    const unsigned __int128 initseq = ((unsigned __int128)w[2] << 64) | w[3];
    const unsigned __int128 inc = (initseq << 1) | 1;
    unsigned __int128 state = (inc + initstate) * mult + inc;
    for (int64_t j = 0; j < n_out; ++j) {
        state = state * mult + inc;
        const uint64_t hi = (uint64_t)(state >> 64);
        const uint64_t x = hi ^ (uint64_t)state;
        const unsigned rot = (unsigned)(hi >> 58);
        out[j * stride] = (x >> rot) | (x << ((64 - rot) & 63));
    }
}

/* PCG64(seed): SeedSequence(seed).generate_state(4, uint64), then
 * pcg64_out. */
static void pcg64_first(uint64_t seed, int64_t n_out, uint64_t *out, int64_t stride)
{
    uint32_t pool[4] = {(uint32_t)seed, (uint32_t)(seed >> 32), 0, 0};
    uint32_t hc = 0x43b0d7e5U;
    for (int i = 0; i < 4; ++i) pool[i] = ss_hashmix(pool[i], &hc, 0x931e8875U);
    for (int src = 0; src < 4; ++src)
        for (int dst = 0; dst < 4; ++dst)
            if (src != dst)
                pool[dst] = ss_mix(pool[dst], ss_hashmix(pool[src], &hc, 0x931e8875U));
    uint32_t st[8];
    hc = 0x8b51f9ddU;
    for (int i = 0; i < 8; ++i) st[i] = ss_hashmix(pool[i & 3], &hc, 0x58f38dedU);
    uint64_t w[4]; /* uint32 pairs combine low word first */
    for (int i = 0; i < 4; ++i) w[i] = st[2 * i] | (uint64_t)st[2 * i + 1] << 32;
    pcg64_out(w, n_out, out, stride);
}

/* ---- keyed draws, L keys per pass: the three steps above on vectors
 * of L lanes, one key row per lane.  BLAKE2b's state words and the
 * transposed message words are vectors (the same B2B_ROUNDS),
 * SeedSequence runs on uint32 lanes (hash_const is the same sequence
 * for every key), PCG64 stays per lane.  A short last batch repeats
 * its last row and stores only the valid lanes.  Each width is
 * compiled for its own target and picked at run time, so the library
 * needs no -march and runs on any x86-64. */
#if defined(__x86_64__) && (defined(__clang__) || __GNUC__ >= 9)
#include <immintrin.h>
/* AVX2 has no vector rotate: by 32, 24 and 16 bits it is a byte shuffle */
#define ROTR_X4(x, n) ((n) % 8 ? ROTR64(x, n) : (u64x4)_mm256_shuffle_epi8((__m256i)(x), \
    (__m256i)(u64x4){ROTR64(0x0706050403020100ULL, n), ROTR64(0x0f0e0d0c0b0a0908ULL, n), \
                     ROTR64(0x0706050403020100ULL, n), ROTR64(0x0f0e0d0c0b0a0908ULL, n)}))
/* ss_hashmix / ss_mix on uint32 lanes; hc is the caller's hash_const */
#define SS_HASHMIX_V(x, mult) \
    ({ __typeof__(x) y_ = (x) ^ hc; hc *= (mult); y_ *= hc; y_ ^ y_ >> 16; })
#define SS_MIX_V(x, y) ({ __typeof__(x) r_ = 0xca01f9ddU * (x) - 0x4973f715U * (y); r_ ^ r_ >> 16; })
#define KEYED_LANES(L, ISA, ROT) \
typedef uint64_t u64x##L __attribute__((vector_size(8 * L))); \
typedef uint32_t u32x##L __attribute__((vector_size(4 * L))); \
__attribute__((target(ISA))) static void keyed_x##L( \
    int64_t n, int64_t k_keys, uint64_t root, const int64_t *keys, \
    int64_t n_out, uint64_t *seeds, uint64_t *out) \
{ \
    for (int64_t r0 = 0; r0 < n; r0 += L) { \
        const int64_t valid = n - r0 < L ? n - r0 : L; \
        u64x##L h[8], m[16], v[16]; \
        for (int i = 0; i < 8; ++i) h[i] = (u64x##L){0} + B2B_IV[i]; \
        h[0] ^= 0x01010008ULL; \
        for (int64_t w = 0, take; w < k_keys + 1; w += take) { \
            take = k_keys + 1 - w < 16 ? k_keys + 1 - w : 16; \
            for (int j = 0; j < L; ++j) { \
                const int64_t *key = keys + (r0 + (j < valid ? j : valid - 1)) * k_keys; \
                for (int i = 0; i < 16; ++i) \
                    m[i][j] = i >= take ? 0 : w + i == 0 ? root : (uint64_t)key[w + i - 1]; \
            } \
            for (int i = 0; i < 8; ++i) v[i] = h[i], v[i + 8] = (u64x##L){0} + B2B_IV[i]; \
            v[12] ^= (uint64_t)(w + take) * 8; \
            if (w + take == k_keys + 1) v[14] = ~v[14]; \
            B2B_ROUNDS(ROT); \
            for (int i = 0; i < 8; ++i) h[i] ^= v[i] ^ v[i + 8]; \
        } \
        for (int j = 0; j < valid; ++j) seeds[r0 + j] = h[0][j]; \
        if (n_out <= 0) continue; \
        u32x##L pool[4] = {__builtin_convertvector(h[0], u32x##L), \
                           __builtin_convertvector(h[0] >> 32, u32x##L)}, st[8]; \
        uint32_t hc = 0x43b0d7e5U; \
        uint64_t lane[4]; \
        for (int i = 0; i < 4; ++i) pool[i] = SS_HASHMIX_V(pool[i], 0x931e8875U); \
        for (int src = 0; src < 4; ++src) \
            for (int dst = 0; dst < 4; ++dst) \
                if (src != dst) \
                    pool[dst] = SS_MIX_V(pool[dst], SS_HASHMIX_V(pool[src], 0x931e8875U)); \
        hc = 0x8b51f9ddU; \
        for (int i = 0; i < 8; ++i) st[i] = SS_HASHMIX_V(pool[i & 3], 0x58f38dedU); \
        for (int i = 0; i < 4; ++i) /* pcg64_out's w[i] in h[i], read as whole words */ \
            h[i] = __builtin_convertvector(st[2 * i], u64x##L) \
                   | __builtin_convertvector(st[2 * i + 1], u64x##L) << 32; \
        for (int j = 0; j < valid; ++j) { \
            for (int i = 0; i < 4; ++i) lane[i] = h[i][j]; \
            pcg64_out(lane, n_out, out + r0 + j, n); \
        } \
    } \
}
KEYED_LANES(4, "avx2", ROTR_X4)
KEYED_LANES(8, "avx512f", ROTR64) /* vprorq */
#endif

/* The widest lane level this CPU runs: 2 = AVX-512F x 8, 1 = AVX2 x 4,
 * 0 = the scalar loop (any other CPU or architecture). */
int64_t repro_keyed_isa(void)
{
#ifdef KEYED_LANES
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) return 2;
    if (__builtin_cpu_supports("avx2")) return 1;
#endif
    return 0;
}

/* The derived seed of every key row and its stream's first n_out raw
 * outputs, at lane level isa (at most repro_keyed_isa()).  keys is
 * (n, k_keys) row-major; out is (n_out, n). */
void repro_keyed_raw(
    int64_t n, int64_t k_keys, uint64_t root, const int64_t *keys,
    int64_t n_out, uint64_t *seeds, uint64_t *out, int64_t isa)
{
#ifdef KEYED_LANES
    if (isa == 2) { keyed_x8(n, k_keys, root, keys, n_out, seeds, out); return; }
    if (isa == 1) { keyed_x4(n, k_keys, root, keys, n_out, seeds, out); return; }
#endif
    for (int64_t r = 0; r < n; ++r) {
        seeds[r] = keyed_seed(root, keys + r * k_keys, k_keys);
        if (n_out > 0) pcg64_first(seeds[r], n_out, out + r, n);
    }
}

/* ---- the partitioner's loops over an int64 CSR: xadj (n + 1 entries),
 * adjncy / adjwgt (m), vwgt (n x ncon, row-major).  Each entry point
 * returns 0, or 1 (xadj) / 2 (adjncy) / 3 (its own array) invalid, or
 * 4 no memory, before it writes anything but scratch. */

/* 1 unless xadj starts at 0, never decreases and ends at m; 2 unless
 * adjncy lies in [0, n); else 0 */
static int64_t csr_bad(int64_t n, const int64_t *xadj, const int64_t *adjncy, int64_t m)
{
    if (xadj[0] != 0 || xadj[n] != m) return 1;
    for (int64_t v = 0; v < n; ++v) if (xadj[v + 1] < xadj[v]) return 1;
    for (int64_t e = 0; e < m; ++e) if ((uint64_t)adjncy[e] >= (uint64_t)n) return 2;
    return 0;
}

/* coarsen.heavy_edge_matching after its rng.permutation: in order[]'s
 * order, an unmatched v matches its first heaviest unmatched neighbour
 * (strict >, adjacency order, not v itself), else itself.  3: an order
 * entry out of [0, n). */
int64_t repro_heavy_edge_matching(
    int64_t n, const int64_t *xadj, const int64_t *adjncy, int64_t m, const int64_t *adjwgt,
    const int64_t *order, int64_t *match)
{
    const int64_t bad = csr_bad(n, xadj, adjncy, m);
    if (bad) return bad;
    for (int64_t i = 0; i < n; ++i) if ((uint64_t)order[i] >= (uint64_t)n) return 3;
    for (int64_t v = 0; v < n; ++v) match[v] = -1;
    for (int64_t i = 0; i < n; ++i) {
        const int64_t v = order[i];
        if (match[v] != -1) continue;
        int64_t best = -1, best_w = -1;
        for (int64_t e = xadj[v]; e < xadj[v + 1]; ++e) {
            const int64_t u = adjncy[e], w = adjwgt[e];
            if (w > best_w && match[u] == -1 && u != v) best = u, best_w = w;
        }
        if (best == -1) match[v] = v; else match[v] = best, match[best] = v;
    }
    return 0;
}

/* coarsen.contract, count pass.  cmap[v] = the rank of min(v, match[v])
 * among those values (np.unique's inverse).  Then, coarse vertex lo by
 * lo, the distinct hi = cmap[d] > lo over its members' edges (v, d) with
 * their weights summed: up[2k] = hi, up[2k + 1] = weight, row lo at
 * [up_ptr[lo], up_ptr[lo + 1]), in first-seen order (up has room for
 * m pairs: each pair has an edge).  out = {coarse vertices, pairs}.
 * 3: a match entry out of [0, n). */
int64_t repro_contract_count(
    int64_t n, const int64_t *xadj, const int64_t *adjncy, int64_t m, const int64_t *adjwgt,
    const int64_t *match, int64_t *cmap, int64_t *up_ptr, int64_t *up, int64_t *out)
{
    const int64_t bad = csr_bad(n, xadj, adjncy, m);
    if (bad) return bad;
    for (int64_t v = 0; v < n; ++v) if ((uint64_t)match[v] >= (uint64_t)n) return 3;
    int64_t *rank = calloc(n + 1, sizeof *rank), *mptr = calloc(n + 2, sizeof *mptr);
    int64_t *members = malloc((n + 1) * sizeof *members), *slot = rank, nc = 0, k = 0;
    if (!rank || !mptr || !members) { free(rank), free(mptr), free(members); return 4; }
    for (int64_t v = 0; v < n; ++v) rank[match[v] < v ? match[v] : v] = 1;
    for (int64_t r = 0; r < n; ++r) { const int64_t marked = rank[r]; rank[r] = nc, nc += marked; }
    for (int64_t v = 0; v < n; ++v) cmap[v] = rank[match[v] < v ? match[v] : v], ++mptr[cmap[v] + 2];
    for (int64_t c = 0; c < nc; ++c) mptr[c + 2] += mptr[c + 1];
    for (int64_t v = 0; v < n; ++v) members[mptr[cmap[v] + 1]++] = v; /* row c at mptr[c] */
    for (int64_t c = 0; c < nc; ++c) slot[c] = -1; /* rank is done with: slot[hi] = its pair */
    up_ptr[0] = 0;
    for (int64_t lo = 0; lo < nc; ++lo) {
        const int64_t first = k;
        for (int64_t i = mptr[lo]; i < mptr[lo + 1]; ++i)
            for (int64_t e = xadj[members[i]], v = members[i]; e < xadj[v + 1]; ++e) {
                const int64_t hi = cmap[adjncy[e]];
                if (hi <= lo) continue;
                if (slot[hi] < 0) slot[hi] = k, up[2 * k] = hi, up[2 * k++ + 1] = 0;
                up[2 * slot[hi] + 1] += adjwgt[e];
            }
        for (int64_t j = first; j < k; ++j) slot[up[2 * j]] = -1;
        up_ptr[lo + 1] = k;
    }
    free(rank), free(mptr), free(members);
    out[0] = nc, out[1] = k;
    return 0;
}

/* coarsen.contract, fill pass, from the count pass's cmap / up_ptr / up:
 * the coarse CSR as CSRGraph.from_edge_list builds it (row s: its
 * neighbours above s ascending, then those below ascending; a pair's
 * weight is its upper row's sum) and vwgt summed per coarse vertex.  Two
 * counting transposes order the rows: the pairs, lo ascending, go to
 * the lower part of row hi (so in ascending lo), then the lower parts,
 * s ascending, back to the upper part of row lo (so in ascending hi). */
int64_t repro_contract_fill(
    int64_t n, int64_t ncon, const int64_t *vwgt, const int64_t *cmap, int64_t nc,
    const int64_t *up_ptr, const int64_t *up,
    int64_t *cxadj, int64_t *cadjncy, int64_t *cadjwgt, int64_t *cvwgt)
{
    int64_t *cursor = calloc(nc + 1, sizeof *cursor);
    if (!cursor) return 4;
    for (int64_t i = 0; i < nc * ncon; ++i) cvwgt[i] = 0;
    for (int64_t v = 0; v < n; ++v)
        for (int64_t c = 0; c < ncon; ++c) cvwgt[cmap[v] * ncon + c] += vwgt[v * ncon + c];
    for (int64_t j = 0; j < up_ptr[nc]; ++j) ++cursor[up[2 * j]];
    cxadj[0] = 0;
    for (int64_t s = 0; s < nc; ++s) {
        const int64_t upper = up_ptr[s + 1] - up_ptr[s], lower = cursor[s];
        cxadj[s + 1] = cxadj[s] + upper + lower;
        cursor[s] = cxadj[s] + upper; /* row s's lower part */
    }
    for (int64_t lo = 0; lo < nc; ++lo)
        for (int64_t j = up_ptr[lo]; j < up_ptr[lo + 1]; ++j) {
            const int64_t at = cursor[up[2 * j]]++;
            cadjncy[at] = lo, cadjwgt[at] = up[2 * j + 1];
        }
    for (int64_t s = 0; s < nc; ++s) cursor[s] = cxadj[s]; /* row s's upper part */
    for (int64_t s = 0; s < nc; ++s)
        for (int64_t e = cxadj[s] + up_ptr[s + 1] - up_ptr[s]; e < cxadj[s + 1]; ++e) {
            const int64_t at = cursor[cadjncy[e]]++;
            cadjncy[at] = s, cadjwgt[at] = cadjwgt[e];
        }
    free(cursor);
    return 0;
}

/* refine._fm_passes' heap entries: (-gain, v), ordered as tuples.  Equal
 * entries are equal tuples, so any binary heap pops the same sequence. */
typedef struct { int64_t key, v; } fm_entry;
#define FM_LESS(a, b) ((a).key < (b).key || ((a).key == (b).key && (a).v < (b).v))

static void fm_sift_down(fm_entry *heap, int64_t size, int64_t i)
{
    for (const fm_entry x = heap[i];;) {
        int64_t c = 2 * i + 1;
        if (c >= size) { heap[i] = x; return; }
        if (c + 1 < size && FM_LESS(heap[c + 1], heap[c])) ++c;
        if (!FM_LESS(heap[c], x)) { heap[i] = x; return; }
        heap[i] = heap[c], i = c;
    }
}

static void fm_push(fm_entry *heap, int64_t *size, int64_t key, int64_t v)
{
    const fm_entry x = {key, v};
    int64_t i = (*size)++;
    for (; i && FM_LESS(x, heap[(i - 1) / 2]); i = (i - 1) / 2) heap[i] = heap[(i - 1) / 2];
    heap[i] = x;
}

/* refine._imbalance: the worst |share - target| over both sides and every
 * constraint with mass (side_w is 2 x ncon) */
static double fm_imbalance(const int64_t *side_w, const int64_t *totals, int64_t ncon,
                           double target_frac)
{
    double worst = 0.0;
    for (int64_t c = 0; c < ncon; ++c) {
        if (totals[c] == 0) continue;
        const double t = (double)totals[c];
        const double a = fabs((double)side_w[c] / t - target_frac);
        const double b = fabs((double)side_w[ncon + c] / t - (1.0 - target_frac));
        if (a > worst) worst = a;
        if (b > worst) worst = b;
    }
    return worst;
}

/* refine._improves_balance: is the imbalance with vw moved off side src
 * below before, its current value? */
static int fm_improves(const int64_t *side_w, const int64_t *totals, int64_t ncon,
                       double target_frac, const int64_t *vw, int64_t src, double before)
{
    const double tgt[2] = {target_frac, 1.0 - target_frac};
    const int64_t *src_w = side_w + src * ncon, *dst_w = side_w + (1 - src) * ncon;
    for (int64_t c = 0; c < ncon; ++c) {
        if (totals[c] == 0) continue;
        const double t = (double)totals[c];
        if (fabs((double)(src_w[c] - vw[c]) / t - tgt[src]) >= before
            || fabs((double)(dst_w[c] + vw[c]) / t - tgt[1 - src]) >= before) return 0;
    }
    return 0.0 < before;
}

/* refine._fits: would side dst, given vw too, stay within its limits (a
 * vertex heavier than a limit by itself is held to its own weight)? */
static int fm_fits(const int64_t *dst_w, const int64_t *vw, const double *limit,
                   const int64_t *totals, int64_t ncon)
{
    for (int64_t c = 0; c < ncon; ++c) {
        if (totals[c] == 0) continue;
        const int64_t have = dst_w[c] + vw[c];
        if (limit[c] > (double)vw[c] ? (double)have > limit[c] : have > vw[c]) return 0;
    }
    return 1;
}

/* refine._fm_passes, every pass: part (0 / 1, else 3) is refined in
 * place and gain[v] left as refine.all_gains of it; out = {passes,
 * moves, pushes}.  The sums and comparisons are the Python loop's on
 * ints and doubles, exact while every weight sum is below 2**53.  One
 * pass pushes at most n + m entries: its boundary, then one per edge of
 * each vertex it moves, once (a re-push replaces its pop). */
int64_t repro_fm_refine(
    int64_t n, const int64_t *xadj, const int64_t *adjncy, int64_t m, const int64_t *adjwgt,
    const int64_t *vwgt, int64_t ncon, double target_frac, double ubfactor, int64_t max_passes,
    int8_t *part, int64_t *gain, int64_t *out)
{
    const int64_t bad = csr_bad(n, xadj, adjncy, m);
    if (bad) return bad;
    for (int64_t v = 0; v < n; ++v) if (part[v] != 0 && part[v] != 1) return 3;
    int64_t *ed = malloc((n + 1) * sizeof *ed);
    int64_t *weights = calloc(4 * ncon + 1, sizeof *weights); /* side_w 2 x ncon, totals */
    double *limits = malloc((2 * ncon + 1) * sizeof *limits);
    fm_entry *heap = malloc((n + m + 1) * sizeof *heap);
    uint8_t *locked = malloc(n + 1);
    if (!ed || !weights || !limits || !heap || !locked) {
        free(ed), free(weights), free(limits), free(heap), free(locked);
        return 4;
    }
    int64_t *side_w = weights, *totals = weights + 2 * ncon;
    for (int64_t v = 0; v < n; ++v)
        for (int64_t c = 0; c < ncon; ++c) {
            totals[c] += vwgt[v * ncon + c];
            if (part[v]) side_w[ncon + c] += vwgt[v * ncon + c];
        }
    for (int64_t c = 0; c < ncon; ++c) {
        side_w[c] = totals[c] - side_w[ncon + c];
        limits[c] = (double)totals[c] * target_frac * ubfactor;
        limits[ncon + c] = (double)totals[c] * (1.0 - target_frac) * ubfactor;
    }
    for (int64_t v = 0; v < n; ++v) {
        int64_t g = 0, cross = 0;
        for (int64_t e = xadj[v]; e < xadj[v + 1]; ++e) {
            const int64_t x = part[adjncy[e]] != part[v];
            g += x ? adjwgt[e] : -adjwgt[e], cross += x;
        }
        gain[v] = g, ed[v] = cross;
    }
    int64_t passes = 0, moves = 0, pushes = 0, have_imbalance = 0;
    double imbalance = 0.0; /* of side_w while have_imbalance; a move drops it */
    for (int64_t pass = 0; pass < max_passes; ++pass) {
        const int64_t moves_before = moves;
        int64_t size = 0;
        ++passes;
        for (int64_t v = 0; v < n; ++v) {
            locked[v] = 0;
            if (ed[v]) heap[size++] = (fm_entry){-gain[v], v};
        }
        for (int64_t i = size / 2; i-- > 0;) fm_sift_down(heap, size, i);
        while (size) {
            const fm_entry top = heap[0];
            heap[0] = heap[--size];
            fm_sift_down(heap, size, 0);
            const int64_t v = top.v, g = gain[v];
            if (locked[v]) continue;
            if (g != -top.key) { fm_push(heap, &size, -g, v), ++pushes; continue; }
            if (g < 0) break; /* the heap is sorted: nothing with positive gain remains */
            const int64_t src = part[v], dst = 1 - src, *vw = vwgt + v * ncon;
            locked[v] = 1;
            if (g == 0) { /* a zero-gain move must reduce the worst imbalance */
                if (!have_imbalance)
                    imbalance = fm_imbalance(side_w, totals, ncon, target_frac), have_imbalance = 1;
                if (!fm_improves(side_w, totals, ncon, target_frac, vw, src, imbalance)) continue;
            }
            if (!fm_fits(side_w + dst * ncon, vw, limits + dst * ncon, totals, ncon)) continue;
            part[v] = (int8_t)dst;
            for (int64_t c = 0; c < ncon; ++c) side_w[src * ncon + c] -= vw[c], side_w[dst * ncon + c] += vw[c];
            have_imbalance = 0, ++moves;
            gain[v] = -g, ed[v] = xadj[v + 1] - xadj[v] - ed[v];
            /* every neighbour first, then the pushes: a neighbour listed
             * twice is pushed twice with its final gain */
            for (int64_t e = xadj[v]; e < xadj[v + 1]; ++e) {
                const int64_t u = adjncy[e];
                if (part[u] == dst) gain[u] -= 2 * adjwgt[e], --ed[u];
                else gain[u] += 2 * adjwgt[e], ++ed[u];
            }
            for (int64_t e = xadj[v]; e < xadj[v + 1]; ++e)
                if (!locked[adjncy[e]]) fm_push(heap, &size, -gain[adjncy[e]], adjncy[e]), ++pushes;
        }
        if (moves == moves_before) break;
    }
    free(ed), free(weights), free(limits), free(heap), free(locked);
    out[0] = passes, out[1] = moves, out[2] = pushes;
    return 0;
}
"""

#: memoised per process: None = not tried yet, False = unavailable
_lib: ctypes.CDLL | None | bool = None
_build_error: str | None = None
#: the keyed pass's lane levels (index = level) and keys per pass
KEYED_ISAS, KEYED_LANES = ("scalar", "avx2", "avx512f"), (1, 4, 8)
_keyed_isa = 0
#: the compile command's flags; -ffp-contract=off: an FMA would change
#: the multiply-add bits vs numpy, and bit-exactness is the contract
_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-fast-math")


def cache_dir() -> Path:
    """Directory the compiled library is cached in (override with
    ``REPRO_CKERNEL_CACHE``)."""
    env = os.environ.get("REPRO_CKERNEL_CACHE")
    if env:
        return Path(env)
    return Path(tempfile.gettempdir()) / f"repro-ckernel-{os.getuid()}"


def _find_compiler() -> str | None:
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return cc
    for candidate in ("cc", "gcc", "clang"):
        if shutil.which(candidate):
            return candidate
    return None


#: a lock file untouched for this long belongs to a dead builder
_LOCK_STALE_SECONDS = 60.0
#: give up waiting on someone else's build after this long
_LOCK_WAIT_SECONDS = 120.0


def _acquire_build_lock(lock: Path, out: Path) -> bool:
    """Serialise concurrent builders on an ``O_CREAT|O_EXCL`` lock file.

    Returns True when this process holds the lock (and must build),
    False when the library appeared while waiting.  A lock whose mtime
    stops advancing for :data:`_LOCK_STALE_SECONDS` is stolen — the
    holder died mid-compile (e.g. a killed test worker) and must not
    wedge every later process.
    """
    deadline = time.monotonic() + _LOCK_WAIT_SECONDS
    while True:
        if out.exists():
            return False
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                age = time.time() - lock.stat().st_mtime
            except OSError:
                continue  # holder just released; retry immediately
            if age > _LOCK_STALE_SECONDS:
                try:
                    lock.unlink()
                except OSError:
                    pass
                continue
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"timed out waiting for a concurrent C kernel build ({lock})"
                )
            time.sleep(0.05)
            continue
        try:
            os.write(fd, str(os.getpid()).encode())
        finally:
            os.close(fd)
        return True


def _library_path() -> Path:
    """The cached library's path, tagged by the source and the flags."""
    tag = hashlib.sha256("\0".join((C_SOURCE, *_CFLAGS)).encode()).hexdigest()[:16]
    return cache_dir() / f"exposure-{tag}.so"


def _compile() -> Path:
    """Build (or reuse) the shared library; raises on any failure.

    Concurrent-safe at both levels: a build lock keeps N fresh
    processes from all running the compiler, and the final atomic
    ``os.replace`` means even an unlocked straggler can only ever
    install a complete library.
    """
    out = _library_path()
    if out.exists():
        return out
    cc = _find_compiler()
    if cc is None:
        raise RuntimeError("no C compiler found (set $CC or install cc/gcc/clang)")
    out.parent.mkdir(parents=True, exist_ok=True)
    lock = out.with_suffix(".lock")
    if not _acquire_build_lock(lock, out):
        return out
    src = out.with_suffix(f".{os.getpid()}.c")
    tmp = out.with_suffix(f".{os.getpid()}.so.tmp")
    try:
        if out.exists():  # finished while we raced for the lock
            return out
        src.write_text(C_SOURCE)
        subprocess.run([cc, *_CFLAGS, str(src), "-o", str(tmp)],
                       check=True, capture_output=True, text=True)
        os.replace(tmp, out)  # atomic: a partial .so can never be seen
    except subprocess.CalledProcessError as exc:
        raise RuntimeError(f"C kernel build failed:\n{exc.stderr}") from exc
    finally:
        for leftover in (src, tmp):
            try:
                leftover.unlink()
            except OSError:
                pass
        try:
            lock.unlink()
        except OSError:
            pass
    return out


def _load() -> ctypes.CDLL | bool:
    global _lib, _build_error, _keyed_isa
    if _lib is not None:
        return _lib
    if os.environ.get("REPRO_NO_CKERNEL", "") not in ("", "0"):
        _build_error = "disabled by REPRO_NO_CKERNEL"
        _lib = False
        return _lib
    try:
        lib = ctypes.CDLL(str(_compile()))
        # arrays go in as bare addresses (``_addr(arr)``): the
        # wrappers run checked() on every array a caller hands in and
        # allocate the rest, so ndpointer's per-call checks would only
        # repeat that, at about half the cost of a small call
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        for name, restype, argtypes in (
            ("repro_block_walk", i64, [ptr, ptr, i64] + [ptr] * 5 + [i64] + [ptr] * 6),
            ("repro_accumulate_exposures", i64,
             [i64, ptr, i64, ptr, ptr, ptr, i64, i64, ptr, ptr, i64] + [ptr] * 5),
            ("repro_keyed_raw", None, [i64, i64, ctypes.c_uint64, ptr, i64, ptr, ptr, i64]),
            ("repro_block_index", i64, [i64, ptr, i64, ptr, i64, ptr, i64, ptr, i64, i64]
             + [ptr] * 3),
            ("repro_keyed_isa", i64, []),
            ("repro_heavy_edge_matching", i64, [i64, ptr, ptr, i64, ptr, ptr, ptr]),
            ("repro_contract_count", i64, [i64, ptr, ptr, i64] + [ptr] * 6),
            ("repro_contract_fill", i64, [i64, i64, ptr, ptr, i64] + [ptr] * 6),
            ("repro_fm_refine", i64, [i64, ptr, ptr, i64, ptr, ptr, i64, ctypes.c_double,
                                      ctypes.c_double, i64, ptr, ptr, ptr]),
        ):
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
        _keyed_isa = lib.repro_keyed_isa()
        _lib = lib
    except (RuntimeError, OSError) as exc:
        _build_error = str(exc)
        _lib = False
    return _lib


def available() -> bool:
    """True iff the compiled kernel can be (or has been) built and loaded."""
    return _load() is not False


def build_error() -> str | None:
    """Why :func:`available` is False (None while available/untried)."""
    available()
    return _build_error


def checked(name: str, arr, dtype, shape: tuple):
    """``arr`` if a C loop may read it where it lies — a C-contiguous
    array of ``dtype`` (a tuple: any one of them) and ``shape`` — else
    ``ValueError`` naming ``name``, before any C runs.  Every array a
    caller hands a C entry point passes through here."""
    dtypes = dtype if isinstance(dtype, tuple) else (dtype,)
    if not (isinstance(arr, np.ndarray) and arr.dtype in dtypes and arr.shape == shape
            and arr.flags.c_contiguous):
        kind = ("bool mask" if dtypes == (np.bool_,)
                else " or ".join(np.dtype(d).name for d in dtypes) + " array")
        size = f"{shape[0]} entries" if len(shape) == 1 else f"shape {shape}"
        raise ValueError(f"{name} must be a {kind} of {size}, C-contiguous")
    return arr


def checked_masks(graph, owned, removed):
    """``[owned, removed]`` as the walks index them: each None or a
    :func:`checked` bool mask of ``n_locations`` / ``n_visits`` entries."""
    return [None if mask is None else checked(name, mask, np.bool_, (n,))
            for name, mask, n in (("owned", owned, graph.n_locations),
                                  ("removed", removed, graph.n_visits))]


def _addr(arr) -> int | None:
    """The address the C loop reads ``arr`` at (NULL for None)."""
    if arr is not None and arr.flags.writeable and arr.size:  # 1/3 of .ctypes.data's cost
        return ctypes.addressof(ctypes.c_char.from_buffer(arr))
    return None if arr is None else arr.ctypes.data


def _id_column(name: str, col, n: int) -> np.ndarray:
    """An id or time column as it lies if int32 / int64 (memmaps go
    uncopied), else widened to int64 — never narrowed: no bad value
    wraps into range — and :func:`checked` at length ``n``."""
    if col.dtype != np.int32:
        col = col.astype(np.int64, casting="safe", copy=False)
    return checked(name, np.ascontiguousarray(col), (np.int32, np.int64), (n,))


_PHASE_COLUMNS = ("visit_person", "visit_location", "visit_subloc", "visit_start", "visit_end")


def phase_columns(graph, health_state, disease):
    """``(keep_alive, col, width, role)`` for the location-phase loops:
    the C ``enum`` columns, each :func:`checked`, and per state bits
    1 / 2 = S / I.  One location phase builds it once for both loops
    (their ``columns=``); nothing keeps it past the phase."""
    cols = [_id_column(name, getattr(graph, name), graph.n_visits) for name in _PHASE_COLUMNS]
    cols.append(_id_column("health_state", health_state, graph.n_persons))
    role = disease.is_susceptible.astype(np.uint8) | disease.is_infectious.astype(np.uint8) << 1
    width = np.array([c.itemsize for c in cols], dtype=np.int64)
    return ((cols, width), (ctypes.c_void_p * 6)(*(c.ctypes.data for c in cols)),
            width.ctypes.data, role)


#: the location-phase loops' return codes 1 .. 3
_PHASE_ERRORS = ("visit_person out of range", "health_state out of range",
                 "rows / bptr out of range")


def _check(code: int, scratch: str, errors: tuple[str, ...] = _PHASE_ERRORS) -> None:
    """Raise for a C loop's return code: 4 is no memory for ``scratch``,
    1 .. 3 a ``ValueError`` with ``errors[code - 1]``."""
    if code == 4:
        raise MemoryError(scratch)
    if code:
        raise ValueError(errors[code - 1])


def block_walk(graph, health_state, disease, owned=None, removed=None, *, columns=None):
    """``(rows, bptr, walk_rows)`` of ``repro.core.exposure._numpy_walk``
    (the definition) by one C pass; ``owned`` / ``removed`` as
    :func:`checked_masks` takes them, ``columns`` as
    :func:`accumulate_exposures`."""
    lib = _loaded()
    owned, removed = checked_masks(graph, owned, removed)
    index, ptr, sub_off = graph.block_visit_index()
    person_ptr = graph.person_visit_slices()
    keep_alive, col, width, role = columns or phase_columns(graph, health_state, disease)
    rows, out = np.empty(graph.n_visits, dtype=np.int64), np.empty(3, dtype=np.int64)
    bptr = np.empty(min(graph.n_visits, ptr.size - 1) + 1, dtype=np.int64)
    mark = np.zeros(ptr.size - 1, dtype=np.uint8)
    _check(lib.repro_block_walk(
        col, width, graph.n_persons, *map(_addr, (person_ptr, sub_off, index, ptr, role)),
        role.size, *map(_addr, (owned, removed, mark, rows, bptr, out)),
    ), "block walk scratch")
    n, n_active, walk_rows = out.tolist()
    return rows[:n], bptr[:n_active + 1], walk_rows


def accumulate_exposures(rows, bptr, graph, health_state, disease, haz_table, *, columns=None):
    """``(keys, total_h, first_minute, pair_count, multi_slots,
    partner_records)`` of every ``(location, person)`` slot with a pair,
    keys ``location * n_persons + person``, grouped by ascending location
    but in no order within one, from the walk's ``(rows, bptr)`` by one
    C pass;
    ``haz_table[i * n_states + s]``: one overlap minute of state i with
    s.  ``multi_slots`` counts the slots of persons with two or more
    susceptible visits at the location (the row-order re-add),
    ``partner_records`` the infectious partner records the pair filter
    read, re-adds included; ``columns`` is :func:`phase_columns` of the
    same phase, if built."""
    lib = _loaded()
    keep_alive, col, width, role = columns or phase_columns(graph, health_state, disease)
    checked("rows", rows, np.int64, np.shape(rows))
    checked("bptr", bptr, np.int64, np.shape(bptr))
    haz_table = checked("haz_table", np.ascontiguousarray(haz_table, dtype=np.float64),
                        np.float64, (role.size ** 2,))
    keys, first_minute, pair_count = (np.empty(rows.size, dtype=np.int64) for _ in range(3))
    total_h, out = np.empty(rows.size, dtype=np.float64), np.zeros(2, dtype=np.int64)
    n = lib.repro_accumulate_exposures(
        rows.size, _addr(rows), bptr.size - 1, _addr(bptr), col, width, graph.n_visits,
        graph.n_persons, _addr(role), _addr(haz_table), role.size,
        *map(_addr, (keys, total_h, first_minute, pair_count, out)),
    )
    _check(-min(n, 0), "exposure accumulation scratch")
    multi_slots, partner_records = out.tolist()
    return keys[:n], total_h[:n], first_minute[:n], pair_count[:n], multi_slots, partner_records


def keyed_isa() -> int:
    """The widest lane level of the keyed pass this CPU runs, an index
    into :data:`KEYED_ISAS` / :data:`KEYED_LANES` (0 without the library)."""
    available()
    return _keyed_isa


def keyed_raw(root_seed: int, keys: np.ndarray, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Derived seed and first ``n_out`` raw PCG64 outputs of every key row,
    :data:`KEYED_LANES` keys per pass at level :func:`keyed_isa`.

    ``keys`` is a C-contiguous ``(n, k)`` ``int64`` matrix and
    ``root_seed`` a checked ``0 <= root_seed < 2**64`` (the C argument is
    ``uint64`` and would wrap anything else).  Returns ``(seeds, words)``
    — ``uint64`` arrays of shape ``(n,)`` and ``(n_out, n)``, equal to
    ``derive_seeds(root_seed, keys)`` and ``raw_outputs(seeds, n_out)``.
    """
    return _keyed_raw_at(keyed_isa(), root_seed, keys, n_out)


def _keyed_raw_at(level: int, root_seed: int, keys: np.ndarray, n_out: int):
    """:func:`keyed_raw` at lane level ``level``; ValueError above this CPU's."""
    if not 0 <= level <= keyed_isa():
        raise ValueError(f"lane level {level} is not in 0..{keyed_isa()} on this CPU")
    n, k = checked("keys", keys, np.int64, getattr(keys, "shape", ())).shape
    out = np.empty((1 + n_out, n), dtype=np.uint64)  # the seeds, then the words: one address
    at = _addr(out)
    _loaded().repro_keyed_raw(n, k, root_seed, _addr(keys), n_out, at, at + 8 * n, level)
    return out[0], out[1:]


#: repro_block_index's return codes 1 .. 4
_INDEX_ERRORS = ("visit_location out of range", "visit_subloc out of range",
                 "visit_person out of range", "visit_person is not sorted")


def block_index(graph, sub_bounds):
    """``(order, ptr, person_ptr)`` of ``PersonLocationGraph``'s block and
    person indexes by one C counting sort; ``sub_bounds`` is ``sub_off``
    with the block count appended (``n_locations + 1`` entries).  Id
    columns are read where they lie if int32 / int64, else widened, never
    narrowed (no bad id may wrap back into range).  An out-of-range id,
    or a ``visit_person`` that descends, raises ``ValueError`` naming
    its column."""
    loc, sub, person = (_id_column(name, getattr(graph, name), graph.n_visits)
                        for name in ("visit_location", "visit_subloc", "visit_person"))
    checked("sub_bounds", sub_bounds, np.int64, (graph.n_locations + 1,))
    ptr = np.zeros(int(sub_bounds[-1]) + 1, dtype=np.int64)
    person_ptr = np.zeros(graph.n_persons + 1, dtype=np.int64)
    order = np.empty(graph.n_visits, dtype=np.int64)
    bad = _loaded().repro_block_index(
        graph.n_visits, _addr(loc), loc.itemsize, _addr(sub), sub.itemsize, _addr(person),
        person.itemsize, _addr(sub_bounds), graph.n_locations, graph.n_persons,
        *map(_addr, (ptr, person_ptr, order)),
    )
    if bad:
        raise ValueError(_INDEX_ERRORS[bad - 1])
    return order, ptr, person_ptr


def _int64(name: str, arr, shape: tuple | None = None) -> np.ndarray:
    """``arr`` as a C-contiguous int64 array, widened (never narrowed) if
    it is of another integer type, :func:`checked` at ``shape`` (its own
    by default)."""
    arr = np.asarray(arr)
    if arr.dtype != np.int64 and np.can_cast(arr.dtype, np.int64):
        arr = arr.astype(np.int64)
    return checked(name, np.ascontiguousarray(arr), np.int64, arr.shape if shape is None else shape)


def _csr(graph) -> tuple[int, int, list[np.ndarray]]:
    """``(n, m, [xadj, adjncy, adjwgt, vwgt])`` of a CSR graph as the
    partitioner loops read them, each :func:`_int64`; the C loops check
    the CSR itself (:data:`_CSR_ERRORS`) before they write anything."""
    xadj = _int64("xadj", graph.xadj)
    if xadj.ndim != 1 or not xadj.size:
        raise ValueError("xadj must be a 1-D array of n + 1 entries")
    n, m = xadj.size - 1, np.size(graph.adjncy)
    return n, m, [xadj, _int64("adjncy", graph.adjncy, (m,)), _int64("adjwgt", graph.adjwgt, (m,)),
                  _int64("vwgt", graph.vwgt, (n, np.shape(graph.vwgt)[-1]))]


#: the partitioner loops' return codes 1 / 2 (3 names each loop's own array)
_CSR_ERRORS = ("xadj must start at 0, never decrease and end at len(adjncy)",
               "adjncy out of range [0, n)")


def heavy_edge_matching(graph, order: np.ndarray) -> np.ndarray:
    """``match`` of ``repro.partition.coarsen.heavy_edge_matching`` (the
    definition) by one C pass over the visit ``order`` it drew."""
    n, m, (xadj, adjncy, adjwgt, _) = _csr(graph)
    order = _int64("order", order, (n,))
    match = np.empty(n, dtype=np.int64)
    _check(_loaded().repro_heavy_edge_matching(n, _addr(xadj), _addr(adjncy), m, _addr(adjwgt),
                                               _addr(order), _addr(match)),
           "matching scratch", (*_CSR_ERRORS, "order out of range [0, n)"))
    return match


def contract(graph, match: np.ndarray):
    """``(xadj, adjncy, adjwgt, vwgt, coarse_map)`` of
    ``repro.partition.coarsen.contract`` (the definition) by a C count
    pass, then a fill into arrays of exactly the coarse graph's size."""
    n, m, (xadj, adjncy, adjwgt, vwgt) = _csr(graph)
    match = _int64("match", match, (n,))
    lib = _loaded()
    cmap, up_ptr = np.empty(n, dtype=np.int64), np.empty(n + 1, dtype=np.int64)
    up, out = np.empty(2 * m, dtype=np.int64), np.empty(2, dtype=np.int64)
    _check(lib.repro_contract_count(n, _addr(xadj), _addr(adjncy), m, _addr(adjwgt),
                                    *map(_addr, (match, cmap, up_ptr, up, out))),
           "contraction scratch", (*_CSR_ERRORS, "match out of range [0, n)"))
    nc, pairs = out.tolist()
    cxadj = np.empty(nc + 1, dtype=np.int64)
    cadjncy, cadjwgt = np.empty(2 * pairs, dtype=np.int64), np.empty(2 * pairs, dtype=np.int64)
    cvwgt = np.empty((nc, vwgt.shape[1]), dtype=np.int64)
    _check(lib.repro_contract_fill(n, vwgt.shape[1], _addr(vwgt), _addr(cmap), nc,
                                   *map(_addr, (up_ptr, up, cxadj, cadjncy, cadjwgt, cvwgt))),
           "contraction scratch")
    return cxadj, cadjncy, cadjwgt, cvwgt, cmap


def fm_refine(graph, part: np.ndarray, target_frac: float, ubfactor: float,
              max_passes: int) -> tuple[np.ndarray, int, int, int]:
    """``repro.partition.refine._fm_passes`` (the definition) in one C
    call: refines the int8 0 / 1 vector ``part`` in place and returns
    ``(gain, passes, moves, pushes)``, ``gain`` being ``all_gains`` of
    the refined ``part``."""
    n, m, (xadj, adjncy, adjwgt, vwgt) = _csr(graph)
    if not checked("part", part, np.int8, (n,)).flags.writeable:
        raise ValueError("part must be writeable: it is refined in place")
    gain, out = np.empty(n, dtype=np.int64), np.empty(3, dtype=np.int64)
    _check(_loaded().repro_fm_refine(
        n, _addr(xadj), _addr(adjncy), m, _addr(adjwgt), _addr(vwgt), vwgt.shape[1],
        target_frac, ubfactor, max_passes, *map(_addr, (part, gain, out)),
    ), "FM scratch", (*_CSR_ERRORS, "part must hold only 0 / 1"))
    return gain, *out.tolist()


def _loaded() -> ctypes.CDLL:
    lib = _load()
    if lib is False:
        raise RuntimeError(f"compiled kernel unavailable: {_build_error}")
    return lib
