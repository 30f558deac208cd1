/* The level step's inner loops, compiled: the neighbour gather-XOR, the
 * bit-sliced GF(2^m) multiply (and sum of products) and a row's scaling
 * by its field value.  Loaded through ctypes by repro/ff/native.py; the
 * numpy code in repro/ff/bitsliced.py and repro/core/leveldp.py is the
 * reference these loops equal bit for bit.
 *
 * A state is logical (rows, m, W) uint64 bit-planes: plane b of row r,
 * word w, lies at base[r * rs + b * ps + w] -- any row and plane stride
 * (in words, 0 to broadcast), unit word stride.  No function allocates,
 * keeps a pointer or starts a thread.  Plain -O3 for every target: an
 * AVX2 clone (target_clones) measured no faster and doubled the build.
 */
#include <stdint.h>
#include <string.h>

typedef uint64_t word;
typedef int64_t idx;

#define MAX_M 16

#if defined(__GNUC__)
#define OUT_OF_LINE __attribute__((noinline))
#else
#define OUT_OF_LINE
#endif

/* Row p of dst is the XOR of the src rows indices[indptr[p] .. indptr[p+1]). */
void repro_gather_xor(idx n_rows, const idx *indptr, const idx *indices,
                      const word *src, idx src_rs, idx src_ps,
                      word *dst, idx dst_rs, idx dst_ps, int m, idx W)
{
    if (src_ps == W && dst_ps == W) { /* whole rows contiguous: one run */
        W *= m;
        m = 1;
    }
    for (idx p = 0; p < n_rows; p++) {
        word *d = dst + p * dst_rs;
        for (int b = 0; b < m; b++)
            memset(d + b * dst_ps, 0, (size_t)W * sizeof(word));
        for (idx e = indptr[p]; e < indptr[p + 1]; e++) {
            const word *s = src + indices[e] * src_rs;
            for (int b = 0; b < m; b++) {
                word *restrict db = d + b * dst_ps;
                const word *restrict sb = s + b * src_ps;
                for (idx w = 0; w < W; w++)
                    db[w] ^= sb[w];
            }
        }
    }
}

/* A tile is L lanes of one plane each: lane c is word w of row r, for
 * consecutive (r, w) in row-major order, so a tile spans rows when W < L.
 * Its loops have a fixed trip count, which the compiler vectorises. */
#define L 8

typedef struct {
    const word *base;
    idx rs, ps, W;
} planes;

/* A tile that spans rows, or the last one: lane by lane (out of line, so
 * the compiler builds it once, not at every call). */
static OUT_OF_LINE void load_lanes(word t[][L], const planes *p, int m, idx q0,
                                   idx n)
{
    idx r = q0 / p->W, w = q0 % p->W;
    for (idx c = 0; c < L; c++, w++) {
        if (w == p->W) {
            w = 0;
            r++;
        }
        for (int i = 0; i < m; i++)
            t[i][c] = c < n ? p->base[r * p->rs + i * p->ps + w] : 0;
    }
}

static OUT_OF_LINE void store_lanes(word *out, idx rs, idx ps, idx W, word t[][L],
                                    int m, idx q0, idx n)
{
    idx r = q0 / W, w = q0 % W;
    for (idx c = 0; c < n; c++, w++) {
        if (w == W) {
            w = 0;
            r++;
        }
        for (int i = 0; i < m; i++)
            out[r * rs + i * ps + w] = t[i][c];
    }
}

/* Planes m of tile q0 .. q0 + n of p into t (zero past n). */
static inline void load(word t[][L], const planes *p, int m, idx q0, idx n)
{
    idx r = q0 / p->W, w = q0 % p->W;
    if (n < L || w + L > p->W) {
        load_lanes(t, p, m, q0, n);
        return;
    }
    for (int i = 0; i < m; i++)
        memcpy(t[i], p->base + r * p->rs + i * p->ps + w, sizeof t[i]);
}

static inline void store(word *out, idx rs, idx ps, idx W, word t[][L], int m,
                         idx q0, idx n)
{
    idx r = q0 / W, w = q0 % W;
    if (n < L || w + L > W) {
        store_lanes(out, rs, ps, W, t, m, q0, n);
        return;
    }
    for (int i = 0; i < m; i++)
        memcpy(out + r * rs + i * ps + w, t[i], sizeof t[i]);
}

/* t (2m - 1 partial planes) ^= a * b, the carry-less schoolbook. */
static inline void schoolbook(word t[][L], word a[][L], word b[][L], int m)
{
    for (int i = 0; i < m; i++)
        for (int j = 0; j < m; j++)
            for (int c = 0; c < L; c++)
                t[i + j][c] ^= a[i][c] & b[j][c];
}

/* x^m = sum of x^s over the taps s: fold partial planes 2m-2 .. m down. */
static inline void reduce(word t[][L], int m, uint32_t modulus)
{
    for (int d = 2 * m - 2; d >= m; d--)
        for (int s = 0; s < m; s++)
            if ((modulus >> s) & 1)
                for (int c = 0; c < L; c++)
                    t[d - m + s][c] ^= t[d][c];
}

/* out = sum over the pairs of a[p] * b[p], each pair (rows, m, W) planes
 * with strides {rs, ps} in a_st[2p..] / b_st[2p..]: per tile the
 * schoolbook's 2m - 1 partial planes of every product, then one
 * reduction. */
void repro_mul_sum(int m, uint32_t modulus, idx rows, idx W, int npairs,
                   const word *const *a, const idx *a_st,
                   const word *const *b, const idx *b_st,
                   word *out, idx o_rs, idx o_ps)
{
    word t[2 * MAX_M - 1][L], ta[MAX_M][L], tb[MAX_M][L];
    for (idx q0 = 0; q0 < rows * W; q0 += L) {
        idx n = rows * W - q0 < L ? rows * W - q0 : L;
        memset(t, 0, sizeof t);
        for (int p = 0; p < npairs; p++) {
            planes pa = {a[p], a_st[2 * p], a_st[2 * p + 1], W};
            planes pb = {b[p], b_st[2 * p], b_st[2 * p + 1], W};
            load(ta, &pa, m, q0, n);
            load(tb, &pb, m, q0, n);
            schoolbook(t, ta, tb, m);
        }
        reduce(t, m, modulus);
        store(out, o_rs, o_ps, W, t, m, q0, n);
    }
}

/* Row r of acc times y[r * blocks + k] on the lanes of block k --
 * [k n2, (k + 1) n2), or every lane of the row when blocks == 1 -- ANDed
 * with the row's lane words if given, 0 on lanes no block holds: the
 * schoolbook against the planes of those values, built a tile at a time.
 * With acc NULL the result is those planes (acc is 1). */
void repro_scale(int m, uint32_t modulus, idx rows, idx W,
                 const uint32_t *y, idx blocks, idx n2,
                 const word *lanes, idx l_rs,
                 const word *acc, idx a_rs, idx a_ps,
                 word *out, idx o_rs, idx o_ps)
{
    word t[2 * MAX_M - 1][L], ta[MAX_M][L], tb[MAX_M][L];
    planes pb = {acc, a_rs, a_ps, W};
    for (idx q0 = 0; q0 < rows * W; q0 += L) {
        idx n = rows * W - q0 < L ? rows * W - q0 : L;
        idx r = q0 / W, w = q0 % W;
        for (idx c = 0; c < L; c++, w++) {
            if (w == W) {
                w = 0;
                r++;
            }
            for (int i = 0; i < m; i++)
                ta[i][c] = 0;
            if (c >= n)
                continue;
            word keep = lanes ? lanes[r * l_rs + w] : ~(word)0;
            const uint32_t *yr = y + r * blocks;
            if (blocks == 1) {
                for (int i = 0; i < m; i++)
                    ta[i][c] = keep & ((word)0 - (word)((yr[0] >> i) & 1));
                continue;
            }
            idx first = 64 * w; /* the word's lanes, block by block */
            for (idx k = first / n2; k < blocks && k * n2 < first + 64; k++) {
                idx lo = k * n2 - first, hi = lo + n2;
                word in = keep;
                if (lo > 0)
                    in &= ~(word)0 << lo;
                if (hi < 64)
                    in &= ~(word)0 >> (64 - hi);
                for (int i = 0; i < m; i++)
                    ta[i][c] |= in & ((word)0 - (word)((yr[k] >> i) & 1));
            }
        }
        if (acc == NULL) {
            store(out, o_rs, o_ps, W, ta, m, q0, n);
            continue;
        }
        memset(t, 0, sizeof t);
        load(tb, &pb, m, q0, n);
        schoolbook(t, ta, tb, m);
        reduce(t, m, modulus);
        store(out, o_rs, o_ps, W, t, m, q0, n);
    }
}
