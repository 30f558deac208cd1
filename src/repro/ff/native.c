/* The level step's inner loops, compiled: the neighbour gather-XOR, the
 * bit-sliced GF(2^m) multiply (and sum of products) and a row's scaling
 * by its field value.  Loaded through ctypes by repro/ff/native.py; the
 * numpy code in repro/ff/bitsliced.py and repro/core/leveldp.py is the
 * reference these loops equal bit for bit.
 *
 * A state is a C-contiguous (rows, m, W) uint64 array of bit-planes:
 * plane b of row r, word w, lies at base[(r * m + b) * W + w].  No
 * function allocates, keeps a pointer or starts a thread.  -O3 for every
 * target (an AVX2 clone, target_clones, measured no faster and doubled the
 * build), loops aligned to 32 bytes: see FLAGS in native.py.
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

/* Row p of dst is the XOR of the src rows indices[indptr[p] .. indptr[p+1]),
 * every row `words` words long. */
void repro_gather_xor(idx n, const idx *indptr, const idx *indices,
                      const word *src, word *dst, idx words)
{
    for (idx p = 0; p < n; p++) {
        word *restrict d = dst + p * words;
        memset(d, 0, (size_t)words * sizeof(word));
        for (idx e = indptr[p]; e < indptr[p + 1]; e++) {
            const word *restrict s = src + indices[e] * words;
            for (idx w = 0; w < words; w++)
                d[w] ^= s[w];
        }
    }
}

/* A tile is L lanes of one plane each: lane c is word w of row r, for
 * consecutive (r, w) in row-major order, so a tile spans rows when W < L.
 * Its loops have a fixed trip count, which the compiler vectorises. */
#define L 8

/* A tile that spans rows, or the last one: lane by lane (out of line, so
 * the compiler builds it once, not at every call). */
static OUT_OF_LINE void load_lanes(word t[][L], const word *p, int m, idx W,
                                   idx q0, idx n)
{
    idx r = q0 / W, w = q0 % W;
    for (idx c = 0; c < L; c++, w++) {
        if (w == W) {
            w = 0;
            r++;
        }
        for (int i = 0; i < m; i++)
            t[i][c] = c < n ? p[(r * m + i) * W + w] : 0;
    }
}

static OUT_OF_LINE void store_lanes(word *out, int m, idx W, word t[][L], idx q0,
                                    idx n)
{
    idx r = q0 / W, w = q0 % W;
    for (idx c = 0; c < n; c++, w++) {
        if (w == W) {
            w = 0;
            r++;
        }
        for (int i = 0; i < m; i++)
            out[(r * m + i) * W + w] = t[i][c];
    }
}

/* Planes m of tile q0 .. q0 + n of p into t (zero past n). */
static inline void load(word t[][L], const word *p, int m, idx W, idx q0, idx n)
{
    idx r = q0 / W, w = q0 % W;
    if (n < L || w + L > W) {
        load_lanes(t, p, m, W, q0, n);
        return;
    }
    for (int i = 0; i < m; i++)
        memcpy(t[i], p + (r * m + i) * W + w, sizeof t[i]);
}

static inline void store(word *out, int m, idx W, word t[][L], idx q0, idx n)
{
    idx r = q0 / W, w = q0 % W;
    if (n < L || w + L > W) {
        store_lanes(out, m, W, t, q0, n);
        return;
    }
    for (int i = 0; i < m; i++)
        memcpy(out + (r * m + i) * W + w, t[i], sizeof t[i]);
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

/* out = sum over the pairs of a[p] * b[p], every state (rows, m, W): per
 * tile the schoolbook's 2m - 1 partial planes of every product, then one
 * reduction. */
void repro_mul_sum(int m, uint32_t modulus, idx rows, idx W, int npairs,
                   const word *const *a, const word *const *b, word *out)
{
    word t[2 * MAX_M - 1][L], ta[MAX_M][L], tb[MAX_M][L];
    for (idx q0 = 0; q0 < rows * W; q0 += L) {
        idx n = rows * W - q0 < L ? rows * W - q0 : L;
        memset(t, 0, sizeof t);
        for (int p = 0; p < npairs; p++) {
            load(ta, a[p], m, W, q0, n);
            load(tb, b[p], m, W, q0, n);
            schoolbook(t, ta, tb, m);
        }
        reduce(t, m, modulus);
        store(out, m, W, t, q0, n);
    }
}

/* Row r of acc times y[r * blocks + k] on the lanes of block k --
 * [k n2, (k + 1) n2), or every lane of the row when blocks == 1 -- ANDed
 * with the row's lane words (rows, W) if given, 0 on lanes no block holds:
 * the schoolbook against the planes of those values, built a tile at a
 * time.  With acc NULL the result is those planes (acc is 1). */
void repro_scale(int m, uint32_t modulus, idx rows, idx W,
                 const uint32_t *y, idx blocks, idx n2,
                 const word *lanes, const word *acc, word *out)
{
    word t[2 * MAX_M - 1][L], ta[MAX_M][L], tb[MAX_M][L];
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
            word keep = lanes ? lanes[r * W + w] : ~(word)0;
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
            store(out, m, W, ta, q0, n);
            continue;
        }
        memset(t, 0, sizeof t);
        load(tb, acc, m, W, q0, n);
        schoolbook(t, ta, tb, m);
        reduce(t, m, modulus);
        store(out, m, W, t, q0, n);
    }
}
