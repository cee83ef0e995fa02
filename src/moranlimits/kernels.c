/* The package's compiled kernels (native.py): one path of the Moran chain
   through one batch of draws (simulate.py), the RK4 sweeps of the flow
   oracle (deterministic.py) and of the variance oracle (fluctuations.py),
   a block of rows of the Gaussian path sampler (fluctuations.py), and the
   CSV rows of float64 and int64 columns (io.py).
   Built with -ffp-contract=off: a fused multiply-add would round once
   where Python and numpy round twice, so each kernel equals its Python
   body bit for bit. The sampler draws with numpy's own normal from
   libnpyrandom.a, which native.py links where numpy ships it. */
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef struct {
    const double *rates, *p_up, *grid, *waits, *coins;
    int64_t *grid_states;
    double *times;   /* with states, NULL unless every event is kept */
    int64_t *states;
    int64_t n_grid, k, gi, kept;
    double t;
} chain_t;

/* Runs events on waits[0..n) and coins[0..n) from state k at time t.
   Returns 0 once the n draws are spent, 1 at the first event past the
   grid's end, 2 at a state of rate 0. k stays in 0..N: p_up is 1 at
   state 0 and 0 at state N wherever their rate is positive. */
int chain_step(chain_t *c, int64_t n)
{
    const double *rates = c->rates, *p_up = c->p_up, *grid = c->grid;
    const double t_end = grid[c->n_grid - 1];
    double t = c->t;
    int64_t k = c->k, gi = c->gi, kept = 0, i = 0;
    int status;
    for (;;) {
        double rate = rates[k];
        if (rate <= 0.0) { status = 2; break; }
        if (i == n) { status = 0; break; }
        double t_next = t + c->waits[i] / rate;
        int up = c->coins[i] < p_up[k];
        i++;
        if (t_next > t_end) { status = 1; break; }
        /* state k holds on [t, t_next); grid points there read k */
        while (gi < c->n_grid && grid[gi] < t_next) c->grid_states[gi++] = k;
        t = t_next;
        k += up ? 1 : -1;
        if (c->times) { c->times[kept] = t; c->states[kept++] = k; }
    }
    c->t = t;
    c->k = k;
    c->gi = gi;
    c->kept = kept;
    return status;
}

/* The RK4 sweeps follow rk4._march. Each of m independent rows starts at
   t = 0 and is stepped through the times ts[0..n_times), each span
   between them in n = max(1, ceil(span / max_step - eps)) equal steps.
   The stages associate as _march's: y + (0.5 h) k1, y + h k3 and
   y + (h / 6) (((k1 + 2 k2) + 2 k3) + k4). coef holds one coefficient
   per row for each of the system's coefficients, row after row, and out
   the state at ts[j] of row i at out[j * m + i]. A sweep returns 1,
   leaving out part written, where a span takes more than 2^53 steps (the
   count is no longer an exact double), and 0 otherwise. */

/* The steps over span, or 0 where there are more than 2^53. */
static double sub_steps(double span, double max_step, double eps)
{
    double n = ceil(span / max_step - eps);
    if (!(n <= 9007199254740992.0)) return 0.0;
    return n < 1.0 ? 1.0 : n;
}

/* z' = (a z + b) z + c, with the flow oracle's unit snap after each step:
   a state in (low, 0) becomes 0 and one in (1, high) becomes 1. */
int rk4_flow(int64_t m, const double *coef, const double *y0, int64_t n_times,
             const double *ts, double max_step, double eps, double low,
             double high, double *out)
{
    for (int64_t i = 0; i < m; i++) {
        const double a = coef[i], b = coef[m + i], c = coef[2 * m + i];
        double y = y0[i], t_prev = 0.0;
        for (int64_t j = 0; j < n_times; j++) {
            double span = ts[j] - t_prev;
            if (span > 0.0) {
                double n = sub_steps(span, max_step, eps);
                if (n == 0.0) return 1;
                double h = span / n, half = 0.5 * h, sixth = h / 6.0;
                for (double step = 0.0; step < n; step += 1.0) {
                    double k1 = (a * y + b) * y + c;
                    double x = y + half * k1;
                    double k2 = (a * x + b) * x + c;
                    x = y + half * k2;
                    double k3 = (a * x + b) * x + c;
                    x = y + h * k3;
                    double k4 = (a * x + b) * x + c;
                    y = y + sixth * (((k1 + 2.0 * k2) + 2.0 * k3) + k4);
                    if (y < 0.0) {
                        if (y > low) y = 0.0;
                    } else if (1.0 < y && y < high) {
                        y = 1.0;
                    }
                }
            }
            out[j * m + i] = y;
            t_prev = ts[j];
        }
    }
    return 0;
}

/* The variance system's coefficients, one row's. */
typedef struct {
    double a, b, c, ga, gb, gc, r;
} variance_t;

/* (z, v)' = (drift(z), 2 drift_slope(z) v + diffusion(z)) / r, with
   drift(z) = (a z + b) z + c, drift_slope(z) = 2 a z + b and
   diffusion(z) = (ga z + gb) z + gc, as fluctuations.variance_ode's rhs. */
static void variance_rhs(const variance_t *p, double z, double v, double *dz, double *dv)
{
    double slope = 2.0 * p->a * z + p->b;
    double noise = (p->ga * z + p->gb) * z + p->gc;
    *dz = ((p->a * z + p->b) * z + p->c) / p->r;
    *dv = (2.0 * slope * v + noise) / p->r;
}

/* The variance system from (y0, 0); coef holds a, b, c, ga, gb, gc and r,
   and out holds v. */
int rk4_variance(int64_t m, const double *coef, const double *y0, int64_t n_times,
                 const double *ts, double max_step, double eps, double *out)
{
    for (int64_t i = 0; i < m; i++) {
        const variance_t p = {coef[i], coef[m + i], coef[2 * m + i], coef[3 * m + i],
                              coef[4 * m + i], coef[5 * m + i], coef[6 * m + i]};
        double z = y0[i], v = 0.0, t_prev = 0.0;
        for (int64_t j = 0; j < n_times; j++) {
            double span = ts[j] - t_prev;
            if (span > 0.0) {
                double n = sub_steps(span, max_step, eps);
                if (n == 0.0) return 1;
                double h = span / n, half = 0.5 * h, sixth = h / 6.0;
                for (double step = 0.0; step < n; step += 1.0) {
                    double z1, v1, z2, v2, z3, v3, z4, v4;
                    variance_rhs(&p, z, v, &z1, &v1);
                    variance_rhs(&p, z + half * z1, v + half * v1, &z2, &v2);
                    variance_rhs(&p, z + half * z2, v + half * v2, &z3, &v3);
                    variance_rhs(&p, z + h * z3, v + h * v3, &z4, &v4);
                    z = z + sixth * (((z1 + 2.0 * z2) + 2.0 * z3) + z4);
                    v = v + sixth * (((v1 + 2.0 * v2) + 2.0 * v3) + v4);
                }
            }
            out[j * m + i] = v;
            t_prev = ts[j];
        }
    }
    return 0;
}

/* format_table writes CSV rows as io.format_cell writes their cells: str
   of an int64 and repr of a float64. A float whose shortest round-trip
   digits can be found exactly on 128-bit integers (the window below) is
   written by shortest(). Any other (nan, +-inf, a subnormal, or one
   outside the window) is written by CPython's own
   PyOS_double_to_string(x, 'r', 0, Py_DTSF_ADD_DOT_0, NULL), the call of
   float.__repr__, and its text freed with PyMem_Free. Both allocate
   through CPython, so the caller holds the GIL.

   Digits are written two at a time from the pairs "00".."99". An int's
   go straight into its cell. A float's 17 go to a scratch array, from
   two independent 8-digit halves, and are copied into the cell in fixed
   lengths, not in the text's own; such a copy may run up to 9 bytes
   past the cell's room (see format_table), bytes the next cell, or the
   caller's tail pad, takes. */
typedef char *(*repr_t)(double, char, int, int, int *);
typedef void (*release_t)(void *);
#define PY_DTSF_ADD_DOT_0 2

static const char digit_pairs[201] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

static const uint64_t powers10[20] = {
    UINT64_C(1), UINT64_C(10), UINT64_C(100), UINT64_C(1000), UINT64_C(10000),
    UINT64_C(100000), UINT64_C(1000000), UINT64_C(10000000), UINT64_C(100000000),
    UINT64_C(1000000000), UINT64_C(10000000000), UINT64_C(100000000000),
    UINT64_C(1000000000000), UINT64_C(10000000000000), UINT64_C(100000000000000),
    UINT64_C(1000000000000000), UINT64_C(10000000000000000),
    UINT64_C(100000000000000000), UINT64_C(1000000000000000000),
    UINT64_C(10000000000000000000),
};

/* The digits of v >= 1. */
static int digit_count(uint64_t v)
{
    const int guess = (64 - __builtin_clzll(v)) * 1233 >> 12; /* log10 2 ~ 1233 / 2^12 */
    return guess + (v >= powers10[guess]);
}

/* Writes the 8 digits of v < 10^8, leading zeros included. */
static void write_8_digits(char *p, uint32_t v)
{
    const uint32_t high = v / 10000, low = v % 10000;
    memcpy(p, digit_pairs + 2 * (high / 100), 2);
    memcpy(p + 2, digit_pairs + 2 * (high % 100), 2);
    memcpy(p + 4, digit_pairs + 2 * (low / 100), 2);
    memcpy(p + 6, digit_pairs + 2 * (low % 100), 2);
}

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

/* The window: x = m 2^(e2 + 2), m in [2^52, 2^53), e2 in [E2_LOW, E2_HIGH],
   that is 2^-46 (about 1.4e-14) <= |x| < 2^127 (about 1.7e38). Each bound
   of x's rounding interval is M 2^e2 with M < 2^55 (4m - 2 or 4m - 1
   below, 4m + 2 above, and x itself 4m), and is scaled by 10^d, d the
   least integer with 10^d 2^e2 >= 4. The scaled interval then spans at
   least 12 units, so one digit at least is removed below, and each scaled
   value is under 40 M < 2^61. For d >= 0 the product M 5^d < 2^55 5^31
   fits 128 bits (d <= 31 holds from e2 = -100 on); for d < 0, M 2^e2 <
   2^127 does. */
#define E2_LOW (-100)
#define E2_HIGH 72

typedef struct {
    u128 pow5[32], pow10[32];
    int8_t decimals[E2_HIGH - E2_LOW + 1]; /* d of each e2 */
} scales_t;

static void make_scales(scales_t *s)
{
    s->pow5[0] = s->pow10[0] = 1;
    for (int i = 1; i < 32; i++) {
        s->pow5[i] = 5 * s->pow5[i - 1];
        s->pow10[i] = 10 * s->pow10[i - 1];
    }
    for (int e2 = E2_LOW; e2 <= E2_HIGH; e2++) {
        int d = 0;
        if (e2 <= 2) {
            while (s->pow10[d] < (u128)1 << (2 - e2)) d++;
        } else {
            while (4 * s->pow10[d + 1] <= (u128)1 << e2) d++;
            d = -d;
        }
        s->decimals[e2 - E2_LOW] = (int8_t)d;
    }
}

/* n 2^shift rounded down; *exact tells whether nothing was cut off. */
static uint64_t shift_bound(u128 n, int shift, int *exact)
{
    if (shift >= 0) {
        *exact = 1;
        return (uint64_t)(n << shift);
    }
    *exact = (n & (((u128)1 << -shift) - 1)) == 0;
    return (uint64_t)(n >> -shift);
}

/* M 2^e2 10^d, d < 0, rounded down; *exact as above. */
static uint64_t divide_bound(uint64_t M, int e2, int d, const scales_t *s, int *exact)
{
    u128 n = (u128)M << e2, q = n / s->pow10[-d];
    *exact = q * s->pow10[-d] == n;
    return (uint64_t)q;
}

/* Writes repr(x) where x is 0 or lies in the window and returns the end
   of the text; returns NULL, having written nothing, for any other x.
   The digits are those of Ryu's general case (Adams 2018) on exact
   bounds: the fewest that lie in x's rounding interval, which holds its
   ends where m is even, and of those the nearest to x, ties to even.
   They are laid out as float.__repr__ does: exponent form where the
   decimal point would sit 4 or more places before the first digit or
   more than 16 after it, and ".0" after an integral value. */
static char *shortest(char *p, double x, const scales_t *s)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const int negative = (int)(bits >> 63), biased = (int)(bits >> 52) & 0x7ff;
    const uint64_t fraction = bits & ((UINT64_C(1) << 52) - 1);
    if (biased == 0 && fraction == 0) {
        if (negative) *p++ = '-';
        memcpy(p, "0.0", 3);
        return p + 3;
    }
    const int e2 = biased - 1077;
    if (biased == 0 || e2 < E2_LOW || e2 > E2_HIGH) return NULL;
    const uint64_t m = fraction | (UINT64_C(1) << 52);
    /* below a power of two the next double is half as far */
    const int even = (m & 1) == 0, d = s->decimals[e2 - E2_LOW], below = 1 + (fraction != 0);
    int vr_exact, vp_exact, vm_exact;
    uint64_t vr, vp, vm;
    if (d >= 0) {
        /* the bounds are linear in M: one product, and the others from it */
        const u128 unit = s->pow5[d], r = (u128)(4 * m) * unit;
        vr = shift_bound(r, e2 + d, &vr_exact);
        vp = shift_bound(r + 2 * unit, e2 + d, &vp_exact);
        vm = shift_bound(r - below * unit, e2 + d, &vm_exact);
    } else {
        vr = divide_bound(4 * m, e2, d, s, &vr_exact);
        vp = divide_bound(4 * m + 2, e2, d, s, &vp_exact);
        vm = divide_bound(4 * m - below, e2, d, s, &vm_exact);
    }

    /* vm_zeros: vm's removed digits are all 0 and the lower end may be
       written (m even); vr_zeros: those of vr below the last removed one
       (last) are. An upper end that may not be written is left out. */
    int vm_zeros = even && vm_exact, vr_zeros = vr_exact, last = 0, removed = 0;
    if (!even && vp_exact) vp--;
    while (vp / 10 > vm / 10) {
        vm_zeros &= vm % 10 == 0;
        vr_zeros &= last == 0;
        last = (int)(vr % 10);
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed++;
    }
    if (vm_zeros) {
        while (vm % 10 == 0) {
            vr_zeros &= last == 0;
            last = (int)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
    }
    if (vr_zeros && last == 5 && vr % 2 == 0) last = 4; /* a tie: round to even */
    uint64_t output = vr + ((vr == vm && !vm_zeros) || last >= 5);
    int exp10 = removed - d;
    while (output % 10 == 0) {
        output /= 10;
        exp10++;
    }

    /* output has n <= 17 digits: scaled to 17, they take fixed places in
       digits, with '0' after the last, which the copies below read */
    const int n = digit_count(output), decpt = n + exp10; /* |x| = 0.DIGITS 10^decpt */
    const uint64_t scaled = output * powers10[17 - n], rest = scaled % powers10[16];
    char digits[32];
    digits[0] = (char)('0' + scaled / powers10[16]);
    write_8_digits(digits + 1, (uint32_t)(rest / powers10[8]));
    write_8_digits(digits + 9, (uint32_t)(rest % powers10[8]));
    memset(digits + 17, '0', 15);

    *p = '-';
    p += negative;
    if (decpt <= -4 || decpt > 16) {
        p[0] = digits[0];
        p[1] = '.';
        memcpy(p + 2, digits + 1, 16);
        p += n > 1 ? n + 1 : 1;
        const int e = decpt - 1; /* -14..38 in the window */
        p[0] = 'e';
        p[1] = e < 0 ? '-' : '+';
        memcpy(p + 2, digit_pairs + 2 * (e < 0 ? -e : e), 2);
        return p + 4;
    }
    if (decpt <= 0) {
        memcpy(p, "0.000", 5);
        memcpy(p + 2 - decpt, digits, 17);
        return p + 2 - decpt + n;
    }
    memcpy(p, digits, 16);
    if (decpt < n) {
        p[decpt] = '.';
        memcpy(p + decpt + 1, digits + decpt, 16);
        return p + n + 1;
    }
    /* integral: digits holds '0' up to the point */
    memcpy(p + decpt, ".0", 2);
    return p + decpt + 2;
}
#endif

/* str(value), its digits written from the last one back. */
static char *write_int(char *p, int64_t value)
{
    uint64_t rest = value < 0 ? 0 - (uint64_t)value : (uint64_t)value;
    *p = '-';
    p += value < 0;
    if (rest < 10) {
        *p = (char)('0' + rest);
        return p + 1;
    }
    char *const end = p + digit_count(rest);
    for (p = end; rest >= 100; rest /= 100) {
        p -= 2;
        memcpy(p, digit_pairs + 2 * (rest % 100), 2);
    }
    if (rest >= 10) {
        memcpy(p - 2, digit_pairs + 2 * rest, 2);
    } else {
        p[-1] = (char)('0' + rest);
    }
    return end;
}

/* Writes n_rows rows of n_cols columns to out: columns[j] is an int64
   array, or a float64 one where is_float[j], each cell is followed by ','
   or, at the row's end, '\n'. A cell's room is 25 bytes: no repr of a
   float is longer than 24 (-2.2250738585072014e-308), nor str of an int64
   than 20. A float's fixed-length copies reach at most 34 bytes past its
   cell's start (-1234567890123456.8), 9 past its room, so out holds 25
   bytes a cell and a tail pad of 16 more (native._TAIL_PAD). Returns the
   bytes written, or -1 where repr fails, with its exception set. */
int64_t format_table(int64_t n_cols, const int8_t *is_float, const void *const *columns,
                     int64_t n_rows, char *out, repr_t repr, release_t release)
{
#ifdef __SIZEOF_INT128__
    scales_t scales;
    make_scales(&scales);
#endif
    char *p = out;
    for (int64_t i = 0; i < n_rows; i++) {
        for (int64_t j = 0; j < n_cols; j++) {
            if (!is_float[j]) {
                p = write_int(p, ((const int64_t *)columns[j])[i]);
            } else {
                const double x = ((const double *)columns[j])[i];
                char *end = NULL;
#ifdef __SIZEOF_INT128__
                end = shortest(p, x, &scales);
#endif
                if (end == NULL) {
                    char *text = repr(x, 'r', 0, PY_DTSF_ADD_DOT_0, NULL);
                    if (text == NULL) return -1;
                    size_t length = strlen(text);
                    memcpy(p, text, length);
                    release(text);
                    end = p + length;
                }
                p = end;
            }
            *p++ = j + 1 < n_cols ? ',' : '\n';
        }
    }
    return p - out;
}

/* numpy's bit generator (numpy/random/bitgen.h), and its normal draw from
   libnpyrandom.a. native.py links the archive where numpy ships it; the
   reference is weak, so the other kernels build without it, and the
   function is NULL there. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

extern double random_standard_normal(bitgen_t *bitgen) __attribute__((weak));

#ifdef __SIZEOF_INT128__
/* numpy's PCG64 (XSL-RR output on a 128-bit LCG), as pcg64.h writes it. */
typedef struct {
    u128 state, inc;
    int has_uint32;
    uint32_t uinteger;
} pcg64_t;

#define PCG64_MULTIPLIER (((u128)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL)

static uint64_t pcg64_next64(void *st)
{
    pcg64_t *g = st;
    g->state = g->state * PCG64_MULTIPLIER + g->inc;
    uint64_t x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return (x >> rot) | (x << ((-rot) & 63));
}

static uint32_t pcg64_next32(void *st)
{
    pcg64_t *g = st;
    if (g->has_uint32) {
        g->has_uint32 = 0;
        return g->uinteger;
    }
    uint64_t next = pcg64_next64(st);
    g->has_uint32 = 1;
    g->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

static double pcg64_next_double(void *st)
{
    return (double)(pcg64_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* pcg64_set_seed: the state from words 0-1 of a path's seed-sequence
   output and the increment from words 2-3, high word first. */
static void pcg64_seed(pcg64_t *g, const uint64_t *words)
{
    u128 seed = ((u128)words[0] << 64) | words[1];
    u128 inc = ((u128)words[2] << 64) | words[3];
    g->state = 0;
    g->inc = (inc << 1) | 1;
    g->state = g->state * PCG64_MULTIPLIER + g->inc;
    g->state += seed;
    g->state = g->state * PCG64_MULTIPLIER + g->inc;
    g->has_uint32 = 0;
    g->uinteger = 0;
}
#endif

/* Rows first..last of the Gaussian path sampler
   (fluctuations.sample_fluctuation_paths). Row p of out, n_cols wide,
   starts at 0 and draws its n_cols - 1 normals, in order, from the PCG64
   seeded by states[4 p .. 4 p + 4); each normal e_i is used as it is
   drawn, in row[i + 1] = prop[i] row[i] + sd[i] e_i, the same products
   and sum as the Python body's column loop. Returns 1, writing nothing,
   where numpy's normal is not linked or the compiler has no 128-bit
   type, and 0 otherwise. */
int fluctuation_rows(int64_t first, int64_t last, int64_t n_cols, const uint64_t *states,
                     const double *prop, const double *sd, double *out)
{
#ifdef __SIZEOF_INT128__
    if (!random_standard_normal) return 1;
    pcg64_t g;
    bitgen_t bitgen = {&g, pcg64_next64, pcg64_next32, pcg64_next_double, pcg64_next64};
    for (int64_t p = first; p < last; p++) {
        double *row = out + p * n_cols;
        pcg64_seed(&g, states + 4 * p);
        row[0] = 0.0;
        for (int64_t i = 0; i + 1 < n_cols; i++)
            row[i + 1] = prop[i] * row[i] + sd[i] * random_standard_normal(&bitgen);
    }
    return 0;
#else
    return 1;
#endif
}
