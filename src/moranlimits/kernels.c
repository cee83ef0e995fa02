/* The package's compiled kernels (native.py): one path of the Moran chain
   through one batch of draws (simulate.py), the RK4 sweeps of the flow
   oracle (deterministic.py) and of the variance oracle (fluctuations.py),
   and the CSV rows of float64 and int64 columns (io.py).
   Built with -ffp-contract=off: a fused multiply-add would round once
   where Python and numpy round twice, so each kernel equals its Python
   body bit for bit. */
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
   through CPython, so the caller holds the GIL. */
typedef char *(*repr_t)(double, char, int, int, int *);
typedef void (*release_t)(void *);
#define PY_DTSF_ADD_DOT_0 2

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

/* M 2^e2 10^d rounded down; *exact tells whether nothing was cut off. */
static uint64_t scale(uint64_t M, int e2, int d, const scales_t *s, int *exact)
{
    if (d < 0) {
        u128 n = (u128)M << e2, q = n / s->pow10[-d];
        *exact = q * s->pow10[-d] == n;
        return (uint64_t)q;
    }
    u128 n = M * s->pow5[d];
    int shift = e2 + d;
    if (shift >= 0) {
        *exact = 1;
        return (uint64_t)(n << shift);
    }
    *exact = (n & (((u128)1 << -shift) - 1)) == 0;
    return (uint64_t)(n >> -shift);
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
    const int even = (m & 1) == 0, d = s->decimals[e2 - E2_LOW];
    int vr_exact, vp_exact, vm_exact;
    uint64_t vr = scale(4 * m, e2, d, s, &vr_exact);
    uint64_t vp = scale(4 * m + 2, e2, d, s, &vp_exact);
    /* below a power of two the next double is half as far */
    uint64_t vm = scale(4 * m - 1 - (fraction != 0), e2, d, s, &vm_exact);

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

    char digits[20];
    int first = 20;
    for (; output; output /= 10) digits[--first] = (char)('0' + output % 10);
    const int n = 20 - first, decpt = n + exp10; /* |x| = 0.DIGITS 10^decpt */
    const char *text = digits + first;
    if (negative) *p++ = '-';
    if (decpt <= -4 || decpt > 16) {
        *p++ = text[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, text + 1, n - 1);
            p += n - 1;
        }
        int e = decpt - 1; /* -14..38 in the window */
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        if (e < 0) e = -e;
        *p++ = (char)('0' + e / 10);
        *p++ = (char)('0' + e % 10);
    } else if (decpt <= 0) {
        memcpy(p, "0.", 2);
        memset(p + 2, '0', -decpt);
        p += 2 - decpt;
        memcpy(p, text, n);
        p += n;
    } else if (decpt < n) {
        memcpy(p, text, decpt);
        p[decpt] = '.';
        memcpy(p + decpt + 1, text + decpt, n - decpt);
        p += n + 1;
    } else {
        memcpy(p, text, n);
        memset(p + n, '0', decpt - n);
        p += decpt;
        memcpy(p, ".0", 2);
        p += 2;
    }
    return p;
}
#endif

static char *write_int(char *p, int64_t value)
{
    uint64_t rest = value < 0 ? 0 - (uint64_t)value : (uint64_t)value;
    char digits[20];
    int first = 20;
    do {
        digits[--first] = (char)('0' + rest % 10);
        rest /= 10;
    } while (rest);
    if (value < 0) *p++ = '-';
    memcpy(p, digits + first, 20 - first);
    return p + 20 - first;
}

/* Writes n_rows rows of n_cols columns to out: columns[j] is an int64
   array, or a float64 one where is_float[j], each cell is followed by ','
   or, at the row's end, '\n'. out holds 25 bytes a cell: no repr of a
   float is longer than 24 (-2.2250738585072014e-308), nor str of an int64
   than 20. Returns the bytes written, or -1 where repr fails, with its
   exception set. */
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
