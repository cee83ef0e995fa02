/* The package's compiled kernels (native.py): one path of the Moran chain
   through one batch of draws (simulate.py), and the RK4 sweeps of the flow
   oracle (deterministic.py) and of the variance oracle (fluctuations.py).
   Built with -ffp-contract=off: a fused multiply-add would round once
   where Python and numpy round twice, so each kernel equals its Python
   body bit for bit. */
#include <math.h>
#include <stdint.h>

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
