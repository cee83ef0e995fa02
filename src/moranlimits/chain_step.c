/* One path of the Moran chain through one batch of draws (simulate.py).
   Built with -ffp-contract=off: a fused multiply-add in t + w / rate
   would round once where Python rounds twice. */
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
