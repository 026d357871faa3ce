"""Vectorized terminal-value engines for Monte Carlo scale.

The scalar solvers are the reference implementations; these engines run the
same algorithms elementwise across a whole batch of paths sharing one cell
grid, so scenario-scale replica counts stay affordable. Both take their RK4
step from flow_engine.rk4_step, which works on floats and arrays alike; the
step itself is checked against closed forms and its step-halving order in
the flow-engine tests. Three rules keep the results independent of how
replicas are batched or chunked:

* all state updates are elementwise (no cross-path arithmetic);
* per-element substep counts depend only on that element's values;
* batch-wide reductions (loop bounds) never enter element arithmetic.

Jumps are handled by an own-step sweep: each path walks its own steps, from
its current time to its next jump when that lies in its current cell and to
the cell's right edge otherwise, and applies each jump on arrival (exactly,
via the jump flow, for the Marcus engine). A path takes its jumps plus cells
steps in all, so the batch is sorted once by that count, largest first, and
round s steps the prefix of paths with more than s steps; a batch costs the
most steps of any one path in it, not the busiest path per cell summed over
the cells. `_sweep` sorts a batch and returns a generator of these rounds,
which reads the packed jump arrays in place; each engine is a loop over it.

The plain random-ODE engine sweeps a batch wider than SWEEP_WIDTH paths in
row blocks of that width. Its rounds cost a few elementwise operations per
path, and at 4096 rows each per-round temporary is 32 KiB, below glibc's
128-KiB mmap threshold. The Doss-Sussmann and Marcus engines sweep the whole
batch at once. The Marcus rounds, and the Doss-Sussmann rounds for a sigma
without a closed flow, run jump-flow kernel loops whose count is set by the
round's largest flow, not by its width, so every extra block would repeat
them. For a sigma with a closed flow (`DiffusionField.flow`, which the field
catalogue states), the Doss-Sussmann engine takes phi and dphi/dy from it at
every RK4 stage and in its final flow, and never runs the kernel; its drift
is a(phi) / dphi/dy.

The random-ODE engines hand their right-hand side only the driver parts
that are not exactly zero: drift * t is left out when drift == 0.0, and the
Brownian part when there is none. This keeps the bits of the full sums. The
running jump sum jr starts at +0.0, and IEEE addition (round to nearest) gives
-0.0 only when both addends are -0.0, so jr is never -0.0, and neither are
(u + dz) + jr and dz + jr. A trailing scalar + 0.0 is then the identity. A
+-0.0 dz changes u only in the sign of a zero u, which + jr then erases.

The jump-flow kernel fixes each element's substep count on entry, sorts the
batch once by it (largest first, stable) and steps, at substep s, only the
shrinking prefix of elements that still need it, reading sigma through
`value` and, for the flow sensitivity, sigma' through `derivative`.
"""

from __future__ import annotations

import numpy as np

from .flow_engine import ScalarField, rk4_step
from .marcus import DiffusionField, flow_substeps
from .path_sampler import LevyPath, PackedPaths, _packed_paths, size_decoder

#: Most paths one plain random-ODE sweep walks at once; wider batches are cut
#: into contiguous row blocks. Picked by timing S1's sweep at 20k and 100k
#: paths against 8192 rows and no cap; not a setting.
SWEEP_WIDTH = 4096


def pack_paths(paths: list[LevyPath], n_cells: int) -> PackedPaths:
    """A LevyPath list as float64 PackedPaths, with the same arrays as the
    range sampler gives for the same draws."""
    if not paths:
        raise ValueError("need at least one path")
    first = paths[0]
    for p in paths:
        if (p.horizon != first.horizon or p.drift_rate != first.drift_rate
                or (p.brownian is None) != (first.brownian is None)):
            raise ValueError("packed paths must share horizon, drift and whether "
                             "they have a Brownian part")
    edges = np.linspace(0.0, first.horizon, n_cells + 1)
    offsets = np.cumsum([0] + [p.n_jumps for p in paths])
    brown_edges = (None if first.brownian is None
                   else np.array([p.brownian.value(edges) for p in paths]))
    return _packed_paths(first.horizon, first.drift_rate, edges,
                         np.concatenate([p.jump_times for p in paths]),
                         np.concatenate([p.jump_sizes for p in paths]), offsets,
                         brown_edges, np.array([p.jump_sizes.sum() for p in paths]), None)


def _prefix_order(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, live): `order` sorts `counts` largest first (stable), and
    live[s] is how many elements have counts > s, i.e. the length of the
    sorted prefix that takes part in loop iteration s."""
    order = np.argsort(-counts, kind="stable")
    desc = counts[order]
    return order, np.searchsorted(-desc, -np.arange(desc.max(initial=0)), side="left")


def _unsorted(a: np.ndarray, order: np.ndarray) -> np.ndarray:
    """`a`, kept in `order`, back in input order."""
    out = np.empty_like(a)
    out[order] = a
    return out


def _flow_array(sigma: DiffusionField, y: np.ndarray, u: np.ndarray,
                sensitivity: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Vectorized time-u flow of sigma from y (fixed per-element substeps).

    Returns (phi, acc). With `sensitivity`, acc is the RK4 quadrature of
    sigma'(phi) * u over the same stages, read off the stage states as they
    are evaluated; otherwise it is None and sigma' is never called. Substep s
    runs on the prefix of the batch, sorted by decreasing substep count, that
    still needs it; results come back in input order. A diverging flow comes
    out inf/nan without a numpy warning, and so does a u with 0 substeps (not
    finite, or beyond MAX_FLOW_SUBSTEPS), which is not run.
    """
    y, u = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(u, dtype=float))
    n = flow_substeps(u.ravel())
    order, live = _prefix_order(n)
    phi, us = y.ravel()[order], u.ravel()[order]
    # the 0-count elements sort last; 1 / 0 would warn
    run = np.count_nonzero(n)
    phi[run:] = np.nan
    ds = 1.0 / np.maximum(n[order], 1)
    ds6 = ds / 6.0 if sensitivity else None
    sig, slope = sigma.value, sigma.derivative
    acc = None
    if sensitivity:
        acc = np.zeros_like(phi)
        acc[run:] = np.nan
    stages = []

    def f(_, p):
        if sensitivity:
            stages.append(slope(p) * um)
        return sig(p) * um

    with np.errstate(over="ignore", invalid="ignore"):
        for m in live.tolist():
            um, h = us[:m], ds[:m]
            phi[:m] = rk4_step(f, None, phi[:m], h)
            if sensitivity:
                d1, d2, d3, d4 = stages
                stages.clear()
                acc[:m] += ds6[:m] * (d1 + 2.0 * d2 + 2.0 * d3 + d4)

    return (_unsorted(phi, order).reshape(y.shape),
            _unsorted(acc, order).reshape(y.shape) if sensitivity else None)


def flow_map_array(sigma: DiffusionField, y: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorized time-u flow of sigma from y (fixed per-element substeps)."""
    return _flow_array(sigma, y, u, sensitivity=False)[0]


def flow_sensitivity_array(sigma: DiffusionField, y: np.ndarray, u: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (phi(y, u), log phi_x(y, u)) along the flow."""
    return _flow_array(sigma, y, u, sensitivity=True)


def _sweep(packed: PackedPaths):
    """Own-step walk over the cell grid, as (order, rounds).

    Every path takes exactly n_jumps + n_cells steps, since its jump times lie
    in (0, horizon]. `order` sorts the paths by that count, largest first and
    stable, and all per-path state is kept in that order. Round s yields
    (m, k, tau, dt, jumped, sizes) for the live prefix [:m] of paths with more
    than s steps: each steps from its own time `tau` over `dt` to its next
    jump if that lies at or before the right edge of its cell `k`, and to that
    edge otherwise. `jumped` marks the rows that land on a jump, to be given
    the jump `sizes` in row order (decoded through the size table for
    atom-coded batches); the other rows move to cell k + 1. The arrays are
    valid until the next round.
    """
    order, live = _prefix_order(np.diff(packed.offsets) + packed.n_cells)
    return order, _rounds(packed, order, live)


def _rounds(packed: PackedPaths, order: np.ndarray, live: np.ndarray):
    times, keys, right_edges = packed.flat_times, packed.flat_sizes, packed.edges[1:]
    decode = size_decoder(packed.size_table)
    jptr = packed.offsets[:-1][order]
    jend = packed.offsets[1:][order]
    cell = np.zeros(order.size, dtype=np.int64)
    tau = np.full(order.size, packed.edges[0])
    for m in map(int, live):
        jp, k, t = jptr[:m], cell[:m], tau[:m]
        right = right_edges.take(k)
        # the next jump, read with a clipped take and kept only where there is one
        nt = times.take(jp, mode="clip") if times.size else right
        jumped = (jp < jend[:m]) & (nt <= right)
        target = np.where(jumped, nt, right)
        yield m, k, t, target - t, jumped, decode(keys.take(jp[jumped]))
        t[:] = target
        jp += jumped
        k += ~jumped


def _brownian(brown: np.ndarray, rows: np.ndarray, k: np.ndarray, h: float
              ) -> tuple[np.ndarray, np.ndarray]:
    """(anchors, slopes): per row, the Brownian skeleton's value at the left
    edge of the row's own cell k and its slope across that cell."""
    b0 = brown[rows, k]
    return b0, (brown[rows, k + 1] - b0) / h


def _random_ode_terminals(packed: PackedPaths, x0: float, rhs) -> np.ndarray:
    """Terminal Y of the random ODE Y' = rhs(Y, dz, J_t, br) across the batch:
    J is the running jump sum, dz = drift * t and br = B_t the Brownian
    skeleton. dz is None when drift == 0.0 and br is None without a Brownian
    part; with neither, the ODE is autonomous within each round and RK4 does
    no time arithmetic. dz and br are computed once per stage time (stages 2
    and 3 share t_mid). The driver's parts arrive unsummed, so each
    right-hand side fixes its own summation order."""
    order, rounds = _sweep(packed)
    y = np.full(packed.n_paths, float(x0))
    jrun = np.zeros(packed.n_paths)
    drift, edges, brown = packed.drift_rate, packed.edges, packed.brown_edges
    has_drift = drift != 0.0
    timed = has_drift or brown is not None
    h = packed.horizon / packed.n_cells
    with np.errstate(over="ignore", invalid="ignore"):
        for m, k, tau, dt, jumped, sizes in rounds:
            jr = jrun[:m]
            if brown is not None:
                b0, slope = _brownian(brown, order[:m], k, h)
                t0 = edges.take(k)
            stage = [None, None, None]  # the last stage time, its dz and br

            def f(t, u):
                if t is not stage[0]:
                    stage[:] = (t, drift * t if has_drift else None,
                                None if brown is None else b0 + slope * (t - t0))
                return rhs(u, stage[1], jr, stage[2])

            y[:m] = rk4_step(f, tau if timed else None, y[:m], dt)
            jr[jumped] += sizes
    return _unsorted(y, order)


def ode_terminals(a: ScalarField, packed: PackedPaths, x0: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Terminal (X, Y) of the random ODE Y' = a(Y + Z_t) across the batch."""
    a_val = a.value

    def rhs(u, dz, jr, br):
        if dz is None:
            x = u + jr
        else:
            x = u + dz
            x += jr
        if br is not None:
            x += br
        return a_val(x)

    y = np.concatenate([_random_ode_terminals(packed.rows(lo, lo + SWEEP_WIDTH), x0, rhs)
                        for lo in range(0, packed.n_paths, SWEEP_WIDTH)])
    with np.errstate(over="ignore", invalid="ignore"):
        return y + packed.z_terminal, y


def marcus_terminals(a: ScalarField, sigma: DiffusionField,
                     packed: PackedPaths, x0: float) -> np.ndarray:
    """Marcus terminal values: Heun cells + exact jump flows, vectorized."""
    order, rounds = _sweep(packed)
    x = np.full(packed.n_paths, float(x0))
    drift, brown = packed.drift_rate, packed.brown_edges
    h = packed.horizon / packed.n_cells
    a_val, sig = a.value, sigma.value

    def F(u):
        return a_val(u) + drift * sig(u)

    with np.errstate(over="ignore", invalid="ignore"):
        for m, k, _, dt, jumped, sizes in rounds:
            xx = x[:m]
            db = 0.0 if brown is None else _brownian(brown, order[:m], k, h)[1] * dt
            fx = F(xx)
            sx = sig(xx)
            xp = xx + fx * dt + sx * db
            out = xx + 0.5 * dt * (fx + F(xp)) + 0.5 * db * (sx + sig(xp))
            if sizes.size:
                out[jumped] = flow_map_array(sigma, out[jumped], sizes)
            x[:m] = out
    return _unsorted(x, order)


def doss_terminals(a: ScalarField, sigma: DiffusionField,
                   packed: PackedPaths, x0: float) -> np.ndarray:
    """Doss-Sussmann terminal values: the random ODE Y' = a(phi) / dphi/dy at
    phi = phi(Y, Z_t), then X_T = phi(Y_T, Z_T), where phi(y, u) is the
    time-u flow of sigma: `sigma.flow` when sigma has a closed form, the
    jump-flow kernel otherwise."""
    a_val = a.value
    flow = sigma.flow
    if flow is None:
        def flow(y, u):
            phi, acc = flow_sensitivity_array(sigma, y, u)
            return phi, np.exp(acc)

    def b(u, dz, jr, br):
        w = jr if dz is None else dz + jr
        phi, slope = flow(u, w if br is None else w + br)
        return a_val(phi) / slope

    # a flow that shrinks to 0 gives a zero slope: the replica diverges
    with np.errstate(divide="ignore"):
        y = _random_ode_terminals(packed, x0, b)
    return flow(y, packed.z_terminal)[0]
