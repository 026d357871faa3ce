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
via the jump flow, for the Marcus engine). A path that starts at the left
edge of cell k0 takes its jumps plus n_cells - k0 steps, so the batch is
sorted once by that count, largest first, and round s steps the prefix of
paths with more than s steps; a batch costs the most steps of any one path
in it, not the busiest path per cell summed over the cells. `_sweep` sorts a
batch and returns a generator of these rounds, which reads the packed jump
arrays in place; each engine is a loop over it. A round's jump sizes are full
width: the decoded size of each row's next jump where the row lands on it,
and +0.0 where it does not, so the random-ODE engines add them to the running
jump sum in one `jr += sizes` (see below for why + 0.0 keeps jr's bits).

Without a Brownian part, every path of the plain random-ODE engine follows
the jump-free skeleton, step for step and bit for bit, until its first jump.
The engine solves that skeleton once per call, on np.float64 scalars with
the sweep's right-hand side and RK4 step, and starts each path at the cell
of its first jump (the first cell whose right edge is at or after it;
n_cells for a path without jumps, which takes no step) from the skeleton's
state at that cell's left edge. This relies on a float contract: a field
gives on an np.float64 the bits it gives on a one-element array, which the
field catalogue's float branches keep. The skeleton overflows to inf or nan
as arrays do, with no numpy warning. The Doss-Sussmann and Marcus engines
start every path at cell 0: their right-hand sides on floats can raise
(a zero flow slope), and S7's driver has a Brownian part.

The plain random-ODE engine sweeps a batch wider than SWEEP_WIDTH paths in
row blocks of that width, cut from the batch's one remaining-step order, so
that paths with few steps left share blocks that need few rounds. Its rounds
cost a few elementwise operations per path, and at 4096 rows each per-round
temporary is 32 KiB, below glibc's 128-KiB mmap threshold. The Doss-Sussmann
and Marcus engines sweep the whole batch at once. The Marcus rounds, and the
Doss-Sussmann rounds for a sigma without a closed flow, run jump-flow kernel
loops whose count is set by the round's largest flow, not by its width, so
every extra block would repeat them. For a sigma with a closed flow
(`DiffusionField.flow`, which the field catalogue states), the Doss-Sussmann
engine takes phi and dphi/dy from it at every RK4 stage and in its final
flow, and never runs the kernel; its drift is a(phi) / dphi/dy.

The random-ODE engines hand their right-hand side only the driver parts
that are not exactly zero: drift * t is left out when drift == 0.0, and the
Brownian part when there is none. This keeps the bits of the full sums. The
running jump sum jr starts at +0.0, and IEEE addition (round to nearest) gives
-0.0 only when both addends are -0.0, so jr is never -0.0, and neither are
(u + dz) + jr and dz + jr. A trailing scalar + 0.0 is then the identity, and
so is the + 0.0 a round adds to the rows that do not jump. A +-0.0 dz
changes u only in the sign of a zero u, which + jr then erases.

The jump-flow kernel fixes each element's substep count on entry, sorts the
batch once by it (largest first, stable) and steps, at substep s, only the
shrinking prefix of elements that still need it, reading sigma through
`value` and, for the flow sensitivity, sigma' through `derivative`.
"""

from __future__ import annotations

import numpy as np

from .flow_engine import ScalarField, operand, rk4_step
from .marcus import DiffusionField, flow_substeps
from .path_sampler import LevyPath, PackedPaths, _packed_paths, size_decoder

#: Most paths one plain random-ODE sweep walks at once; wider batches are cut
#: into row blocks of the remaining-step order. Timed on S1's sweep at 20k and
#: 100k paths in that order: 2048 rows were slower, and 8192 swept 5-13%
#: faster but left whole S1 runs within noise and raised their peak RSS by
#: 0.1 MiB (20k) and 0.6 MiB (100k); not a setting.
SWEEP_WIDTH = 4096
# The rounds follow the field catalogue's operand rule: constant operands are
# 0-d float64 arrays (flow_engine.operand), and no call goes through a
# Python-level numpy wrapper (.any, np.broadcast_arrays); `_skeleton`, on
# np.float64 scalars, keeps Python floats.
_ZERO, _HALF, _TWO = (operand(v) for v in (0.0, 0.5, 2.0))


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


def _live(desc: np.ndarray) -> np.ndarray:
    """live[s]: how many of the counts `desc`, sorted largest first, exceed s,
    i.e. the length of the prefix that takes part in loop iteration s."""
    return np.searchsorted(-desc, -np.arange(desc.max(initial=0)), side="left")


def _prefix_order(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, live): `order` sorts `counts` largest first (stable), and
    `live` is the `_live` of the sorted counts."""
    order = np.argsort(-counts, kind="stable")
    return order, _live(counts[order])


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
    y, u = np.asarray(y, dtype=float), np.asarray(u, dtype=float)
    if y.shape != u.shape:
        y, u = np.broadcast_arrays(y, u)
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
                acc[:m] += ds6[:m] * (d1 + _TWO * d2 + _TWO * d3 + d4)

    return (_unsorted(phi, order).reshape(y.shape),
            _unsorted(acc, order).reshape(y.shape) if sensitivity else None)


def flow_map_array(sigma: DiffusionField, y: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorized time-u flow of sigma from y (fixed per-element substeps)."""
    return _flow_array(sigma, y, u, sensitivity=False)[0]


def flow_sensitivity_array(sigma: DiffusionField, y: np.ndarray, u: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (phi(y, u), log phi_x(y, u)) along the flow."""
    return _flow_array(sigma, y, u, sensitivity=True)


def _sweep(packed: PackedPaths, k0=0, width: int | None = None):
    """Own-step walk over the cell grid, as (order, rounds).

    Path i starts at the left edge of its cell k0[i] (cell 0 by default) with
    all its jumps ahead, so it takes n_jumps + n_cells - k0[i] steps: its jump
    times lie in (edges[k0[i]], horizon]. `order` sorts the paths by those
    steps, largest first and stable, and all per-path state is kept in that
    order. The sorted paths are walked in blocks of `width` rows (the whole
    batch when None), one block after the other. Round s of a block yields
    (lo, hi, k, tau, dt, jumped, sizes) for its live rows [lo, hi), those with
    more than s steps: each steps from its own time `tau` over `dt` to its
    next jump if that lies at or before the right edge of its cell `k`, and to
    that edge otherwise. `jumped` marks the rows that land on a jump, and
    `sizes` holds, for every live row, the size of its jump where `jumped`
    (decoded through the size table for atom-coded batches) and +0.0
    elsewhere; the other rows move to cell k + 1. The arrays are valid until
    the next round. A block's start arrays are made as the block begins, so
    the only per-path arrays kept for the whole sweep are `order` and k0.
    """
    steps = np.diff(packed.offsets) + (packed.n_cells - np.asarray(k0))
    order = np.argsort(-steps, kind="stable")
    k0 = np.broadcast_to(k0, order.shape)
    width = width or max(order.size, 1)

    def blocks():
        for lo in range(0, order.size, width):
            rows = order[lo:lo + width]
            cell = k0[rows]
            jptr, jend = packed.offsets[rows], packed.offsets[rows + 1]
            yield from _rounds(packed, lo, _live(jend - jptr + (packed.n_cells - cell)),
                               jptr, jend, cell, packed.edges[cell])

    return order, blocks()


def _rounds(packed: PackedPaths, lo: int, live: np.ndarray, jptr: np.ndarray,
            jend: np.ndarray, cell: np.ndarray, tau: np.ndarray):
    """The rounds of the block of sorted rows from `lo` on: each row starts at
    time tau in cell `cell` with its next jump at jptr and its last before
    jend; live[s] rows take part in round s. The start arrays are advanced in
    place. The flat arrays end where the last path's jumps do, as
    `_packed_paths` leaves them, so the clipped takes of a row past its last
    jump read a real key, which the mask then drops."""
    times, keys, right_edges = packed.flat_times, packed.flat_sizes, packed.edges[1:]
    decode = size_decoder(packed.size_table)
    for m in live.tolist():
        jp, k, t = jptr[:m], cell[:m], tau[:m]
        right = right_edges.take(k)
        # the next jump and its size, read with clipped takes and kept only
        # where there is one
        if times.size:
            nt = times.take(jp, mode="clip")
            sizes = decode(keys.take(jp, mode="clip"))
        else:
            nt, sizes = right, 0.0
        jumped = (jp < jend[:m]) & (nt <= right)
        target = np.where(jumped, nt, right)
        yield lo, lo + m, k, t, target - t, jumped, np.where(jumped, sizes, _ZERO)
        t[:] = target
        jp += jumped
        k += ~jumped


def _brownian(brown: np.ndarray, rows: np.ndarray, k: np.ndarray, h: float
              ) -> tuple[np.ndarray, np.ndarray]:
    """(anchors, slopes): per row, the Brownian skeleton's value at the left
    edge of the row's own cell k and its slope across that cell."""
    b0 = brown[rows, k]
    return b0, (brown[rows, k + 1] - b0) / h


def _random_ode_terminals(packed: PackedPaths, rhs, start: np.ndarray, k0=0,
                          width: int | None = None) -> np.ndarray:
    """Terminal Y of the random ODE Y' = rhs(Y, dz, J_t, br) across the batch,
    from Y = start[k0[i]] at the left edge of path i's cell k0[i], swept by
    `_sweep` in blocks of `width` rows: J is the running jump sum,
    dz = drift * t and br = B_t the Brownian skeleton. dz is None when
    drift == 0.0 and br is None without a Brownian part; with neither, the ODE
    is autonomous within each round and RK4 does no time arithmetic. dz and br
    are computed once per stage time (stages 2 and 3 share t_mid). The
    driver's parts arrive unsummed, so each right-hand side fixes its own
    summation order."""
    order, rounds = _sweep(packed, k0, width)
    y = start[np.broadcast_to(k0, order.shape)[order]]
    jrun = np.zeros(packed.n_paths)
    drift, edges, brown = operand(packed.drift_rate), packed.edges, packed.brown_edges
    has_drift = packed.drift_rate != 0.0
    timed = has_drift or brown is not None
    h = packed.horizon / packed.n_cells

    def untimed(_, u):
        return rhs(u, None, jr, None)

    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, k, tau, dt, jumped, sizes in rounds:
            jr = jrun[lo:hi]
            if timed:
                if brown is not None:
                    b0, slope = _brownian(brown, order[lo:hi], k, h)
                    t0 = edges.take(k)
                stage = [None, None, None]  # the last stage time, its dz and br

                def f(t, u):
                    if t is not stage[0]:
                        stage[:] = (t, drift * t if has_drift else None,
                                    None if brown is None else b0 + slope * (t - t0))
                    return rhs(u, stage[1], jr, stage[2])

                y[lo:hi] = rk4_step(f, tau, y[lo:hi], dt)
            else:
                y[lo:hi] = rk4_step(untimed, None, y[lo:hi], dt)
            jr += sizes
    return _unsorted(y, order)


def _skeleton(packed: PackedPaths, x0: float, rhs, stop: int) -> np.ndarray:
    """Y at edges 0 ... stop of the path without jumps, by the sweep's steps
    from x0: tau = edges[k], dt = edges[k + 1] - edges[k], dz = drift * t at
    the stage times (t None when drift == 0.0) and J = +0.0. It runs on
    np.float64 scalars, which overflow to inf and nan without a numpy warning
    here, as the sweep's arrays do."""
    edges, drift = packed.edges, packed.drift_rate
    timed = drift != 0.0

    def f(t, u):
        return rhs(u, None if t is None else drift * t, 0.0, None)

    y = np.float64(x0)
    out = [y]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(stop):
            y = rk4_step(f, edges[k] if timed else None, y, edges[k + 1] - edges[k])
            out.append(y)
    return np.array(out)


def ode_terminals(a: ScalarField, packed: PackedPaths, x0: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Terminal (X, Y) of the random ODE Y' = a(Y + Z_t) across the batch.

    Without a Brownian part every path follows the jump-free skeleton until
    its first jump, so the skeleton is solved once and each path starts at
    the cell of its first jump, the first whose right edge is at or after it
    (n_cells for a path without jumps), from the skeleton's state at that
    cell's left edge. With one, every path starts from x0 at cell 0."""
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

    k0, start = 0, np.array([float(x0)])
    if packed.brown_edges is None:
        has = packed.offsets[1:] > packed.offsets[:-1]
        k0 = np.full(packed.n_paths, packed.n_cells)
        k0[has] = np.searchsorted(packed.edges[1:],
                                  packed.flat_times[packed.offsets[:-1][has]], side="left")
        start = _skeleton(packed, float(x0), rhs, int(k0.max(initial=0)))
    y = _random_ode_terminals(packed, rhs, start, k0, SWEEP_WIDTH)
    with np.errstate(over="ignore", invalid="ignore"):
        return y + packed.z_terminal, y


def marcus_terminals(a: ScalarField, sigma: DiffusionField,
                     packed: PackedPaths, x0: float) -> np.ndarray:
    """Marcus terminal values: Heun cells + exact jump flows, vectorized."""
    order, rounds = _sweep(packed)
    x = np.full(packed.n_paths, float(x0))
    drift, brown = operand(packed.drift_rate), packed.brown_edges
    h = packed.horizon / packed.n_cells
    a_val, sig = a.value, sigma.value
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, k, _, dt, jumped, sizes in rounds:
            xx = x[lo:hi]
            db = _ZERO if brown is None else _brownian(brown, order[lo:hi], k, h)[1] * dt
            sx = sig(xx)
            fx = a_val(xx) + drift * sx
            xp = xx + fx * dt + sx * db
            sp = sig(xp)
            out = xx + _HALF * dt * (fx + (a_val(xp) + drift * sp)) + _HALF * db * (sx + sp)
            if np.count_nonzero(jumped):
                out[jumped] = flow_map_array(sigma, out[jumped], sizes[jumped])
            x[lo:hi] = out
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
        y = _random_ode_terminals(packed, b, np.array([float(x0)]))
    return flow(y, packed.z_terminal)[0]
