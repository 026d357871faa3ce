"""Vectorized terminal-value engines for Monte Carlo scale.

The scalar solvers are the reference implementations; these engines run the
same algorithms elementwise across a whole batch of paths sharing one cell
grid, so scenario-scale replica counts stay affordable. Three rules keep the
results independent of how replicas are batched or chunked:

* all state updates are elementwise (no cross-path arithmetic);
* per-element substep counts depend only on that element's values;
* batch-wide reductions (loop bounds) never enter element arithmetic.

Jumps are handled by event-synchronized stepping: within each cell every path
advances to its own next jump time, applies it (exactly, via the jump flow for
the Marcus engine), and continues; then every path crosses to the cell's right
edge in one step. One generator, `_sweep`, yields these steps, reading the
packed jump arrays in place; each engine is a loop over it. Sub-cell event
rounds run on the paths with a jump in them only.

The jump-flow kernel fixes each element's substep count on entry, sorts the
batch once by it (largest first, stable) and steps, at substep s, only the
shrinking prefix of elements that still need it. With the flow sensitivity,
each RK4 stage reads sigma and sigma' through one `DiffusionField.jet` call,
which catalogue fields with a fused form evaluate once.
"""

from __future__ import annotations

import numpy as np

from .flow_engine import ScalarField
from .marcus import FLOW_SUBSTEP_SCALE, DiffusionField
from .path_sampler import LevyPath, PackedPaths


def pack_paths(paths: list[LevyPath], n_cells: int) -> PackedPaths:
    if not paths:
        raise ValueError("need at least one path")
    horizon = paths[0].horizon
    drift = paths[0].drift_rate
    for p in paths:
        if p.horizon != horizon or p.drift_rate != drift:
            raise ValueError("packed paths must share horizon and drift")
    edges = np.linspace(0.0, horizon, n_cells + 1)
    offsets = np.zeros(len(paths) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([p.n_jumps for p in paths])
    flat_times = np.concatenate([p.jump_times for p in paths]) \
        if offsets[-1] else np.empty(0)
    flat_sizes = np.concatenate([p.jump_sizes for p in paths]) \
        if offsets[-1] else np.empty(0)
    has_brown = paths[0].brownian is not None
    brown_edges = None
    if has_brown:
        brown_edges = np.stack([
            np.interp(edges, p.brownian.times, p.brownian.values) for p in paths])
    jump_sums = np.array([float(p.jump_sizes.sum()) for p in paths])
    z_term = drift * horizon + jump_sums
    if has_brown:
        z_term = z_term + brown_edges[:, -1]
    return PackedPaths(horizon=horizon, drift_rate=drift, n_cells=n_cells,
                       edges=edges, flat_times=flat_times, flat_sizes=flat_sizes,
                       offsets=offsets, brown_edges=brown_edges, z_terminal=z_term)


def _rk4_step(f, t, y, h):
    """One classical RK4 step of y' = f(t, y) on arrays, elementwise in h.

    t = None marks an autonomous f: it is called as f(None, y) and no time
    arithmetic is done. Kept apart from flow_engine.rk4_step so that the
    scalar solvers stay an independent reference for these engines.
    """
    if t is None:
        t_mid = t_end = None
    else:
        t_mid, t_end = t + 0.5 * h, t + h
    k1 = f(t, y)
    k2 = f(t_mid, y + 0.5 * h * k1)
    k3 = f(t_mid, y + 0.5 * h * k2)
    k4 = f(t_end, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _flow_array(sigma: DiffusionField, y: np.ndarray, u: np.ndarray,
                sensitivity: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Vectorized time-u flow of sigma from y (fixed per-element substeps).

    Returns (phi, acc). With `sensitivity`, acc is the RK4 quadrature of
    sigma'(phi) * u over the same stages, read off the stage states as they
    are evaluated (one `sigma.jet` call per stage); otherwise it is None and
    sigma' is never called. Substep s runs on the prefix of the batch, sorted
    by decreasing substep count, that still needs it; results come back in
    input order. A diverging flow comes out inf/nan without a numpy warning.
    """
    y, u = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(u, dtype=float))
    n = np.maximum(8, np.ceil(np.abs(u.ravel()) / FLOW_SUBSTEP_SCALE)).astype(np.int64)
    order = np.argsort(-n, kind="stable")
    n = n[order]
    # live[s]: how many elements need substep s, i.e. have n > s
    live = np.searchsorted(-n, -np.arange(n.max(initial=0)), side="left")
    phi, us, ds = y.ravel()[order], u.ravel()[order], 1.0 / n
    sig, jet = sigma.value, sigma.jet
    acc = np.zeros_like(phi) if sensitivity else None
    stages = []

    def f(_, p):
        if sensitivity:
            value, slope = jet(p)
            stages.append(slope * um)
            return value * um
        return sig(p) * um

    with np.errstate(over="ignore", invalid="ignore"):
        for m in live.tolist():
            um, h = us[:m], ds[:m]
            phi[:m] = _rk4_step(f, None, phi[:m], h)
            if sensitivity:
                d1, d2, d3, d4 = stages
                stages.clear()
                acc[:m] += (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)

    def unsort(a):
        out = np.empty_like(a)
        out[order] = a
        return out.reshape(y.shape)

    return unsort(phi), unsort(acc) if sensitivity else None


def flow_map_array(sigma: DiffusionField, y: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorized time-u flow of sigma from y (fixed per-element substeps)."""
    return _flow_array(sigma, y, u, sensitivity=False)[0]


def flow_sensitivity_array(sigma: DiffusionField, y: np.ndarray, u: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (phi(y, u), log phi_x(y, u)) along the flow."""
    return _flow_array(sigma, y, u, sensitivity=True)


def _sweep(packed: PackedPaths):
    """Event-synchronized walk over the cell grid, as a stream of RK steps.

    Per cell k it yields (k, rows, tau, dt, sizes). First come the event
    rounds: `rows` indexes the paths whose next jump lies at or before the
    cell's right edge, each to be stepped from its own time `tau` over `dt` to
    that jump and then given the jump `sizes`. Then one step of every path to
    the right edge, with rows = slice(None) and sizes = None. The next jump of
    a path is read with a clipped take and kept only where the path has one.
    """
    times, jump_sizes = packed.flat_times, packed.flat_sizes
    jptr = packed.offsets[:-1].copy()
    jend = packed.offsets[1:]
    for k in range(packed.n_cells):
        t1 = packed.edges[k + 1]
        tau = np.full(packed.n_paths, packed.edges[k])
        while times.size:
            next_t = times.take(jptr, mode="clip")
            rows = np.flatnonzero((jptr < jend) & (next_t <= t1))
            if not rows.size:
                break
            hit, start = next_t[rows], tau[rows]
            yield k, rows, start, hit - start, jump_sizes[jptr[rows]]
            tau[rows] = hit
            jptr[rows] += 1
        yield k, slice(None), tau, t1 - tau, None


def _brownian(packed: PackedPaths) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(anchors, slopes): per path and cell, the Brownian skeleton's value at
    the cell's left edge and its slope across the cell; (None, None) without
    a Brownian part."""
    if packed.brown_edges is None:
        return None, None
    h = packed.horizon / packed.n_cells
    return packed.brown_edges, np.diff(packed.brown_edges, axis=1) / h


def _random_ode_terminals(packed: PackedPaths, x0: float, rhs) -> np.ndarray:
    """Terminal Y of the random ODE Y' = rhs(Y, drift * t, J_t, B_t) across the
    batch, J the running jump sum and B the Brownian skeleton. The driver's
    parts arrive unsummed, so each right-hand side fixes its own summation
    order."""
    y = np.full(packed.n_paths, float(x0))
    jrun = np.zeros(packed.n_paths)
    drift, edges = packed.drift_rate, packed.edges
    anchors, slopes = _brownian(packed)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, rows, tau, dt, sizes in _sweep(packed):
            jr = jrun[rows]
            if anchors is not None:
                b0, slope, t0 = anchors[rows, k], slopes[rows, k], edges[k]

            def f(t, u):
                br = 0.0 if anchors is None else b0 + slope * (t - t0)
                return rhs(u, drift * t, jr, br)

            out = _rk4_step(f, tau, y[rows], dt)
            if sizes is None:
                y = out
            else:
                y[rows] = out
                jrun[rows] += sizes
    return y


def ode_terminals(a: ScalarField, packed: PackedPaths, x0: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Terminal (X, Y) of the random ODE Y' = a(Y + Z_t) across the batch."""
    a_val = a.value
    y = _random_ode_terminals(packed, x0,
                              lambda u, dz, jr, b: a_val(u + dz + jr + b))
    return y + packed.z_terminal, y


def marcus_terminals(a: ScalarField, sigma: DiffusionField,
                     packed: PackedPaths, x0: float) -> np.ndarray:
    """Marcus terminal values: Heun cells + exact jump flows, vectorized."""
    x = np.full(packed.n_paths, float(x0))
    drift = packed.drift_rate
    a_val, sig = a.value, sigma.value
    _, slopes = _brownian(packed)

    def F(u):
        return a_val(u) + drift * sig(u)

    with np.errstate(over="ignore", invalid="ignore"):
        for k, rows, _, dt, sizes in _sweep(packed):
            xx = x[rows]
            db = 0.0 if slopes is None else slopes[rows, k] * dt
            fx = F(xx)
            sx = sig(xx)
            xp = xx + fx * dt + sx * db
            out = xx + 0.5 * dt * (fx + F(xp)) + 0.5 * db * (sx + sig(xp))
            if sizes is None:
                x = out
            else:
                x[rows] = flow_map_array(sigma, out, sizes)
    return x


def doss_terminals(a: ScalarField, sigma: DiffusionField,
                   packed: PackedPaths, x0: float) -> np.ndarray:
    """Doss-Sussmann terminal values: vectorized random ODE then final flow."""
    a_val = a.value

    def b(u, dz, jr, br):
        phi, acc = flow_sensitivity_array(sigma, u, dz + jr + br)
        return a_val(phi) * np.exp(-acc)

    y = _random_ode_terminals(packed, x0, b)
    return flow_map_array(sigma, y, packed.z_terminal)
