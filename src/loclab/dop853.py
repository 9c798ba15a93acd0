"""The DOP853 method (Hairer-Norsett-Wanner, Solving ODEs I, II.5-6): the
tableau, error estimators, dense-output coefficients and step-size control,
and the step loop ``solve`` that runs them on any autonomous planar field
as ``solve_ivp(method="DOP853")`` does, with its ``StepTable``.

Every tableau value is the float of scipy's ``scipy.integrate.DOP853``
attribute of the same name, written in its shortest round-trip form, so
``float()`` of the literal gives that double exactly; the tests compare them.
The tableau is shipped rather than read from scipy, because importing
``scipy.integrate`` takes most of a cold command's time.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .roots import brentq

N_STAGES = 12
ERROR_ESTIMATOR_ORDER = 7
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0


def _dense(rows: list[dict[int, float]], width: int) -> np.ndarray:
    """The matrix whose row i holds ``rows[i]`` ({column: value}), 0 elsewhere."""
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        for j, value in row.items():
            out[i, j] = value
    return out


# The extended tableau: rows 1-11 are the stages, row 12 the weights B and
# rows 13-15 the three extra stages of the dense output.
_A_EXTENDED = _dense([
    {},
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328, 5:
     -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726, 5:
     27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843, 5:
     21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486, 8:
     -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295, 5:
     -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505, 8:
     2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625, 5:
     -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235, 8:
     -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003, 7:
     -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161, 10:
     0.20136540080403034, 11: 0.04471061572777259},
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025, 8:
     -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469, 11:
     0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566, 7:
     -0.05492374857139099, 10: -0.00010834732869724932, 11: 0.0003825710908356584, 12:
     -0.00034046500868740456, 13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599, 7:
     4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145, 13:
     2.9475147891527724, 14: -9.15095847217987},
], 16)
A = _A_EXTENDED[:N_STAGES, :N_STAGES]
B = _A_EXTENDED[N_STAGES, :N_STAGES]
A_EXTRA = _A_EXTENDED[N_STAGES + 1:]

# the 5th- and 3rd-order error estimators, over the 12 stages and f(t + h)
E5 = _dense([
    {0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502, 7:
     1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175, 10:
     0.08192320648511571, 11: -0.022355307863886294},
], N_STAGES + 1)[0]
E3 = _dense([
    {0: -0.18980075407240762, 5: 4.450312892752409, 6: 1.8915178993145003, 7:
     -5.801203960010585, 8: -0.4226823213237919, 9: -0.1521609496625161, 10:
     0.20136540080403034, 11: 0.02265179219836082},
], N_STAGES + 1)[0]

# the dense output's coefficients F[3:] = h D K, over the 16 extended stages
D = _dense([
    {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917, 7:
     2.38466765651207, 8: 2.117034582445028, 9: -0.871391583777973, 10:
     2.2404374302607883, 11: 0.6315787787694688, 12: -0.08899033645133331, 13:
     18.148505520854727, 14: -9.194632392478356, 15: -4.436036387594894},
    {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028, 7:
     -374.5467547226902, 8: -22.113666853125306, 9: 7.733432668472264, 10:
     -30.674084731089398, 11: -9.332130526430229, 12: 15.697238121770845, 13:
     -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408},
    {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758, 7:
     527.8081592054236, 8: -11.57390253995963, 9: 6.8812326946963, 10:
     -1.0006050966910838, 11: 0.7777137798053443, 12: -2.778205752353508, 13:
     -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
    {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455, 7:
     357.6391179106141, 8: 93.40532418362432, 9: -37.45832313645163, 10:
     104.0996495089623, 11: 29.8402934266605, 12: -43.53345659001114, 13:
     96.32455395918828, 14: -39.17726167561544, 15: -149.72683625798564},
], 16)

_EPS = float(np.finfo(float).eps)
_EXPONENT = -1.0 / (ERROR_ESTIMATOR_ORDER + 1)


class StepTable(NamedTuple):
    """The dense output of a run's solver steps, stacked: per step, its
    start ``t_old``, its end ``t_new`` (past the run's last node when a
    terminal event cut the step short), the state ``y_old`` at its start,
    shape (N, 2), and the coefficients ``F``, shape (N, 7, 2).  On step i
    the state is y_old + x (F0 + (1 - x)(F1 + x (F2 + ...))) with
    x = (t - t_old) / h and h = t_new - t_old (Hairer-Norsett-Wanner I, II.6)."""

    t_old: np.ndarray
    t_new: np.ndarray
    y_old: np.ndarray
    F: np.ndarray

    def read(self, t) -> tuple[np.ndarray, np.ndarray]:
        """The states and their t-derivatives at a time or an array of times,
        each of shape (2,) + t.shape, in one pass.  Segments are picked as by
        ``OdeSolution`` over the nodes: ``t_old`` holds every node but the
        last, which the clip stands in for.  scipy's x / (1 - x)
        Horner loop runs in its own order, so the states are ``OdeSolution``'s
        bit for bit; the product rule carries d/dx through it (the polynomial's
        derivative: the field at the state would make a residual vacuous)."""
        t = np.asarray(t, dtype=float)
        seg = np.clip(np.searchsorted(self.t_old, t, side="left") - 1,
                      0, len(self.t_old) - 1)
        t_old = self.t_old[seg]
        h = (self.t_new[seg] - t_old)[..., None]
        x = (t - t_old)[..., None] / h
        coef = self.F[seg]
        y, dy = np.zeros((2,) + t.shape + (2,))
        for i in range(7):
            y += coef[..., 6 - i, :]
            m, dm = (x, 1.0) if i % 2 == 0 else (1 - x, -1.0)
            dy = dy * m + dm * y
            y *= m
        y += self.y_old[seg]
        return np.moveaxis(y, -1, 0), np.moveaxis(dy / h, -1, 0)


def _step_state(t_old, h, y_old, F):
    """The state on one step as a function of t, for ``brentq``: the IEEE
    operations of ``StepTable.read`` in the same order, on Python floats."""
    rows = F.tolist()[::-1]
    o0, o1 = y_old

    def state(t):
        x = (t - t_old) / h
        u = 1 - x
        y0 = y1 = 0.0
        for (f0, f1), m in zip(rows, (x, u, x, u, x, u, x)):
            y0 = (y0 + f0) * m
            y1 = (y1 + f1) * m
        return y0 + o0, y1 + o1

    return state


def _fill_stages(plan, y0, y1, h, field, args):
    """K[s] = X(y + h K[:s]^T a) along a stage plan, whose entries are the
    bound product ``K[:s].T.dot``, the tableau row a[:s] and the row K[s]; the
    field is autonomous, so the stage nodes c never enter.  The dot product is
    ``ndarray.dot``, the C product that scipy's ``np.dot`` calls, without
    ``np.dot``'s dispatcher, so its rounding is scipy's; the rest is the same
    IEEE arithmetic on Python floats."""
    for dot, a, row in plan:
        d0, d1 = dot(a).tolist()
        row[0], row[1] = field(y0 + d0 * h, y1 + d1 * h, args)


def _initial_step(t0, y, f, t_bound, rtol, atol, field, args):
    """scipy's ``select_initial_step`` (Hairer-Norsett-Wanner II.4), in numpy."""
    y, f = np.array(y), np.array(f)
    interval = t_bound - t0
    scale = atol + np.abs(y) * rtol
    d0 = np.linalg.norm(y / scale) / 2 ** 0.5
    d1 = np.linalg.norm(f / scale) / 2 ** 0.5
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    y1 = (y + h0 * f).tolist()
    f1 = np.array(field(*y1, args))
    d2 = np.linalg.norm((f1 - f) / scale) / 2 ** 0.5 / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
    return float(min(100 * h0, h1, interval))


def _dense_output(K, h, y_old, y_new, field, args):
    """The dense-output coefficients F, shape (N, 7, 2), of N accepted steps
    at once, from their stages ``K``, shape (N, 13, 2) (the 12 stages and the
    field at the step's end), their sizes ``h`` and their start and end
    states, each (N, 2): scipy's 3 extra stages, one array field call each,
    then F = (dy, h f_old - dy, 2 dy - h (f_new + f_old), h D K).  Each stage
    state comes from a stacked ``np.matmul``, which gives each step the same
    product as scipy's ``np.dot``, and each element of an array field call is
    the scalar call's value, so row i is step i's ``Dop853DenseOutput.F``."""
    full = np.empty((len(h), N_STAGES + 1 + len(A_EXTRA), 2))
    full[:, :N_STAGES + 1] = K
    hc = h[:, None]
    for s, a in enumerate(A_EXTRA, start=N_STAGES + 1):
        phi, psi = (y_old + np.matmul(full[:, :s].transpose(0, 2, 1), a[:s]) * hc).T
        full[:, s, 0], full[:, s, 1] = field(phi, psi, args)
    dy = y_new - y_old
    f_old, f_new = full[:, 0], full[:, N_STAGES]
    F = np.empty((len(h), 7, 2))
    F[:, 0] = dy
    F[:, 1] = hc * f_old - dy
    F[:, 2] = 2 * dy - hc * (f_new + f_old)
    F[:, 3:] = h[:, None, None] * np.matmul(D, full)
    return F


def _crosses(direction, a, b):
    """solve_ivp's event rule: g goes from ``a`` to ``b`` through zero in
    ``direction``.  Written with ``&`` and ``|``, so it takes floats and
    arrays that broadcast together alike, with the same answer per element."""
    return (((direction >= 0) & (a <= 0) & (b >= 0))
            | ((direction <= 0) & (a >= 0) & (b <= 0)))


def solve(field, args, t0, y, t_bound, rtol, atol, events):
    """Integrate ``field(phi, psi, args)`` from state ``y`` at ``t0`` forward
    to ``t_bound > t0`` (``ValueError`` otherwise), step for step as
    ``solve_ivp(method="DOP853", dense_output=True)`` does.

    ``events`` holds ``(g(phi, psi), direction, terminal)`` triples.  The loop
    only steps: per accepted step it keeps the end node, the 13 stage rows and
    the terminal g values there, and it stops after the first step on which a
    terminal g changes sign.  After the run ``_dense_output`` builds every
    step's coefficients in one batched pass, which calls ``field`` on arrays,
    and each non-terminal g is called once, on the node arrays of phi and psi;
    both must give each element the scalar call's value.  One array pass of
    ``_crosses`` over the (nodes x events) g values then marks the steps on
    which some g changes sign, and ``brentq`` locates each of those roots on
    its step's dense output.  On the terminal step the roots are kept in time
    order up to the first terminal one, where the last node moves (the step
    is dropped when that root is its start).  Returns the times, the (2, N)
    states, the ``StepTable``, the event times per event, the status (0
    reached t_bound, 1 terminal event, -1 failed) and a message.
    """
    if rtol < 100 * _EPS:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {100 * _EPS})`.",
                      stacklevel=3)
        rtol = 100 * _EPS
    if atol < 0:
        raise ValueError("`atol` must be positive.")
    if not t_bound > t0:
        raise ValueError(f"t_bound must exceed t0, got t0={t0}, t_bound={t_bound}")
    K = np.empty((N_STAGES + 1, 2))
    stages = [(K[:s].T.dot, a[:s], K[s]) for s, a in enumerate(A[1:], start=1)]
    kt_b, kt_e = K[:N_STAGES].T, K.T
    # rows set element by element: a float per item is cheaper than a tuple per row
    k_first, k_last = K[0], K[N_STAGES]
    y0, y1 = y
    f = field(y0, y1, args)
    h_abs = _initial_step(t0, y, f, t_bound, rtol, atol, field, args)
    t = t0
    term = [i for i, (_, _, terminal) in enumerate(events) if terminal]
    term_g, term_d = [events[i][0] for i in term], [events[i][1] for i in term]
    # per node its time, state and terminal g values; per accepted step its stages
    ts, ys, Ks = [t0], [(y0, y1)], []
    g_old = [g(y0, y1) for g in term_g]
    gs = [g_old]
    status, message = None, None
    while status is None:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                status, message = -1, TOO_SMALL_STEP
                break
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            k_first[0], k_first[1] = f
            _fill_stages(stages, y0, y1, h, field, args)
            d0, d1 = kt_b.dot(B).tolist()
            n0, n1 = y0 + h * d0, y1 + h * d1
            f_new = field(n0, n1, args)
            k_last[0], k_last[1] = f_new
            scale = np.array((atol + max(abs(y0), abs(n0)) * rtol,
                              atol + max(abs(y1), abs(n1)) * rtol))
            # np.linalg.norm of a real vector is sqrt(v.dot(v)), rounding included
            v5, v3 = kt_e.dot(E5) / scale, kt_e.dot(E3) / scale
            err5, err3 = math.sqrt(v5.dot(v5)) ** 2, math.sqrt(v3.dot(v3)) ** 2
            if err5 == 0 and err3 == 0:
                err = 0.0
            else:
                err = h * err5 / math.sqrt((err5 + 0.01 * err3) * 2)
            if err < 1:
                factor = MAX_FACTOR if err == 0 else min(MAX_FACTOR, SAFETY * err ** _EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err ** _EXPONENT)
            rejected = True
        if status == -1:
            break
        t, y0, y1, f = t_new, n0, n1, f_new
        if t >= t_bound:
            status = 0
        ts.append(t)
        ys.append((y0, y1))
        Ks.append(K.copy())
        g_new = [g(y0, y1) for g in term_g]
        gs.append(g_new)
        if any(map(_crosses, term_d, g_old, g_new)):
            status = 1
        g_old = g_new
    t_all, y_all = np.array(ts), np.array(ys)
    F = _dense_output(np.array(Ks).reshape(len(Ks), N_STAGES + 1, 2), t_all[1:] - t_all[:-1],
                      y_all[:-1], y_all[1:], field, args)
    steps = StepTable(t_all[:-1], t_all[1:], y_all[:-1], F)
    # every g at every node: the terminal columns from the loop, the others in one call each
    g_nodes = np.empty((len(ts), len(events)))
    g_nodes[:, term] = gs
    for i, (g, _, terminal) in enumerate(events):
        if not terminal:
            g_nodes[:, i] = g(y_all[:, 0], y_all[:, 1])
    marked = _crosses(np.array([d for _, d, _ in events]), g_nodes[:-1], g_nodes[1:])
    # the roots, step by step, in solve_ivp's order
    t_events = [[] for _ in events]
    for j in np.flatnonzero(marked.any(axis=1)).tolist():
        active = np.flatnonzero(marked[j]).tolist()
        t_old, t_new = ts[j], ts[j + 1]
        step = _step_state(t_old, t_new - t_old, ys[j], F[j])
        roots = [(brentq(lambda s, ev=events[i][0]: ev(*step(s)), t_old, t_new,
                         xtol=4 * _EPS, rtol=4 * _EPS), i) for i in active]
        if status == 1 and j == len(Ks) - 1:
            # in time order, up to and including the first terminal root
            roots.sort()
            stop = next(k for k, (_, i) in enumerate(roots) if events[i][2])
            roots = roots[:stop + 1]
            t_end = roots[-1][0]
            if j > 0 and t_end == t_old:  # the root is a node: scipy's donot_append
                del ts[-1], ys[-1]
                steps = StepTable(*(col[:-1] for col in steps))
            else:
                ts[-1], ys[-1] = t_end, step(t_end)
        for te, i in roots:
            t_events[i].append(te)
    return np.array(ts), np.array(ys).T, steps, t_events, status, message
