"""The certification pipeline.

Five stages turn approximate edge lengths into a rigorous certificate:

I    pick a full-rank subsystem of the edge equations (full-pivot
     elimination on the float Jacobian, expecting corank three per
     vertex) and split the edges into loose/kept equations and
     fixed/variable parameters;
II   enclose a solution of the kept equations over the variable
     parameters with the Krawczyk operator and epsilon inflation (rounds
     whose centre term leaves the box are skipped), its small Jacobian
     term on 53-bit intervals at every precision;
III  verify the realization conditions of every simplex over the box;
IV   enclose the angle sums of the loose edges and check they contain a
     full turn;
V    exclude gimbal lock, which upgrades the loose equations to exact
     ones (delegated to `gimbal`), on 53-bit labels at every precision.

A conservative failure at any stage aborts the pipeline; no certificate
is ever produced from a failed stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from . import gimbal
from . import scalars as sc
from .interval import FLOAT_KERNEL, contains_two_pi, kernel_for_precision
from .triangulation import vertex_link_hexagon_complex

__all__ = [
    "StepFailure",
    "Partition",
    "CertifiedBox",
    "PipelineResult",
    "bootstrap_solve",
    "select_submatrix",
    "make_partition",
    "KrawczykCentre",
    "krawczyk_step",
    "krawczyk_certify",
    "check_realization_and_angles",
    "check_gimbal_lock",
    "run_pipeline",
    "STEP_NAMES",
]

STEP_NAMES = ("subsystem", "enclosure", "realization", "angle-sums", "gimbal")


class StepFailure(RuntimeError):
    def __init__(self, step, message):
        super().__init__(f"step {step} ({STEP_NAMES[step - 1]}): {message}")
        self.step = step
        self.message = message


@dataclass
class Partition:
    e_sim: list  # loose edges, |.| = 3o
    e_eq: list  # kept equations, |.| = m - 3o
    e_fixed: list  # frozen parameters, |.| = 3o
    e_var: list  # free parameters, |.| = m - 3o

    def check(self, m, o):
        """Raise ValueError unless this is a partition of m edges with 3o
        loose and 3o fixed ones."""
        if sorted(self.e_sim + self.e_eq) != list(range(m)):
            raise ValueError("loose and kept edges do not split the edges")
        if sorted(self.e_fixed + self.e_var) != list(range(m)):
            raise ValueError("fixed and variable edges do not split the edges")
        if len(self.e_sim) != 3 * o or len(self.e_fixed) != 3 * o:
            raise ValueError(f"need {3 * o} loose and {3 * o} fixed edges")


@dataclass
class CertifiedBox:
    nu: list  # interval per edge, canonical order (points on e_fixed)
    theta: list  # interval angle sum per edge
    partition: Partition
    statuses: dict = field(default_factory=dict)
    loops: list = None
    precision: int = 53
    gram_data: geo.SimplexData = None  # over nu, from steps III/IV


@dataclass
class PipelineResult:
    verified: bool
    failed_step: int  # 0 if verified
    statuses: dict
    box: CertifiedBox = None
    partition: Partition = None
    p0: list = None
    residual: float = None


# ---------------------------------------------------------------------------
# unverified bootstrap (stands in for an external geometrization solver)
# ---------------------------------------------------------------------------


class SolveFailure(RuntimeError):
    pass


def _residual_vec(tri, values):
    sums = geo.angle_sums(tri, geo.EdgeParams(values))
    return np.array([s - sc.TWO_PI_FLOAT for s in sums])


def bootstrap_solve(tri, init=None, max_iters=100, seed=0, tol=1e-9):
    """Damped Gauss-Newton on the full residual (Theta_e - 2pi)_e.

    The Jacobian has corank three per vertex at solutions, so steps use
    the pseudo-inverse.  Unverified by design: its output is only a
    candidate for certification.  Returns (values, residual_inf_norm).
    """
    m = tri.m
    if init is not None:
        values = [float(v) for v in init]
        if len(values) != m:
            raise SolveFailure(f"expected {m} initial parameters")
    else:
        rng = np.random.default_rng(seed)
        base = -math.cosh(1.0)
        values = [base * (1.0 + 0.01 * rng.uniform(-1, 1)) for _ in range(m)]

    def realized(vals):
        try:
            geo.simplex_data(tri, geo.EdgeParams(vals))
            return True
        except geo.RealizationError:
            return False

    if not realized(values):
        raise SolveFailure("initial parameters do not realize every simplex")
    r = _residual_vec(tri, values)
    best = float(np.max(np.abs(r)))
    for _ in range(max_iters):
        if best < tol:
            break
        J = np.array(geo.jacobian(tri, geo.EdgeParams(values)), dtype=float)
        step, *_ = np.linalg.lstsq(J, -r, rcond=1e-10)
        t = 1.0
        improved = False
        for _bt in range(30):
            cand = [v + t * s for v, s in zip(values, step)]
            if all(v < -1.0 for v in cand) and realized(cand):
                rc = _residual_vec(tri, cand)
                nc = float(np.max(np.abs(rc)))
                if nc < best:
                    values, r, best = cand, rc, nc
                    improved = True
                    break
            t *= 0.5
        if not improved:
            break
    if best >= tol:
        raise SolveFailure(f"no convergence: residual {best:.3e} >= {tol:.1e}")
    return values, best


# ---------------------------------------------------------------------------
# step I: full-rank subsystem by full-pivot elimination
# ---------------------------------------------------------------------------


class RankDeficiency(RuntimeError):
    pass


def select_submatrix(M, h):
    """h rounds of full pivoting; returns the chosen (rows, cols).

    Each round takes the largest-magnitude entry outside the used rows
    and columns (ties: lowest row, then column), clears its column with
    row operations and its row with column operations, and records the
    indices.  The submatrix of the original matrix on the returned index
    sets is the certification target.
    """
    A = np.array(M, dtype=float, copy=True)
    n_rows, n_cols = A.shape
    if h > min(n_rows, n_cols):
        raise RankDeficiency(f"cannot select {h} pivots from {A.shape}")
    rows, cols = [], []
    row_mask = np.ones(n_rows, dtype=bool)
    col_mask = np.ones(n_cols, dtype=bool)
    for _ in range(h):
        B = np.abs(A)
        B[~row_mask, :] = -1.0
        B[:, ~col_mask] = -1.0
        r, c = np.unravel_index(np.argmax(B), B.shape)
        if A[r, c] == 0.0:
            raise RankDeficiency("zero pivot before filling the expected rank")
        piv = A[r, c]
        factors = A[:, c] / piv
        factors[r] = 0.0
        A -= np.outer(factors, A[r, :])
        A[:, c] = 0.0
        A[r, :] = 0.0
        A[r, c] = piv
        rows.append(int(r))
        cols.append(int(c))
        row_mask[r] = False
        col_mask[c] = False
    return sorted(rows), sorted(cols)


def make_partition(tri, rows, cols):
    m, o = tri.m, tri.o
    e_eq = sorted(rows)
    e_var = sorted(cols)
    e_sim = [e for e in range(m) if e not in set(e_eq)]
    e_fixed = [e for e in range(m) if e not in set(e_var)]
    part = Partition(e_sim=e_sim, e_eq=e_eq, e_fixed=e_fixed, e_var=e_var)
    part.check(m, o)
    return part


# ---------------------------------------------------------------------------
# step II: Krawczyk operator with epsilon inflation
# ---------------------------------------------------------------------------


class KrawczykCentre:
    """What the Krawczyk operator needs of a centre x0, evaluated once per
    centre: the kernel, x0 as the kernel's array, the partial sums
    x0 - C f(x0), each row summed left to right over j, and the point
    matrix C and the identity as 53-bit arrays."""

    def __init__(self, f_iv, x0, C, kernel):
        n = len(x0)
        x0_iv = [kernel.point(v) for v in x0]
        fx0 = kernel.array(f_iv(x0_iv))
        self.kernel = kernel
        self.x0 = kernel.array(x0_iv)
        self.C = FLOAT_KERNEL.array(np.asarray(C, dtype=float))
        self.identity = FLOAT_KERNEL.array(np.eye(n))
        terms = kernel.lift(self.C) * fx0
        partial = self.x0
        for j in range(n):
            partial = partial - terms[:, j]
        self.partial = partial


def krawczyk_step(centre, jac_iv, X):
    """One Krawczyk operator evaluation at the box X around `centre`.

    K(x0, X) = x0 - C f(x0) + (I - C J(X)) (X - x0), everything except
    the float vectors x0 and C evaluated in interval arithmetic.  Every
    root of f in X lies in K when x0 lies in X.  The Jacobian term is 53-bit:
    J on the outward hull of X, X - x0 hulled, column terms lifted exactly.
    """
    kernel = centre.kernel
    Xw = kernel.array(X)
    J = FLOAT_KERNEL.array(jac_iv(kernel.float_hull(Xw).tolist()))
    delta = centre.identity - FLOAT_KERNEL.mat_mul(centre.C, J)
    terms = kernel.lift(delta * kernel.float_hull(Xw - centre.x0))
    K = centre.partial
    for j in range(len(X)):
        K = K + terms[:, j]
    return K.tolist()


_STEP_ERRORS = (geo.RealizationError, ArithmeticError, ValueError)
_MAX_ROUNDS, _REFINE_ROUNDS = 20, 5  # inflation rounds, refinement steps


def _certify_root(f_iv, jac_iv, x0, C, kernel, residual_scale):
    """Epsilon inflation around x0 until the operator maps the box into
    its own interior; then contract, but only while the box still contains
    x0.  Returns the final enclosure list.

    An inflation round whose centre term x0 - C f(x0) is not strictly inside
    X cannot contain, so the operator is not applied.  X = [x0 - half, x0 +
    half] contains x0 (rounding to nearest is monotone), so X - x0 and its
    hull dX contain 0; so does a product with a factor that contains 0 (the
    zero rule gives 0 * inf = 0, the sign clamp only moves an endpoint to 0);
    and outward acc + t with t containing 0 has lo = RD(acc.lo + t.lo) <=
    acc.lo and hi >= acc.hi, in MP too after the exact lift.  So K contains
    x0 - C f(x0) entrywise.  Refinement steps are never skipped.
    """
    try:
        centre = KrawczykCentre(f_iv, x0, C, kernel)
    except _STEP_ERRORS:
        return None  # every step would fail the same way
    partial = centre.partial.tolist()
    half = max(1e-14, 10.0 * residual_scale)
    for _ in range(_MAX_ROUNDS):
        X = [kernel.interval(v - half, v + half) for v in x0]
        half *= 4.0
        if not all(p.strictly_inside(x) for p, x in zip(partial, X)):
            continue
        try:
            K = krawczyk_step(centre, jac_iv, X)
            contained = all(k.strictly_inside(x) for k, x in zip(K, X))
        except _STEP_ERRORS:
            contained = False
        if contained:
            enclosure = [k.intersect(x) for k, x in zip(K, X)]
            for _r in range(_REFINE_ROUNDS):
                if not all(y.contains(v) for y, v in zip(enclosure, x0)):
                    break  # the mean-value form needs x0 in the box
                try:
                    K2 = krawczyk_step(centre, jac_iv, enclosure)
                except _STEP_ERRORS:
                    break
                if not all(k2.intersects(y) for k2, y in zip(K2, enclosure)):
                    break
                new = [k2.intersect(y) for k2, y in zip(K2, enclosure)]
                shrunk = any(n.width() < y.width() for n, y in zip(new, enclosure))
                enclosure = new
                if not shrunk:
                    break
            return enclosure
    return None


def _subsystem_functions(tri, partition, fixed_values, kernel):
    """Interval residual and Jacobian of the kept equations over the
    variable parameters, with the fixed parameters frozen at floats (53-bit
    points in the Jacobian, which the operator evaluates on 53-bit boxes)."""
    e_var = partition.e_var
    e_eq = partition.e_eq
    fixed_iv = {e: kernel.point(fixed_values[e]) for e in partition.e_fixed}
    fixed_53 = {e: FLOAT_KERNEL.point(fixed_values[e]) for e in partition.e_fixed}
    two_pi = kernel.two_pi()

    def full_params(xs, fixed=fixed_iv):
        nu = [None] * tri.m
        for e, x in zip(e_var, xs):
            nu[e] = x
        for e, v in fixed.items():
            nu[e] = v
        return geo.EdgeParams(nu)

    def f_iv(xs):
        sums = geo.angle_sums(tri, full_params(xs))
        return [sums[e] - two_pi for e in e_eq]

    def jac_iv(xs):
        return geo.jacobian(tri, full_params(xs, fixed_53), rows=e_eq, cols=e_var)

    return f_iv, jac_iv


def krawczyk_certify(tri, p0, partition, jsub, residual, kernel=None):
    """Step II of the pipeline: enclose a solution of the kept equations.

    p0: float edge parameters approximately solving the system.  `jsub`
    and `residual` are stage I's float e_eq x e_var Jacobian block and the
    float residual vector (Theta_e - 2 pi)_e at p0.  Returns a CertifiedBox
    with point intervals on the fixed edges; raises StepFailure on no
    containment.
    """
    if kernel is None:
        kernel = FLOAT_KERNEL
    m, o = tri.m, tri.o
    q = m - 3 * o
    f_iv, jac_iv = _subsystem_functions(tri, partition, p0, kernel)
    x0 = [p0[e] for e in partition.e_var]

    if q > 0:
        try:
            C = np.linalg.inv(np.array(jsub, dtype=float))
        except np.linalg.LinAlgError:
            raise StepFailure(2, "selected subsystem numerically singular")
        resid = float(np.max(np.abs(np.asarray(residual)[partition.e_eq])))
        enclosure = _certify_root(f_iv, jac_iv, x0, C, kernel, resid)
        if enclosure is None:
            raise StepFailure(
                2,
                "no interval containment: the candidate is not close enough "
                "to a solution of the kept equations",
            )
    else:
        enclosure = []

    nu = [None] * m
    for e, x in zip(partition.e_var, enclosure):
        nu[e] = x
    for e in partition.e_fixed:
        nu[e] = kernel.point(p0[e])
    return CertifiedBox(
        nu=nu,
        theta=None,
        partition=partition,
        statuses={2: "contained"},
        precision=kernel.precision,
    )


# ---------------------------------------------------------------------------
# steps III to V
# ---------------------------------------------------------------------------


def check_realization_and_angles(tri, box):
    """Interval realization for every simplex plus loose angle sums.

    Fills box.theta and records step statuses; raises StepFailure when a
    simplex cannot be proven realized or a loose angle-sum enclosure does
    not contain a full turn.
    """
    try:
        params = geo.EdgeParams(box.nu)
        data = geo.simplex_data(tri, params)
    except geo.RealizationError as exc:
        raise StepFailure(3, str(exc))
    box.statuses[3] = "all simplices realized"
    sums = geo.angle_sums(tri, params, data=data)
    box.theta = sums
    for e in box.partition.e_sim:
        if not contains_two_pi(sums[e]):
            raise StepFailure(
                4, f"angle sum of loose edge {e} does not contain a full turn"
            )
    box.statuses[4] = "loose angle sums contain full turns"
    box.gram_data = data
    return box


def check_gimbal_lock(tri, box):
    """Step V on a box that passed steps III and IV: records the verdict and
    the loops, or raises StepFailure.  Labels and loose angle sums are
    53-bit: the box's own at 53 bits, its outward float hull above."""
    nu, theta, data, e_sim = box.nu, box.theta, box.gram_data, box.partition.e_sim
    if box.precision != 53:
        kernel = kernel_for_precision(box.precision)
        nu, theta = (kernel.float_hull(kernel.array(xs)).tolist() for xs in (nu, theta))
        data = None
    try:
        labels = gimbal.CocycleLabels(tri, nu, data=data)
        links = [vertex_link_hexagon_complex(tri, k) for k in range(tri.o)]
        verdict = gimbal.gimbal_lock_check(tri, labels, e_sim, [theta[e] for e in e_sim],
                                           links=links)
    except (geo.RealizationError, gimbal.GimbalLoopError) as exc:
        raise StepFailure(5, str(exc))
    if not verdict.avoided:
        raise StepFailure(5, verdict.reason)
    box.statuses[5] = verdict.reason
    box.loops = verdict.loops
    return box


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


def run_pipeline(
    tri,
    lengths=None,
    precision=53,
    seed=0,
    solver_max_iters=100,
):
    """Run steps I-V and collect a PipelineResult.

    With a lengths section the given values are certified as-is; without
    one, the unverified bootstrap solver must first find a candidate.
    """
    kernel = kernel_for_precision(precision)
    statuses = {}
    if lengths is None:
        lengths = tri.lengths
    try:
        if lengths is not None:
            p0 = [-math.cosh(float(l)) for l in lengths]
            r0 = _residual_vec(tri, p0)
            resid = float(np.max(np.abs(r0)))
        else:
            p0, resid = bootstrap_solve(
                tri, max_iters=solver_max_iters, seed=seed
            )
            r0 = _residual_vec(tri, p0)
    except (SolveFailure, geo.RealizationError) as exc:
        statuses["bootstrap"] = f"failed: {exc}"
        statuses[1] = "failed: no usable candidate parameters"
        return PipelineResult(False, 1, statuses)
    statuses["bootstrap"] = f"residual {resid:.3e}"

    # step I
    h = tri.m - 3 * tri.o
    if h < 0:
        statuses[1] = (
            f"failed: {tri.m} edges cannot carry {3 * tri.o} loose ones"
        )
        return PipelineResult(False, 1, statuses, p0=p0, residual=resid)
    try:
        params0 = geo.EdgeParams(list(p0))
        M = geo.jacobian(tri, params0)
        rows, cols = select_submatrix(M, h)
        partition = make_partition(tri, rows, cols)
    except (geo.RealizationError, RankDeficiency) as exc:
        statuses[1] = f"failed: {exc}"
        return PipelineResult(False, 1, statuses, p0=p0, residual=resid)
    statuses[1] = f"kept {h} equations of {tri.m}"

    # stage I's float data at p0 serves step II
    jsub = np.array(M)[partition.e_eq][:, partition.e_var]

    # step II
    try:
        box = krawczyk_certify(tri, p0, partition, jsub, r0, kernel=kernel)
    except StepFailure as exc:
        statuses[2] = f"failed: {exc.message}"
        return PipelineResult(False, 2, statuses, partition=partition, p0=p0,
                              residual=resid)
    statuses[2] = "solution of kept equations enclosed"

    # steps III and IV
    try:
        box = check_realization_and_angles(tri, box)
    except StepFailure as exc:
        statuses[exc.step] = f"failed: {exc.message}"
        return PipelineResult(False, exc.step, statuses, partition=partition,
                              box=box, p0=p0, residual=resid)
    statuses[3] = box.statuses[3]
    statuses[4] = box.statuses[4]

    # step V
    try:
        box = check_gimbal_lock(tri, box)
    except StepFailure as exc:
        statuses[5] = f"failed: {exc.message}"
        return PipelineResult(False, 5, statuses, partition=partition, box=box,
                              p0=p0, residual=resid)
    statuses[5] = box.statuses[5]
    return PipelineResult(True, 0, statuses, box=box, partition=partition,
                          p0=p0, residual=resid)
