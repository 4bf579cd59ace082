"""The certification pipeline.

Five stages turn approximate edge lengths into a rigorous certificate:

I    pick the 3o loose edges by full pivoting on the float gimbal table
     (`gimbal.edge_direction_table`) and keep the rest: the kept equations
     over the kept edges' parameters are a square system, invertible
     exactly when the loose edges avoid gimbal lock at the float point
     (the redundancy theorem, proved at `select_subsystem`);
II   enclose a solution of the kept equations over the variable
     parameters with the Krawczyk operator and epsilon inflation (rounds
     whose centre term leaves the box are skipped), its small Jacobian
     term on 53-bit intervals at every precision;
III  verify the realization conditions of every simplex over the box:
     at 53 bits stage II hands over the SimplexData of its last operator
     step when that step was evaluated on the certified box itself, which
     proved them there, and otherwise they are evaluated afresh;
IV   enclose the angle sums of the loose edges and check they contain a
     full turn;
V    exclude gimbal lock, which upgrades the loose equations to exact
     ones (delegated to `gimbal`), on 53-bit labels at every precision.

A conservative failure at any stage aborts the pipeline; no certificate
is ever produced from a failed stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import gimbal
from .interval import FLOAT_KERNEL, kernel_for_precision
from .triangulation import vertex_link_hexagon_complex

__all__ = [
    "StepFailure",
    "Partition",
    "CertifiedBox",
    "PipelineResult",
    "bootstrap_solve",
    "select_submatrix",
    "select_subsystem",
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
    e_sim: list  # loose edges, |.| = 3o: enclosed sums, fixed parameters
    e_eq: list  # kept edges, |.| = m - 3o: solved equations and parameters

    @property
    def e_var(self):  # the variable parameters are the kept edges
        return self.e_eq

    def check(self, m, o):
        """Raise ValueError unless this splits m edges, 3o of them loose."""
        if sorted(self.e_sim + self.e_eq) != list(range(m)):
            raise ValueError("loose and kept edges do not split the edges")
        if len(self.e_sim) != 3 * o:
            raise ValueError(f"need {3 * o} loose edges")


@dataclass
class CertifiedBox:
    nu: object  # kernel array, an interval per edge in canonical order (points on e_sim)
    theta: object  # kernel array, the interval angle sum per edge
    partition: Partition
    loops: list = None
    precision: int = 53
    # over nu: from stage II's last step when that step saw the certified
    # box, else from steps III/IV
    gram_data: geo.SimplexData = None


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


def _evaluate(tri, values):
    """One float geometry evaluation at the parameters `values`: their
    EdgeParams, SimplexData and residual (Theta_e - 2pi)_e.  Raises
    RealizationError unless every simplex is realized."""
    params = geo.EdgeParams(values)
    data = geo.simplex_data(tri, params)
    return params, data, geo.angle_sums(tri, params, data=data) - 2.0 * math.pi


def bootstrap_solve(tri, init=None, max_iters=100, seed=0, tol=1e-9):
    """Damped Gauss-Newton on the full residual (Theta_e - 2pi)_e.

    The Jacobian has corank three per vertex at solutions, so steps use
    the pseudo-inverse.  Every point, the start and each line-search
    candidate, is evaluated once (`_evaluate`), and the Jacobian at the
    current point reuses its SimplexData.  Unverified by design: its
    output is only a candidate for certification.  Returns (values,
    residual_inf_norm).
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

    def evaluate(vals):
        """`_evaluate` at vals, or None unless every simplex is realized."""
        try:
            return _evaluate(tri, vals)
        except geo.RealizationError:
            return None

    point = evaluate(values)
    if point is None:
        raise SolveFailure("initial parameters do not realize every simplex")
    params, data, r = point
    best = float(np.max(np.abs(r)))
    for _ in range(max_iters):
        if best < tol:
            break
        J = geo.jacobian(tri, params, data=data)
        step, *_ = np.linalg.lstsq(J, -r, rcond=1e-10)
        t = 1.0
        improved = False
        for _bt in range(30):
            cand = [v + t * s for v, s in zip(values, step)]
            point = evaluate(cand) if all(v < -1.0 for v in cand) else None
            if point is not None:
                nc = float(np.max(np.abs(point[2])))
                if nc < best:
                    values, best = cand, nc
                    params, data, r = point
                    improved = True
                    break
            t *= 0.5
        if not improved:
            break
    if best >= tol:
        raise SolveFailure(f"no convergence: residual {best:.3e} >= {tol:.1e}")
    return values, best


# ---------------------------------------------------------------------------
# step I: the loose edges by the redundancy theorem
# ---------------------------------------------------------------------------


class RankDeficiency(RuntimeError):
    pass


def select_submatrix(M, h):
    """h rounds of full pivoting; returns the chosen (rows, cols), sorted.

    Each round takes the largest-magnitude entry outside the used rows
    and columns (ties: lowest row, then column), eliminates with it, and
    records the indices.  Only the block of rows and columns not yet used
    is kept and updated: a used row or column is zero outside its pivot
    once its round is done, so an update of it would subtract exact zeros.
    """
    A = np.array(M, dtype=float, copy=True)
    if h > min(A.shape):
        raise RankDeficiency(f"cannot select {h} pivots from {A.shape}")
    row_ids, col_ids = list(range(A.shape[0])), list(range(A.shape[1]))
    rows, cols = [], []
    for _ in range(h):
        r, c = divmod(int(np.argmax(np.abs(A))), A.shape[1])
        piv = A[r, c]
        if piv == 0.0:
            raise RankDeficiency("zero pivot before filling the expected rank")
        rows.append(row_ids.pop(r))
        cols.append(col_ids.pop(c))
        A -= np.outer(A[:, c] / piv, A[r])
        A = np.delete(np.delete(A, r, axis=0), c, axis=1)
    return sorted(rows), sorted(cols)


def select_subsystem(tri, params, data, links):
    """Stage I: the loose edges R, the kept edges K and the float Jacobian
    block M[K, K] of the kept equations, M = dTheta/dnu.

    `params` are the candidate's float edge parameters, `data` their
    SimplexData and `links` the vertex links.  R is the 3o columns that
    full pivoting picks from the float gimbal table T (3o x m,
    `gimbal.edge_direction_table`); the fixed parameters are R and the
    variable ones K.  Returns (Partition, M[K, K]); raises RankDeficiency
    when T has rank below 3o, where every loose set is locked.

    The redundancy theorem: M[K, K] is invertible exactly when T[:, R]
    is, so the kept equations are independent exactly when the loose
    edges avoid gimbal lock.  At a solution, and at the float point up to
    its residual:
    * T M = 0 (`gimbal.edge_direction_table`): on each vertex link, a
      sphere, the polygons' holonomies multiply to the identity.
    * J_l = dTheta/dl is symmetric: by Schlafli's formula each simplex's
      angles are the gradient of 2 V + sum_e l_e theta_e in its lengths.
      M = J_l D with D = diag(dl/dnu) nonsingular, so J_l T^T = 0, and
      with J_l of corank 3o (three per vertex) and T of rank 3o,
      null(J_l) = col(N), N = T^T.
    * For A symmetric with null(A) = col(N), N of full column rank d, and
      R of d indices with complement K, A[K, K] is invertible exactly when
      N[R, :] is.  If N[R, :] c = 0, c != 0, then y = N c != 0 is zero on
      R, and A[K, K] y[K] = (A y)[K] = 0.  If A[K, K] x = 0, x != 0, let y
      be x on K and 0 on R: A y is zero on K and orthogonal to col(N), so
      N[R, :]^T (A y)[R] = 0; N[R, :] invertible gives A y = 0, y = N c
      and N[R, :] c = y[R] = 0, so y = 0.
    Apply it to A = J_l: M[K, K] = J_l[K, K] D[K, K].
    """
    labels = gimbal.CocycleLabels(tri, params, data=data)
    table = gimbal.edge_direction_table(tri, labels, links)
    try:
        _, loose = select_submatrix(table, 3 * tri.o)
    except RankDeficiency as exc:
        raise RankDeficiency(f"gimbal lock at the candidate: every set of {3 * tri.o} "
                             f"loose edges is locked ({exc})") from exc
    kept = sorted(set(range(tri.m)) - set(loose))
    jsub = geo.jacobian(tri, params, data=data, rows=kept, cols=kept)
    return Partition(e_sim=loose, e_eq=kept), jsub


# ---------------------------------------------------------------------------
# step II: Krawczyk operator with epsilon inflation
# ---------------------------------------------------------------------------


class KrawczykCentre:
    """What the Krawczyk operator needs of a centre x0, evaluated once per
    centre: the kernel, x0 as the kernel's array, the partial sums
    x0 - C f(x0), each row summed left to right over j by
    `kernel.sub_products`, and the point matrix C and the identity as
    53-bit arrays.  `f_iv` maps a kernel array to a kernel array."""

    def __init__(self, f_iv, x0, C, kernel):
        self.kernel = kernel
        self.x0 = kernel.points(x0)
        fx0 = f_iv(self.x0)
        self.C = FLOAT_KERNEL.points(C)
        self.identity = FLOAT_KERNEL.points(np.eye(len(x0)))
        self.partial = kernel.sub_products(self.x0, C, fx0)


def krawczyk_step(centre, jac_iv, X):
    """One Krawczyk operator evaluation at the box X around `centre`.

    K(x0, X) = x0 - C f(x0) + (I - C J(X)) (X - x0), everything except
    the float vectors x0 and C evaluated in interval arithmetic.  Every
    root of f in X lies in K when x0 lies in X.  X and K are kernel
    arrays.  The Jacobian term is 53-bit: J on the outward hull of X, X - x0
    hulled, and its 53-bit column terms summed into the kernel's partial
    sums exactly as if lifted; `jac_iv` maps that 53-bit hull to a 2-D
    53-bit array.
    """
    kernel = centre.kernel
    J = jac_iv(kernel.float_hull(X))
    delta = centre.identity - FLOAT_KERNEL.mat_mul(centre.C, J)
    return kernel.add_columns(centre.partial, delta * kernel.float_hull(X - centre.x0))


_STEP_ERRORS = (geo.RealizationError, ArithmeticError, ValueError)
_MAX_ROUNDS, _REFINE_ROUNDS = 20, 5  # inflation rounds, refinement steps


def _certify_root(f_iv, jac_iv, x0, C, kernel, residual_scale):
    """Epsilon inflation around x0 until the operator maps the box into
    its own interior; then contract, but only while the box still contains
    x0.  Returns the final enclosure, a kernel array.

    An inflation round whose centre term x0 - C f(x0) is not strictly inside
    X cannot contain, so the operator is not applied.  X = [x0 - half, x0 +
    half] contains x0 (rounding to nearest is monotone), so X - x0 and its
    hull dX contain 0; so does a product with a factor that contains 0 (the
    zero rule gives 0 * inf = 0, the sign clamp only moves an endpoint to 0);
    and outward acc + t with t containing 0 has lo = RD(acc.lo + t.lo) <=
    acc.lo and hi >= acc.hi, in MP too, where t's float endpoints enter
    exactly.  So K contains x0 - C f(x0) entrywise.  Refinement steps are
    never skipped.
    """
    try:
        centre = KrawczykCentre(f_iv, x0, C, kernel)
    except _STEP_ERRORS:
        return None  # every step would fail the same way
    x0 = np.asarray(x0, dtype=float)
    half = max(1e-14, 10.0 * residual_scale)
    for _ in range(_MAX_ROUNDS):
        X = kernel.from_bounds(x0 - half, x0 + half)
        half *= 4.0
        if not kernel.inside(centre.partial, X).all():
            continue
        try:
            K = krawczyk_step(centre, jac_iv, X)
            contained = kernel.inside(K, X).all()
        except _STEP_ERRORS:
            contained = False
        if contained:
            enclosure = kernel.intersect(K, X)
            for _r in range(_REFINE_ROUNDS):
                if not kernel.contains(enclosure, x0).all():
                    break  # the mean-value form needs x0 in the box
                try:
                    K2 = krawczyk_step(centre, jac_iv, enclosure)
                except _STEP_ERRORS:
                    break
                if not kernel.meets(K2, enclosure).all():
                    break
                new = kernel.intersect(K2, enclosure)
                shrunk = (kernel.width(new) < kernel.width(enclosure)).any()
                enclosure = new
                if not shrunk:
                    break
            return enclosure
    return None


def _subsystem_functions(tri, partition, fixed_values, kernel):
    """Interval residual and Jacobian of the kept equations over the
    kept edges' parameters, kernel arrays in and out, with the loose
    parameters frozen at floats (53-bit points in the Jacobian, which the
    operator evaluates on 53-bit boxes).  Returns (f_iv, jac_iv, seen):
    `seen` holds the last box the Jacobian was evaluated on ("box") and
    its SimplexData ("data"), recorded as soon as the data is formed."""
    kept = partition.e_eq
    # all edges at the float points; each call fills in the kept ones
    points = {k: k.points(fixed_values) for k in (kernel, FLOAT_KERNEL)}
    two_pi = kernel.two_pi()

    def full_params(xs, k):
        nu = points[k].copy()
        nu[kept] = xs
        return geo.EdgeParams(nu, k)

    def f_iv(xs):
        return geo.angle_sums(tri, full_params(xs, kernel))[kept] - two_pi

    seen = {}

    def jac_iv(xs):
        params = full_params(xs, FLOAT_KERNEL)
        seen["box"], seen["data"] = xs, geo.simplex_data(tri, params)
        return geo.jacobian(tri, params, data=seen["data"], rows=kept, cols=kept)

    return f_iv, jac_iv, seen


def krawczyk_certify(tri, p0, partition, jsub, residual, kernel=None):
    """Step II of the pipeline: enclose a solution of the kept equations.

    p0: float edge parameters approximately solving the system.  `jsub`
    and `residual` are stage I's float kept x kept Jacobian block and the
    float residual vector (Theta_e - 2 pi)_e at p0.  Returns a CertifiedBox
    with point intervals on the loose edges; raises StepFailure on no
    containment.  At 53 bits, when the last operator step was evaluated on
    the enclosure itself, the box carries that step's SimplexData.
    """
    if kernel is None:
        kernel = FLOAT_KERNEL
    kept = partition.e_eq
    nu = kernel.points(p0)
    data = None
    if kept:
        f_iv, jac_iv, seen = _subsystem_functions(tri, partition, p0, kernel)
        try:
            C = np.linalg.inv(np.array(jsub, dtype=float))
        except np.linalg.LinAlgError:
            raise StepFailure(2, "selected subsystem numerically singular")
        resid = float(np.max(np.abs(np.asarray(residual)[kept])))
        enclosure = _certify_root(f_iv, jac_iv, [p0[e] for e in kept], C, kernel, resid)
        if enclosure is None:
            raise StepFailure(2, "no interval containment: the candidate is not close "
                                 "enough to a solution of the kept equations")
        nu[kept] = enclosure
        # an enclosure comes from a successful step, so `seen` is filled
        if kernel is FLOAT_KERNEL and all(
            np.array_equal(a, b)
            for a, b in zip(kernel.exact_bounds(enclosure), kernel.exact_bounds(seen["box"]))
        ):
            data = seen["data"]
    return CertifiedBox(nu=nu, theta=None, partition=partition, precision=kernel.precision,
                        gram_data=data)


# ---------------------------------------------------------------------------
# steps III to V
# ---------------------------------------------------------------------------


def check_realization_and_angles(tri, box):
    """Interval realization for every simplex plus loose angle sums.

    Fills box.theta; raises StepFailure when a simplex cannot be proven
    realized or a loose angle-sum enclosure does not contain a full turn.
    The box's `gram_data`, when stage II handed it over, is its
    SimplexData, proven realized there.
    """
    kernel = kernel_for_precision(box.precision)
    data = box.gram_data
    try:
        params = geo.EdgeParams(box.nu, kernel)
        if data is None:
            data = geo.simplex_data(tri, params)
    except geo.RealizationError as exc:
        raise StepFailure(3, str(exc))
    box.theta = geo.angle_sums(tri, params, data=data)
    full = kernel.contains_two_pi(box.theta[box.partition.e_sim])
    if not full.all():
        e = box.partition.e_sim[int(np.argmin(full))]
        raise StepFailure(4, f"angle sum of loose edge {e} does not contain a full turn")
    box.gram_data = data
    return box


def check_gimbal_lock(tri, box, links):
    """Step V on a box that passed steps III and IV, over the vertex links
    `links`: records the loops and returns the verdict's reason, or raises
    StepFailure.
    Labels and loose angle sums are 53-bit: the box's own at 53 bits, its
    outward float hull above."""
    kernel = kernel_for_precision(box.precision)
    nu, theta = (kernel.float_hull(xs) for xs in (box.nu, box.theta))
    data = box.gram_data if box.precision == 53 else None
    e_sim = box.partition.e_sim
    try:
        labels = gimbal.CocycleLabels(tri, geo.EdgeParams(nu, FLOAT_KERNEL), data=data)
        verdict = gimbal.gimbal_lock_check(tri, labels, e_sim, theta[e_sim], links=links)
    except geo.RealizationError as exc:
        raise StepFailure(5, str(exc))
    if not verdict.avoided:
        raise StepFailure(5, verdict.reason)
    box.loops = verdict.loops
    return verdict.reason


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
        else:
            p0, _ = bootstrap_solve(tri, max_iters=solver_max_iters, seed=seed)
        # one float evaluation at p0 serves the residual and stage I
        params0, data0, r0 = _evaluate(tri, p0)
        resid = float(np.max(np.abs(r0)))
    except (SolveFailure, geo.RealizationError) as exc:
        # no solver ran on given lengths: the reason is step 1's own
        statuses["bootstrap"] = f"failed: {exc}"
        statuses[1] = f"failed: {exc if lengths is not None else 'no usable candidate parameters'}"
        return PipelineResult(False, 1, statuses)
    statuses["bootstrap"] = f"residual {resid:.3e}"
    partition = box = None

    def finish(failed_step=0, message=None):
        if failed_step:
            statuses[failed_step] = f"failed: {message}"
        return PipelineResult(not failed_step, failed_step, statuses, box=box,
                              partition=partition, p0=p0, residual=resid)

    if tri.m < 3 * tri.o:
        return finish(1, f"{tri.m} edges cannot carry {3 * tri.o} loose ones")
    links = vertex_link_hexagon_complex(tri)
    try:
        partition, jsub = select_subsystem(tri, params0, data0, links)
    except (geo.RealizationError, RankDeficiency) as exc:
        return finish(1, exc)
    statuses[1] = f"kept {len(partition.e_eq)} equations of {tri.m}"
    try:
        box = krawczyk_certify(tri, p0, partition, jsub, r0, kernel=kernel)
        statuses[2] = "solution of kept equations enclosed"
        box = check_realization_and_angles(tri, box)
        statuses[3] = "all simplices realized"
        statuses[4] = "loose angle sums contain full turns"
        statuses[5] = check_gimbal_lock(tri, box, links)
    except StepFailure as exc:
        return finish(exc.step, exc.message)
    return finish()
