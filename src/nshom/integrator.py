"""Ito time integration of the heterogeneous and effective equations on
coupled Brownian paths.

The evolution is i du = (G + P(t)) u dt + g(u) dW + f dt with G the assembled
generator and P(t) the real oscillating-potential diagonal
eps^{(1-alpha)/2} V(x/eps mod 1, t/eps mod 1) (heterogeneous runs only).
One step of the theta scheme solves

    (I + i theta dt H_n) u_{n+1} = (I - i (1-theta) dt H_n) u_n
                                   - i g(u_n) dW_n - i f(t_n) dt

with the noise evaluated at the left endpoint (Ito).  The real potential
diagonal is rebuilt every step and frozen at the theta point t_n + theta dt of
the step (the midpoint for theta = 1/2, which preserves second-order temporal
accuracy; each frozen step is still a Hermitian Cayley map, so norms are
conserved when g = f = 0).

theta is restricted to [1/2, 1]: the scheme multiplies each mode of the
Hermitian H by |1 - i(1-theta) lambda dt| / |1 + i theta lambda dt|, which
exceeds 1 for every lambda != 0 when theta < 1/2. The step is one LU solve
with no product by H, since
I - i(1-theta)dt H = (1/theta) I - ((1-theta)/theta)(I + i theta dt H) gives
u_{n+1} = (I + i theta dt H_n)^{-1}[u_n/theta - i g(u_n) dW_n - i f(t_n) dt]
- ((1-theta)/theta) u_n; rounding in that subtraction grows like 1/theta.
The solve (``lu_solve``) is two level-2 triangular solves for one column and
scipy's level-3 ``lu_solve`` for more.

Paths are stepped together: ``ThetaStepper`` advances P paths stored as the
columns of an (n, P) array, and one loop, ``lockstep``, steps such a state per
system and checks it for divergence; ``simulate`` is its one-column case. The
implicit matrix does not depend on the path, so its factorization is shared
by all columns and cached on the fractional part of the sampling time over
eps, which cycles when dt / eps is rational (e.g. the dt = eps/8 sweep rule).
The cache is bounded by LU_CACHE_BYTES, and a run whose phase does not cycle
is warned about, since then most steps refactorize.

Brownian increments come from a counter-based generator (Philox) keyed by
(seed, refinement level), so paths are reproducible and refinable in place:
halving dt uses the Brownian bridge, and the two half increments sum to the
parent increment exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import LinAlgWarning, lu_factor
from scipy.linalg.blas import ztrsv
from scipy.linalg.lapack import zlaswp

from .kernel import Grid1D, KernelParams, _check_alpha, assemble_heterogeneous_generator
from .effective import EffectiveCoefficients, assemble_effective_generator
from .presets import FSpec, HSpec, ThetaSpec, VSpec, get_f, get_h, get_theta, get_v

BLOWUP_LIMIT = 1e12
# bytes of LU factors one stepper keeps (64 factors at n = 1024)
LU_CACHE_BYTES = 1 << 30
# shorter runs cannot tell a phase that never cycles from a long cycle
PHASE_WARNING_MIN_STEPS = 16
# columns of the implicit matrix written per block (1 MiB at n = 2048)
FILL_COLUMNS = 32


class TrajectoryBlowup(RuntimeError):
    """Raised when a trajectory leaves the finite range; names the step and system."""

    def __init__(self, step: int, system: str):
        super().__init__(f"trajectory diverged at step {step}: {system}")
        self.step = step


class LinearSolveError(RuntimeError):
    """Raised when the implicit matrix is not finite, cannot be factorized or
    has an exactly zero pivot; names the system and phase."""


@dataclass(frozen=True)
class NoiseModel:
    """Noise intensity g: zero, linear g(u) = sigma u, or bounded
    g(u) = sigma u / (1 + |u|) pointwise; all globally Lipschitz."""

    kind: str = "zero"
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "linear", "bounded"):
            raise ValueError("noise kind must be zero, linear, or bounded")
        if not (np.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma!r}")

    def apply(self, u: np.ndarray) -> np.ndarray | None:
        if self.kind == "zero" or self.sigma == 0.0:
            return None
        if self.kind == "linear":
            return self.sigma * u
        return self.sigma * u / (1.0 + np.abs(u))


@dataclass
class BrownianPath:
    """Reproducible Gaussian increments; ``level`` counts bridge refinements."""

    seed: int
    n_steps: int
    dt: float
    increments: np.ndarray
    level: int = 0

    def refine(self) -> "BrownianPath":
        """Brownian-bridge refinement to step dt/2 on the same underlying path.

        The second half of each pair is defined as parent minus first half, so
        the pair sums reproduce the parent increments up to one final rounding
        (at most one ulp; splitting a double into two rounded halves cannot be
        bit-exact in general).
        """
        xi = _stream(self.seed, self.level + 1).standard_normal(self.n_steps)
        first = 0.5 * self.increments + 0.5 * np.sqrt(self.dt) * xi
        second = self.increments - first
        fine = np.empty(2 * self.n_steps)
        fine[0::2] = first
        fine[1::2] = second
        return BrownianPath(seed=self.seed, n_steps=2 * self.n_steps,
                            dt=self.dt / 2.0, increments=fine, level=self.level + 1)


def _stream(seed: int, level: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(level)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def brownian_increments(seed: int, n_steps: int, dt: float) -> BrownianPath:
    """Counter-based N(0, dt) increments; identical (seed, n_steps, dt) give
    bitwise-identical paths."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    inc = _stream(seed, 0).standard_normal(n_steps) * np.sqrt(dt)
    return BrownianPath(seed=seed, n_steps=n_steps, dt=dt, increments=inc)


@dataclass(frozen=True)
class Heterogeneous:
    """Run the oscillating-coefficient system at scale epsilon."""

    epsilon: float

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon!r}")


@dataclass(frozen=True)
class Effective:
    """Run the homogenized system with fixed coefficients."""

    coeffs: EffectiveCoefficients


@dataclass(frozen=True)
class SimConfig:
    """Everything one trajectory needs besides the system choice and the path;
    frozen, since one instance serves every run of a configuration."""

    grid: Grid1D
    alpha: float
    T: float
    theta_scheme: float = 0.5
    theta: ThetaSpec = field(default_factory=lambda: get_theta("one"))
    v_spec: VSpec = field(default_factory=lambda: get_v("zero"))
    f_spec: FSpec = field(default_factory=lambda: get_f("zero"))
    h_spec: HSpec = field(default_factory=lambda: get_h("parabola"))
    noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not 0.5 <= self.theta_scheme <= 1.0:
            raise ValueError(
                f"theta_scheme must lie in [1/2, 1], got {self.theta_scheme!r}: below 1/2 "
                "the theta scheme amplifies every mode of the Hermitian generator")
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"horizon T must be finite and positive, got {self.T!r}")

    def initial_field(self) -> np.ndarray:
        return self.h_spec.sample(self.grid.nodes, self.grid.h)


@dataclass
class SimResult:
    """Time series of one trajectory: discrete norms, masses, and states."""

    times: np.ndarray
    norm2: np.ndarray
    re_mass: np.ndarray
    im_mass: np.ndarray
    trajectory: np.ndarray | None
    snapshots: dict[int, np.ndarray]
    final: np.ndarray


def lu_solve(lu_piv: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs for an (n, P) right-hand side, given the complex
    ``lu_factor`` of A; ``rhs`` is not modified.

    One column takes two level-2 triangular solves (``ztrsv``), which read the
    factor once; scipy's ``lu_solve`` calls the level-3 ``ztrsm``, which packs
    the factor on every call and takes about twice as long for one column.
    P > 1 keeps scipy's solve, whose blocking pays off from a few columns on
    (two at n = 2048, four at n = 512). U must have no zero pivot, which
    ``ThetaStepper`` checks when it factorizes.
    """
    if rhs.shape[1] != 1:
        return scipy.linalg.lu_solve(lu_piv, rhs, check_finite=False)
    lu, piv = lu_piv
    x = zlaswp(np.array(rhs, dtype=complex, order="F"), piv, overwrite_a=True)[:, 0]
    x = ztrsv(lu, x, lower=1, diag=1, overwrite_x=1)
    return ztrsv(lu, x, overwrite_x=1)[:, None]


def _build_generator(system: Heterogeneous | Effective, cfg: SimConfig) -> np.ndarray:
    if isinstance(system, Heterogeneous):
        params = KernelParams(alpha=cfg.alpha, theta=cfg.theta, epsilon=system.epsilon)
        return assemble_heterogeneous_generator(cfg.grid, params)
    if isinstance(system, Effective):
        return assemble_effective_generator(system.coeffs, cfg.grid, cfg.alpha)
    raise TypeError("system must be Heterogeneous(eps) or Effective(coeffs)")


class ThetaStepper:
    """Theta-scheme steps of one system for an ensemble of paths held as the
    columns of an (n, P) complex array.

    The implicit matrix depends on the system, dt and the potential's phase,
    never on the path, so each phase is factorized once and each step makes
    one ``lu_solve`` with P right-hand sides: two level-2 triangular solves
    for one column, scipy's level-3 solve for more. The column-major implicit
    matrix is written from the row-major generator in blocks of FILL_COLUMNS
    columns, each checked for finiteness. Factors are cached on the phase and
    dropped oldest first once they hold more than LU_CACHE_BYTES; ``hits``
    and ``misses`` count the lookups. A factorization that fails, a
    non-finite implicit matrix or a zero pivot raises LinearSolveError.
    """

    def __init__(self, system: Heterogeneous | Effective, cfg: SimConfig, dt: float,
                 n_steps: int, generator: np.ndarray | None = None):
        self.g_mat = (_build_generator(system, cfg) if generator is None
                      else np.asarray(generator))
        self.cfg, self.dt = cfg, dt
        self.hits = self.misses = 0
        self._factors: dict[float | None, tuple] = {}  # phase key -> lu_factor output
        self._factor_bytes = 0
        self._phases = self._keys = None
        if not isinstance(system, Heterogeneous):
            self.label = "effective system"
            return
        eps = system.epsilon
        self.label = f"heterogeneous system at eps={eps:g}"
        if cfg.v_spec.is_zero:
            return
        # frozen-coefficient diagonal, sampled at the theta point of the step
        # (midpoint for theta = 1/2, which keeps second-order accuracy in
        # time); the Ito left-point rule applies to the noise term only
        theta_s = cfg.theta_scheme
        self._phases = [((k * dt + theta_s * dt) / eps) % 1.0 for k in range(n_steps)]
        # a phase that rounds to 1 is phase 0, so both share one factorization
        self._keys = [round(tau, 12) % 1.0 for tau in self._phases]
        self._amp = eps ** ((1.0 - cfg.alpha) / 2.0)
        self._y_frac = np.mod(cfg.grid.nodes / eps, 1.0)
        distinct = len(set(self._keys))
        # with dt = eps/k the phase cycles every k steps, however few of
        # those cycles fit into the run
        steps_per_period = eps / dt
        cycles = abs(steps_per_period - round(steps_per_period)) <= 1e-9 * steps_per_period
        if n_steps >= PHASE_WARNING_MIN_STEPS and 2 * distinct > n_steps and not cycles:
            warnings.warn(
                f"{self.label}: the potential phase t/eps does not cycle within the run "
                f"(dt/eps = {dt / eps:g}), so {distinct} of {n_steps} steps factorize the "
                "implicit matrix; dt = eps/k with a small integer k reuses the factors")

    def _factors_at(self, k: int) -> tuple:
        """LU factors of the implicit matrix of step k."""
        tau, key = (None, None) if self._phases is None else (self._phases[k], self._keys[k])
        entry = self._factors.get(key)
        if entry is not None:
            self.hits += 1
            return entry
        self.misses += 1
        v_diag = None if tau is None else self._amp * self.cfg.v_spec.sample(self._y_frac, tau)
        n, theta_s, dt = self.g_mat.shape[0], self.cfg.theta_scheme, self.dt
        # I + i theta dt (G + diag(v)) in column blocks, factorized in place; G is only read
        lhs = np.empty((n, n), dtype=complex, order="F")
        finite = True
        for b in (slice(j, j + FILL_COLUMNS) for j in range(0, n, FILL_COLUMNS)):
            np.multiply(self.g_mat[:, b], 1j * theta_s * dt, out=lhs[:, b])
            finite &= np.isfinite(lhs[:, b]).all()  # checked while in cache
        lhs[np.diag_indices(n)] += 1.0 if v_diag is None else 1.0 + 1j * theta_s * dt * v_diag
        where = f"{self.label}, phase {key}"
        if not (finite and np.isfinite(lhs.diagonal()).all()):
            raise LinearSolveError(f"{where}: implicit matrix is not finite")
        try:
            # a zero pivot is reported below, as an error rather than a warning
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LinAlgWarning)
                lu = lu_factor(lhs, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise LinearSolveError(f"{where}: implicit factorization failed: {exc}") from exc
        zero = np.flatnonzero(lu[0].diagonal() == 0)
        if zero.size:
            raise LinearSolveError(
                f"{where}: implicit matrix is singular, U[{zero[0]}, {zero[0]}] is exactly zero")
        size = lu[0].nbytes
        while self._factors and self._factor_bytes + size > LU_CACHE_BYTES:
            self._factor_bytes -= self._factors.pop(next(iter(self._factors)))[0].nbytes
        self._factors[key] = lu
        self._factor_bytes += size
        return lu

    def step(self, u: np.ndarray, k: int, dw: np.ndarray) -> np.ndarray:
        """Advance the (n, P) state from t_k to t_{k+1}; ``dw`` holds the
        Brownian increment of each column."""
        lu = self._factors_at(k)
        cfg, dt, theta_s = self.cfg, self.dt, self.cfg.theta_scheme
        rhs = u / theta_s
        gu = cfg.noise.apply(u)
        if gu is not None:
            rhs -= 1j * gu * dw
        f_vec = cfg.f_spec.sample(k * dt, cfg.grid.nodes)
        if f_vec is not None:
            rhs -= 1j * f_vec[:, None] * dt
        return lu_solve(lu, rhs) - ((1.0 - theta_s) / theta_s) * u


def lockstep(steppers: list[ThetaStepper], u0: np.ndarray, dw: np.ndarray):
    """Step one copy of the (n, P) state ``u0`` per stepper over the rows of the
    (n_steps, P) increments ``dw``, yielding ``(k, states, dead, reasons)`` at time
    levels k = 1..n_steps. A column that diverges in any system is marked ``dead``
    with its TrajectoryBlowup in ``reasons`` and zeroed in every state."""
    states = [u0] * len(steppers)
    dead = np.zeros(u0.shape[1], dtype=bool)
    reasons: list[TrajectoryBlowup | None] = [None] * u0.shape[1]
    for k, dw_k in enumerate(dw):
        for i, stepper in enumerate(steppers):
            states[i] = u = stepper.step(states[i], k, dw_k)
            diverged = ~np.isfinite(u).all(axis=0) | (np.abs(u).max(axis=0) > BLOWUP_LIMIT)
            for j in np.flatnonzero(diverged & ~dead):
                reasons[j] = TrajectoryBlowup(k + 1, stepper.label)
                dead[j] = True
        for state in states:
            state[:, dead] = 0.0
        yield k + 1, states, dead, reasons


def simulate(system: Heterogeneous | Effective, cfg: SimConfig, path: BrownianPath,
             *, store_trajectory: bool = True, snapshot_every: int | None = None,
             generator: np.ndarray | None = None) -> SimResult:
    """Integrate one trajectory over [0, T] on the given Brownian path.

    This is the one-column case of ``lockstep``. The heterogeneous system
    applies the eps^{(1-alpha)/2} potential amplification exactly as written
    (the factor grows as eps -> 0). Divergence raises the TrajectoryBlowup of
    ``lockstep``, which names the failing step and the system.
    """
    grid = cfg.grid
    n, h = grid.n, grid.h
    n_steps = path.n_steps
    if snapshot_every is not None and snapshot_every < 1:
        raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")
    if abs(n_steps * path.dt - cfg.T) > 1e-10 * max(1.0, cfg.T):
        raise ValueError(f"path covers {n_steps * path.dt}, config horizon is {cfg.T}")
    stepper = ThetaStepper(system, cfg, path.dt, n_steps, generator)

    u = cfg.initial_field().astype(complex)[:, None]
    times = np.linspace(0.0, cfg.T, n_steps + 1)
    norm2 = np.empty(n_steps + 1)
    re_mass = np.empty(n_steps + 1)
    im_mass = np.empty(n_steps + 1)
    traj = np.empty((n_steps + 1, n), dtype=complex) if store_trajectory else None
    snapshots: dict[int, np.ndarray] = {}

    def record(k: int, state: np.ndarray):
        norm2[k] = h * float(np.sum(np.abs(state) ** 2))
        re_mass[k] = h * float(np.sum(state.real))
        im_mass[k] = h * float(np.sum(state.imag))
        if traj is not None:
            traj[k] = state
        if snapshot_every is not None and k % snapshot_every == 0:
            snapshots[k] = state.copy()

    record(0, u[:, 0])
    for k, (u,), dead, reasons in lockstep([stepper], u, path.increments[:, None]):
        if dead[0]:
            raise reasons[0]
        record(k, u[:, 0])

    return SimResult(times=times, norm2=norm2, re_mass=re_mass, im_mass=im_mass,
                     trajectory=traj, snapshots=snapshots, final=u[:, 0])
