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

Paths are stepped together: ``ThetaStepper`` advances P paths stored as the
columns of an (n, P) array, and ``simulate`` is its one-column case. The
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
from scipy.linalg import lu_factor, lu_solve

from .kernel import Grid1D, KernelParams, assemble_heterogeneous_generator
from .effective import EffectiveCoefficients, assemble_effective_generator
from .presets import FSpec, HSpec, ThetaSpec, VSpec, get_f, get_h, get_theta, get_v

BLOWUP_LIMIT = 1e12
# bytes of LU factors one stepper keeps (64 factors at n = 1024)
LU_CACHE_BYTES = 1 << 30
# shorter runs cannot tell a phase that never cycles from a long cycle
PHASE_WARNING_MIN_STEPS = 16


class TrajectoryBlowup(RuntimeError):
    """Raised when a trajectory leaves the finite range; carries the step index."""

    def __init__(self, step: int, detail: str = ""):
        super().__init__(f"trajectory diverged at step {step}{(': ' + detail) if detail else ''}")
        self.step = step


class LinearSolveError(RuntimeError):
    """Raised when the implicit matrix cannot be factorized; names the system and phase."""


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
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    inc = _stream(seed, 0).standard_normal(n_steps) * np.sqrt(dt)
    return BrownianPath(seed=seed, n_steps=n_steps, dt=dt, increments=inc)


@dataclass(frozen=True)
class Heterogeneous:
    """Run the oscillating-coefficient system at scale epsilon."""

    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class Effective:
    """Run the homogenized system with fixed coefficients."""

    coeffs: EffectiveCoefficients


@dataclass
class SimConfig:
    """Everything one trajectory needs besides the system choice and the path."""

    grid: Grid1D
    alpha: float
    T: float
    theta_scheme: float = 0.5
    theta: ThetaSpec = field(default_factory=lambda: get_theta("one"))
    v_spec: VSpec = field(default_factory=lambda: get_v("zero"))
    f_spec: FSpec = field(default_factory=lambda: get_f("zero"))
    h_spec: HSpec = field(default_factory=lambda: get_h("parabola"))
    noise: NoiseModel = field(default_factory=NoiseModel)
    kernel_mode: str = "periodized"

    def __post_init__(self):
        if not 0.0 <= self.theta_scheme <= 1.0:
            raise ValueError("theta_scheme must lie in [0, 1]")
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


def generator_product(g_mat: np.ndarray, u: np.ndarray) -> np.ndarray:
    """G @ u for a complex (n, P) state.

    A real G multiplies the real view of u (real and imaginary parts as
    interleaved columns), so the n x n matrix is never converted to complex.
    """
    if np.iscomplexobj(g_mat):
        return g_mat @ u
    u = np.ascontiguousarray(u, dtype=complex)
    return (g_mat @ u.view(np.float64)).view(np.complex128)


def diverged_columns(u: np.ndarray) -> np.ndarray:
    """Mask of the columns of an (n, P) state that are non-finite or exceed
    BLOWUP_LIMIT in magnitude."""
    return ~np.isfinite(u).all(axis=0) | (np.abs(u).max(axis=0) > BLOWUP_LIMIT)


def _implicit_lu(g_mat: np.ndarray, dt: float, theta_s: float,
                 v_diag: np.ndarray | None) -> tuple:
    """LU factors of I + i theta dt (G + diag(v))."""
    n = g_mat.shape[0]
    lhs = np.eye(n, dtype=complex) + 1j * theta_s * dt * g_mat
    if v_diag is not None:
        lhs[np.diag_indices(n)] += 1j * theta_s * dt * v_diag
    try:
        return lu_factor(lhs)
    except np.linalg.LinAlgError as exc:
        raise LinearSolveError(f"implicit factorization failed: {exc}") from exc


def _theta_update(g_mat: np.ndarray, u: np.ndarray, dt: float, dw: np.ndarray,
                  theta_s: float, v_diag: np.ndarray | None, f_vec: np.ndarray | None,
                  noise: NoiseModel | None, lu: tuple) -> np.ndarray:
    """The theta-scheme update of the (n, P) state u; ``dw`` holds one
    increment per column and ``lu`` factors the implicit matrix."""
    hu = generator_product(g_mat, u)
    if v_diag is not None:
        hu += v_diag[:, None] * u
    rhs = u - 1j * (1.0 - theta_s) * dt * hu
    gu = None if noise is None else noise.apply(u)
    if gu is not None:
        rhs -= 1j * gu * dw
    if f_vec is not None:
        rhs -= 1j * f_vec[:, None] * dt
    return lu_solve(lu, rhs, check_finite=False)


def _build_generator(system: Heterogeneous | Effective, cfg: SimConfig) -> np.ndarray:
    if isinstance(system, Heterogeneous):
        params = KernelParams(alpha=cfg.alpha, theta=cfg.theta,
                              epsilon=system.epsilon, kernel_mode=cfg.kernel_mode)
        return assemble_heterogeneous_generator(cfg.grid, params)
    if isinstance(system, Effective):
        return assemble_effective_generator(system.coeffs, cfg.grid, cfg.alpha)
    raise TypeError("system must be Heterogeneous(eps) or Effective(coeffs)")


class ThetaStepper:
    """Theta-scheme steps of one system for an ensemble of paths held as the
    columns of an (n, P) complex array.

    The implicit matrix depends on the system, dt and the potential's phase,
    never on the path, so each phase is factorized once and each step makes
    one ``lu_solve`` with P right-hand sides. Factors are cached on the phase
    and dropped oldest first once they hold more than LU_CACHE_BYTES;
    ``hits`` and ``misses`` count the lookups.
    """

    def __init__(self, system: Heterogeneous | Effective, cfg: SimConfig, dt: float,
                 n_steps: int, generator: np.ndarray | None = None):
        self.g_mat = (_build_generator(system, cfg) if generator is None
                      else np.asarray(generator))
        self.cfg, self.dt = cfg, dt
        self.hits = self.misses = 0
        self._factors: dict[float | None, tuple] = {}
        self._factor_bytes = 0
        self._phases = None
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
        self._amp = eps ** ((1.0 - cfg.alpha) / 2.0)
        self._y_frac = np.mod(cfg.grid.nodes / eps, 1.0)
        distinct = len({round(tau, 12) for tau in self._phases})
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
        """(LU factors, potential diagonal or None) for step k."""
        tau = None if self._phases is None else self._phases[k]
        key = None if tau is None else round(tau, 12)
        entry = self._factors.get(key)
        if entry is not None:
            self.hits += 1
            return entry
        self.misses += 1
        v_diag = None if tau is None else self._amp * self.cfg.v_spec.sample(self._y_frac, tau)
        try:
            lu = _implicit_lu(self.g_mat, self.dt, self.cfg.theta_scheme, v_diag)
        except LinearSolveError as exc:
            raise LinearSolveError(f"{self.label}, phase {key}: {exc}") from exc
        size = lu[0].nbytes
        while self._factors and self._factor_bytes + size > LU_CACHE_BYTES:
            self._factor_bytes -= self._factors.pop(next(iter(self._factors)))[0][0].nbytes
        self._factors[key] = (lu, v_diag)
        self._factor_bytes += size
        return lu, v_diag

    def step(self, u: np.ndarray, k: int, dw: np.ndarray) -> np.ndarray:
        """Advance the (n, P) state from t_k to t_{k+1}; ``dw`` holds the
        Brownian increment of each column."""
        lu, v_diag = self._factors_at(k)
        cfg = self.cfg
        f_vec = cfg.f_spec.sample(k * self.dt, cfg.grid.nodes)
        return _theta_update(self.g_mat, u, self.dt, dw, cfg.theta_scheme, v_diag, f_vec,
                             cfg.noise, lu)


def simulate(system: Heterogeneous | Effective, cfg: SimConfig, path: BrownianPath,
             *, store_trajectory: bool = True, snapshot_every: int | None = None,
             generator: np.ndarray | None = None) -> SimResult:
    """Integrate one trajectory over [0, T] on the given Brownian path.

    This is the one-column case of ``ThetaStepper``. The heterogeneous system
    applies the eps^{(1-alpha)/2} potential amplification exactly as written
    (the factor grows as eps -> 0). Divergence (non-finite values or
    magnitudes beyond 1e12) raises TrajectoryBlowup with the failing step index.
    """
    grid = cfg.grid
    n, h = grid.n, grid.h
    n_steps = path.n_steps
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
    for k in range(n_steps):
        u = stepper.step(u, k, path.increments[k:k + 1])
        if diverged_columns(u)[0]:
            raise TrajectoryBlowup(k + 1)
        record(k + 1, u[:, 0])

    return SimResult(times=times, norm2=norm2, re_mass=re_mass, im_mass=im_mass,
                     trajectory=traj, snapshots=snapshots, final=u[:, 0])
