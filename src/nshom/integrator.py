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
exceeds 1 for every lambda != 0 when theta < 1/2. The step is one solve
with no product by H, since
I - i(1-theta)dt H = (1/theta) I - ((1-theta)/theta)(I + i theta dt H) gives
u_{n+1} = (I + i theta dt H_n)^{-1}[u_n/theta - i g(u_n) dW_n - i f(t_n) dt]
- ((1-theta)/theta) u_n; rounding in that subtraction grows like 1/theta.
The solve (``lu_solve``) is, for an LU factor, two level-2 triangular solves
per column for up to TRSV_MAX_COLUMNS columns and one LAPACK ``zgetrs`` call
for more.

The factor kind: the generator of the symmetric jump kernel is real
symmetric (G_eff too when Theta is constant), so the implicit matrix is then
complex symmetric, and for 2 to LDL_MAX_COLUMNS columns it is factorized as
L D L^T by Bunch-Kaufman pivoting (LAPACK ``zsytrf``), about half the
arithmetic of LU, and solved by one ``zsytrs``. Every other case takes LU
(``zgetrf``): one column, whose two ``ztrsv`` calls are faster than
``zsytrs`` there; more than LDL_MAX_COLUMNS columns, where the level-3
``zgetrs`` is faster than ``zsytrs``' rank-1 updates; and a generator that is
not exactly symmetric. A phase keeps the kind it was first factorized with.

The third kind, the eigenbasis, serves the effective system of an
eps-sweep. G_eff does not depend on eps, and when it is finite, exactly
symmetric and has at most EIGENBASIS_MAX_NODES nodes (``effective_solve``
decides this, from the symmetry scan the L D L^T kind uses), one LAPACK
``dsyevd`` gives G_eff = Q diag(lambda) Q^T (``eigenbasis``) for every level,
and a stepper given that basis factorizes nothing: it takes
(I + i theta dt G_eff)^{-1} = Q diag(1/(1 + i theta dt lambda)) Q^T, whose
diagonal costs O(n) per level, and ``lu_solve`` makes each solve two real
(n, 2P) products with Q on the real view of the state. The basis is
computed at the first ``harness.coupled_errors`` call of a set-up, not in
``harness.prepare_experiment``. ``simulate`` never takes it: for one dt one
``dsyevd`` costs about five factorizations and saves one. A heterogeneous
system keeps the factor kinds, since its potential diagonal changes with
the phase.

Paths are stepped together: ``ThetaStepper`` advances P paths stored as the
columns of an (n, P) array, and one loop, ``lockstep``, steps such a state per
system and checks it for divergence in one pass; ``simulate`` is its
one-column case. A stepper is given a generator matrix, the config, dt, the
step count, and eps for a heterogeneous system only; it assembles nothing.
``simulate`` is the one place that turns a ``Heterogeneous`` or ``Effective``
system into that matrix and eps. The implicit matrix does not depend on the
path, so its factorization is shared by all columns and cached on the
fractional part of the sampling time over eps, which cycles when dt / eps is
rational (e.g. the dt = eps/8 sweep rule). Only a key that recurs in the run
is cached: the first LU_CACHE_BYTES // (16 n^2) of them (at least one), in
order of first use, never evicted; a run whose recurring phases outnumber
them, or whose phase does not cycle, is warned about, since then most steps
refactorize.

The factors live in one C-order (K, n, n) complex block per stepper,
allocated at its first factorization: a slot per cached key (without a
potential, every step has the key None) and, if some key is not cached, a
last, spare slot in which such a key is factorized each time it comes
round. The implicit matrix A of a key is written into its slot row by row,
in one contiguous pass over the row-major generator, and factorized there
in place, so the factors of a run take one allocation. LAPACK reads the
slot as its F-order view, which is A^T. So LU factorizes A^T,
P A^T = L U, whose row interchanges are column interchanges of A, and every
LU solve is the transposed one, A x = U^T L^T P x = b. L D L^T factorizes
the same view, which is A itself, since it is taken only for a symmetric A.
Hence ``lu_solve(lu_factor(a), b)`` solves a x = b for a C-order a, of
either kind.

Brownian increments come from a counter-based generator (Philox) keyed by
(seed, refinement level), so paths are reproducible and refinable in place:
halving dt uses the Brownian bridge, and the two half increments sum to the
parent increment exactly.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import ztrsv
from scipy.linalg.lapack import dsyevd, zgetrf, zgetrs, zlaswp, zsytrf, zsytrf_lwork, zsytrs

from .kernel import (Grid1D, KernelParams, _check_alpha, assemble_heterogeneous_generator,
                     row_blocks)
from .effective import EffectiveCoefficients, assemble_effective_generator
from .presets import FSpec, HSpec, ThetaSpec, VSpec, get_f, get_h, get_theta, get_v

BLOWUP_LIMIT = 1e12
# bytes of factors one stepper keeps, 16 n^2 per phase (64 phases at n = 1024)
LU_CACHE_BYTES = 1 << 30
# shorter runs cannot tell a phase that never cycles from a long cycle
PHASE_WARNING_MIN_STEPS = 16
# rows of the generator that ``_ldl_lwork``'s symmetry scan compares with the
# matching columns per block: 64 contiguous rows of the row-major generator
# (1 MiB at n = 2048)
SYMMETRY_SCAN_ROWS = 64
# the most state columns factorized by L D L^T; zsytrs solves by one rank-1
# update per column of L, so the two kinds tie at 8 columns and zgetrs'
# level-3 solve wins from 16 on (n = 256, 32 columns: 0.94 ms against
# 0.68 ms at one BLAS thread). The rule holds at one BLAS thread: at two,
# zgetrf runs in parallel and zsytrf does not, and LU wins from n = 512 on
# (n = 1024, 4 columns: zsytrs 3.10 ms against zgetrs 2.32 ms)
LDL_MAX_COLUMNS = 4
# the most state columns an LU factor solves one column at a time, by two
# level-2 triangular solves (ztrsv) that read the factor once per column,
# where zgetrs' level-3 ztrsm packs it on every call. At one BLAS thread two
# columns took 0.07-0.11 ms by ztrsv against 0.10-0.15 ms by zgetrs at
# n = 256, and were within 9 % either way at n = 1024 and 2048; three
# columns by ztrsv lost by 14-32 % from n = 512 on
TRSV_MAX_COLUMNS = 2
# the most nodes at which a sweep steps an exactly symmetric effective
# generator in its eigenbasis (``effective_solve``). One dsyevd costs about
# five L D L^T factorizations, and a step's two real (n, n) x (n, 2P)
# products read Q twice. At one BLAS thread the products took 2-3.5 times
# longer once n^2 2P passed about 1e6: at n = 384 and 4 paths a step took
# 0.25 ms, as long as zsytrs, against 0.11 ms at n = 352. Up to n = 352 the
# eigenbasis was the cheaper solve at 1, 2, 4, 8 and 32 paths
EIGENBASIS_MAX_NODES = 352


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

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero" or self.sigma == 0.0

    def apply(self, u: np.ndarray) -> np.ndarray | None:
        if self.is_zero:
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
    """Time series of one trajectory: discrete norms, masses, and states; and
    the stepper's factorizations (cache misses) and factor-cache hits."""

    times: np.ndarray
    norm2: np.ndarray
    re_mass: np.ndarray
    im_mass: np.ndarray
    trajectory: np.ndarray | None
    snapshots: dict[int, np.ndarray]
    final: np.ndarray
    factorizations: int
    factor_hits: int


class Factor(NamedTuple):
    """A factorization of the implicit matrix (kinds and layout: module
    docstring), by ``kind``: "LU" of its transpose (``zgetrf``; L and U in
    ``matrix``, 0-based row swaps in ``piv``), "L D L^T" (``zsytrf``; L and
    D's 1 x 1 and 2 x 2 blocks in the lower triangle of ``matrix``, LAPACK's
    1-based ``piv``, negative for a 2 x 2 block) or "eigenbasis" (the real
    orthogonal Q of G = Q diag(lambda) Q^T in ``matrix``, the (n, 1) inverse
    diagonal 1/(1 + i theta dt lambda) in ``piv``). ``info`` = i > 0 when
    U(i, i) or D(i, i) is the first exactly zero pivot (1-based), else 0."""

    matrix: np.ndarray
    piv: np.ndarray
    info: int
    kind: str


class EigenBasis(NamedTuple):
    """G = Q diag(values) Q^T of an exactly symmetric real G; Q is
    ``vectors``, orthogonal and in F order."""

    values: np.ndarray
    vectors: np.ndarray


def exactly_symmetric(g: np.ndarray) -> bool:
    """G == G^T bit for bit, compared by blocks of SYMMETRY_SCAN_ROWS rows
    with the matching columns and stopping at the first block that differs;
    a NaN entry differs."""
    return all(np.array_equal(g[b], g[:, b].T)
               for b in row_blocks(g.shape[0], SYMMETRY_SCAN_ROWS))


def effective_solve(generator: np.ndarray) -> str:
    """How a sweep solves its effective system's steps: "eigenbasis" for a
    finite, exactly symmetric real generator of at most EIGENBASIS_MAX_NODES
    nodes, else "factor" (the factor kinds of the module docstring). A
    non-finite generator keeps the factors, whose stepper reports it."""
    g = np.asarray(generator)
    return ("eigenbasis" if np.isrealobj(g) and g.shape[0] <= EIGENBASIS_MAX_NODES
            and exactly_symmetric(g) and np.isfinite(g.max()) and np.isfinite(g.min())
            else "factor")


def eigenbasis(generator: np.ndarray) -> EigenBasis:
    """The eigendecomposition of the exactly symmetric real ``generator`` by
    one LAPACK ``dsyevd``; LinearSolveError, naming the effective system, if
    it fails."""
    values, vectors, info = dsyevd(generator, compute_v=1, lower=1)
    if info:
        raise LinearSolveError(f"effective system: eigendecomposition failed "
                               f"(dsyevd info {info})")
    return EigenBasis(values, vectors)


def lu_factor(a: np.ndarray, *, ldl_lwork: int | None = None) -> Factor:
    """Factorize the complex ``a`` for ``lu_solve``, in place when ``a`` is
    C-order (layout: module docstring): its F-order view ``a.T`` by LU with
    partial pivoting (``zgetrf``, as scipy's ``lu_factor`` of ``a.T``) or,
    given ``zsytrf``'s workspace size ``ldl_lwork``, as L D L^T of that
    view's lower triangle, which must be that of a complex symmetric matrix.
    A zero pivot is left in ``info``."""
    if ldl_lwork is None:
        matrix, piv, info = zgetrf(a.T, overwrite_a=1)
    else:
        matrix, piv, info = zsytrf(a.T, lower=1, lwork=ldl_lwork, overwrite_a=1)
    if info < 0:
        raise ValueError(f"factorization: illegal value in argument {-info}")
    return Factor(matrix, piv, info, "LU" if ldl_lwork is None else "L D L^T")


def lu_solve(factor: Factor, rhs: np.ndarray) -> np.ndarray:
    """Solve a x = rhs for an (n, P) complex right-hand side, given
    ``lu_factor(a)`` with no zero pivot, or the eigenbasis factor of a
    stepper; ``rhs`` is not modified. The eigenbasis, with d its inverse
    diagonal, takes Q (d * (Q^T rhs)) as two real (n, 2P) products on the
    real view of ``rhs`` (of a C-order copy if ``rhs`` is not C-order).
    L D L^T takes one LAPACK ``zsytrs``. LU, a factor of
    a^T, takes the transposed solve (module docstring). For up to
    TRSV_MAX_COLUMNS columns it takes the steps of ``zgetrs`` column by
    column: two level-2 triangular solves (``ztrsv``) with U^T and the unit
    L^T, then the row interchanges in reverse order (``zlaswp``). For more it
    takes one direct ``zgetrs``, without the per-call argument checks of
    scipy's ``lu_solve``."""
    if factor.kind == "eigenbasis":
        q = factor.matrix
        y = (q.T @ np.ascontiguousarray(rhs, dtype=complex).view(float)).view(complex)
        y *= factor.piv
        return (q @ y.view(float)).view(complex)
    if factor.kind == "L D L^T":
        x, info = zsytrs(factor.matrix, factor.piv, rhs, lower=1)
    elif rhs.shape[1] > TRSV_MAX_COLUMNS:
        x, info = zgetrs(factor.matrix, factor.piv, rhs, trans=1)
    else:
        lu, x = factor.matrix, np.array(rhs, dtype=complex, order="F")
        for column in x.T:  # contiguous, so each ztrsv writes it in place
            ztrsv(lu, column, trans=1, overwrite_x=1)
            ztrsv(lu, column, lower=1, trans=1, diag=1, overwrite_x=1)
        return zlaswp(x, factor.piv, inc=-1, overwrite_a=1)
    if info:  # set only for an illegal argument
        raise ValueError(f"solve: illegal value in argument {-info}")
    return x


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

    Its inputs: the (n, n) ``generator`` it steps, the config ``cfg``, the
    step ``dt``, the step count ``n_steps``, and ``eps`` for a heterogeneous
    system only, where it keys the potential's phase t/eps mod 1 and names
    the system in errors and warnings; without ``eps`` the potential is not
    applied and the system is named the effective one. An effective system
    may be given the generator's ``basis`` (``eigenbasis``), and then steps
    in it instead of factorizing (module docstring); a heterogeneous one may
    not, since its potential diagonal changes with the phase.

    The implicit matrix depends on the generator, dt and the potential's
    phase, never on the path, so each phase is factorized once, of the kind,
    under the cache rule and in the block slot the module docstring states,
    and each step makes one ``lu_solve`` with P right-hand sides. Symmetry is
    tested once, at the first factorization for 2 to LDL_MAX_COLUMNS columns,
    by comparing blocks of SYMMETRY_SCAN_ROWS rows with the matching columns
    and stopping at the first block that differs; a NaN entry differs, so a
    non-finite G keeps LU. The implicit matrix is written into its slot and
    solved as the module docstring's layout states.
    The scaled generator is checked for finiteness once per stepper, from its
    extremes, and the potential diagonal once per phase; ``hits`` and
    ``misses`` count the cache lookups. A factorization that fails, a
    non-finite implicit matrix or a zero pivot raises LinearSolveError at the
    first factorization that meets it.
    """

    def __init__(self, generator: np.ndarray, cfg: SimConfig, dt: float, n_steps: int,
                 eps: float | None = None, basis: EigenBasis | None = None):
        if basis is not None and eps is not None:
            raise ValueError("an eigenbasis steps the effective system only")
        self.g_mat = np.asarray(generator)
        self._basis = basis
        self.cfg, self.dt = cfg, dt
        self.hits = self.misses = 0
        self._factors: dict[float | None, Factor] = {}  # phase key -> factor
        self._keys: list[float | None] = [None] * n_steps  # the phase key of each step
        # what every step needs, decided once; numpy divides a complex array
        # by a real scalar as a product with its reciprocal, so u * (1/theta)
        # is u / theta
        theta_s = cfg.theta_scheme
        self._inv_theta, self._carry = 1.0 / theta_s, (1.0 - theta_s) / theta_s
        self._noise = None if cfg.noise.is_zero else cfg.noise.apply
        self._forcing = None if cfg.f_spec.fn is None else cfg.f_spec.sample
        # an entry scales to (i theta dt) G_ij, whose parts are theta dt times
        # those of G_ij up to signed zeros; rounding is monotone, so all are
        # finite exactly when the scaled extremes are (max and min keep NaN)
        g = self.g_mat
        parts = (g.real, g.imag) if np.iscomplexobj(g) else (g,)
        self._g_finite = all(np.isfinite(theta_s * dt * float(e))
                             for p in parts for e in (p.max(), p.min()))
        self.label = ("effective system" if eps is None
                      else f"heterogeneous system at eps={eps:g}")
        if eps is not None and not cfg.v_spec.is_zero:
            # frozen-coefficient diagonal, sampled at the theta point of the
            # step (midpoint for theta = 1/2, which keeps second-order accuracy
            # in time); the Ito left-point rule applies to the noise term only.
            # The phase t/eps mod 1 is rounded to 12 digits into the key that V
            # is sampled at, so a phase's factor is the same whichever step
            # builds it; a phase that rounds to 1 is phase 0 and shares its factor
            self._keys = [round(((k * dt + theta_s * dt) / eps) % 1.0, 12) % 1.0
                          for k in range(n_steps)]
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
        recurring = [key for key, uses in Counter(self._keys).items() if uses > 1]
        capacity = max(1, LU_CACHE_BYTES // (16 * g.shape[0] ** 2))
        self._slots = {key: slot for slot, key in enumerate(recurring[:capacity])}
        if len(recurring) > capacity:
            warnings.warn(f"{self.label}: LU_CACHE_BYTES keeps the factors of {capacity} of the "
                          f"{len(recurring)} recurring potential phases, so the others "
                          "refactorize whenever they recur")

    @cached_property
    def _ldl_lwork(self) -> int | None:
        """``zsytrf``'s workspace size if G is exactly symmetric, else None."""
        if not exactly_symmetric(self.g_mat):
            return None
        work, _ = zsytrf_lwork(self.g_mat.shape[0], lower=1)
        return int(work.real)

    @cached_property
    def _block(self) -> np.ndarray:
        """The C-order (K, n, n) factor block: a slot per recurring key that
        the cache holds, and a last, spare slot if some key has none; each
        slot the C-order transpose of an F-order factor."""
        n, slots = self.g_mat.shape[0], len(self._slots)
        return np.empty((slots + (slots < len(set(self._keys))), n, n), dtype=complex)

    def _factors_at(self, k: int, columns: int = 1) -> Factor:
        """Factors of the implicit matrix of step k for a state of ``columns``
        columns, of the kind the module docstring states."""
        key = self._keys[k]
        entry = self._factors.get(key)
        if entry is not None:
            self.hits += 1
            return entry
        self.misses += 1
        where = f"{self.label}, phase {key}"
        if not self._g_finite:
            raise LinearSolveError(f"{where}: implicit matrix is not finite")
        scale = 1j * self.cfg.theta_scheme * self.dt
        if self._basis is not None:
            values, vectors = self._basis
            factor = Factor(vectors, (1.0 / (1.0 + scale * values))[:, None], 0, "eigenbasis")
        else:
            factor = self._factorize(key, where, scale, columns)
        if key in self._slots:
            self._factors[key] = factor
        return factor

    def _factorize(self, key: float | None, where: str, scale: complex, columns: int) -> Factor:
        """LU or L D L^T of I + i theta dt (G + diag(v)) at the phase ``key``,
        written row by row into the key's C-order slot, or the spare, and
        factorized there in place; G is only read."""
        v_diag = None if key is None else self._amp * self.cfg.v_spec.sample(self._y_frac, key)
        n = self.g_mat.shape[0]
        lhs = self._block[self._slots.get(key, -1)]
        np.multiply(self.g_mat, scale, out=lhs)
        lhs[np.diag_indices(n)] += 1.0 if v_diag is None else 1.0 + scale * v_diag
        if not np.isfinite(lhs.diagonal()).all():
            raise LinearSolveError(f"{where}: implicit matrix is not finite")
        ldl_lwork = self._ldl_lwork if 1 < columns <= LDL_MAX_COLUMNS else None
        try:
            factor = lu_factor(lhs, ldl_lwork=ldl_lwork)
        except np.linalg.LinAlgError as exc:
            raise LinearSolveError(f"{where}: implicit factorization failed: {exc}") from exc
        if factor.info:
            # LU factorizes the transpose, so its row interchanges are column
            # interchanges of the implicit matrix
            block, swaps = ("D", "row") if factor.kind == "L D L^T" else ("U", "column")
            zero = factor.info - 1
            raise LinearSolveError(f"{where}: implicit matrix is singular, pivot {zero} of "
                                   f"its {factor.kind} factor ({block}[{zero}, {zero}]) is "
                                   f"exactly zero; a position after {swaps} interchanges, "
                                   "not a grid node")
        return factor

    def step(self, u: np.ndarray, k: int, dw: np.ndarray) -> np.ndarray:
        """Advance the (n, P) state from t_k to t_{k+1}; ``dw`` holds the
        Brownian increment of each column. ``u`` is only read, and the new
        state has u's memory order."""
        factor = self._factors_at(k, u.shape[1])
        rhs = u * self._inv_theta
        if self._noise is not None:
            noise = self._noise(u)  # a new array, scaled in place to i g(u) dW
            noise *= 1j
            noise *= dw
            rhs -= noise
        if self._forcing is not None:
            dt = self.dt
            rhs -= 1j * self._forcing(k * dt, self.cfg.grid.nodes)[:, None] * dt
        out = self._carry * u
        return np.subtract(lu_solve(factor, rhs), out, out=out)


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
            # max keeps NaN and NaN fails the comparison, so one test of the
            # largest modulus flags NaN, inf and moduli above the limit
            modulus = np.abs(u)
            if not modulus.max() <= BLOWUP_LIMIT:
                diverged = ~(modulus.max(axis=0) <= BLOWUP_LIMIT)
                for j in np.flatnonzero(diverged & ~dead):
                    reasons[j] = TrajectoryBlowup(k + 1, stepper.label)
                    dead[j] = True
        if dead.any():
            for state in states:
                state[:, dead] = 0.0
        yield k + 1, states, dead, reasons


def simulate(system: Heterogeneous | Effective, cfg: SimConfig, path: BrownianPath,
             *, store_trajectory: bool = False, snapshot_every: int | None = None,
             generator: np.ndarray | None = None) -> SimResult:
    """Integrate one trajectory over [0, T] on the given Brownian path.

    The (n_steps + 1) x n trajectory is stored only with ``store_trajectory``.

    This is the one-column case of ``lockstep``. The system gives the
    stepper's eps (``Heterogeneous``) or none (``Effective``), and its
    generator unless ``generator`` is passed. The heterogeneous system
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
    if generator is None:
        generator = _build_generator(system, cfg)
    eps = system.epsilon if isinstance(system, Heterogeneous) else None
    stepper = ThetaStepper(generator, cfg, path.dt, n_steps, eps)

    u = cfg.initial_field()[:, None]
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
                     trajectory=traj, snapshots=snapshots, final=u[:, 0],
                     factorizations=stepper.misses, factor_hits=stepper.hits)



# Oracles of ``nshom validate`` and the tests, as in ``kernel``.

def norm_drift_error(alpha: float, n_steps: int = 64) -> tuple[float, float]:
    """|N_T / N_0 - 1| of the discrete norm, g = f = 0, over ``n_steps`` steps of
    1/128 at n = 64: heterogeneous system, eps = 1/4, oscillating potential."""
    cfg = SimConfig(grid=Grid1D.make(64), alpha=alpha, T=n_steps / 128,
                    v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
    res = simulate(Heterogeneous(0.25), cfg, brownian_increments(0, n_steps, 1.0 / 128))
    return abs(res.norm2[-1] / res.norm2[0] - 1.0), 1e-8


def ito_growth_error(alpha: float, n_steps: int = 128) -> tuple[float, float]:
    """|N_T / (N_0 e^{sigma^2 T}) - 1| for g = sigma u, sigma = 1/2, T = 1, at n = 64
    with unit effective coefficients. sigma^2 (sum dW^2 - T) ~ N(0, 2 sigma^4 T dt)
    dominates it; the tolerance is 8 of its standard deviations."""
    sigma, dt = 0.5, 1.0 / n_steps
    cfg = SimConfig(grid=Grid1D.make(64), alpha=alpha, T=1.0, noise=NoiseModel("linear", sigma))
    res = simulate(Effective(EffectiveCoefficients.from_values(1.0)), cfg,
                   brownian_increments(1, n_steps, dt))
    rel = abs(res.norm2[-1] / (res.norm2[0] * np.exp(sigma ** 2)) - 1.0)
    return rel, 8.0 * sigma ** 2 * np.sqrt(2.0 * dt)


def path_determinism_error(n_steps: int = 512) -> tuple[float, float]:
    """Largest difference between two draws of one counter-based path."""
    first, second = (brownian_increments(5, n_steps, 1e-2).increments for _ in range(2))
    return float(np.max(np.abs(first - second))), 0.0
