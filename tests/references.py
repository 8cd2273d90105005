"""Reference computations that only the tests use: the principal-value
quadrature of the Theta == 1 generator and the extreme eigenvalues of a cell
form. They stand apart from the package so that its commands and the
benchmark carry only what they run."""

from typing import Callable

import numpy as np
from scipy import integrate

from nshom.kernel import _check_alpha


class PVConvergenceError(RuntimeError):
    """Raised when the principal-value reference quadrature fails to converge."""

    def __init__(self, message: str, value: float, achieved: float):
        super().__init__(f"{message} (best value {value:.6e}, achieved error {achieved:.2e})")
        self.value = value
        self.achieved = achieved


def pv_oracle(u: Callable[[float], float], x: float, alpha: float,
              tol: float = 1e-8, delta0: float = 0.25, max_levels: int = 9) -> float:
    """Adaptive-quadrature reference value of (G u)(x) for Theta == 1.

    Evaluates -int_delta^inf (u(x+s) + u(x-s) - 2 u(x)) s^{-1-alpha} ds with a
    symmetric excision of the singularity (u extended by zero outside D, so the
    exterior term is included automatically) and Richardson-extrapolates in the
    excision radius with exponents 2-alpha, 4-alpha, ...

    Raises PVConvergenceError with the achieved error when refinement stalls.
    """
    _check_alpha(alpha)
    if tol <= 0.0:
        raise ValueError("tol must be positive")

    probes = [complex(u(p)) for p in (x, (x - 1.0) / 2.0, (x + 1.0) / 2.0)]
    if any(p.imag != 0.0 for p in probes):
        re = pv_oracle(lambda s: complex(u(s)).real, x, alpha, tol, delta0, max_levels)
        im = pv_oracle(lambda s: complex(u(s)).imag, x, alpha, tol, delta0, max_levels)
        return re + 1j * im
    u0 = probes[0].real

    s_kinks = sorted({abs(1.0 - x), abs(1.0 + x)})
    s_max = max(s_kinks)

    def symmetric_part(s):
        return -(u(x + s) + u(x - s) - 2.0 * u0) * s ** (-1.0 - alpha)

    def f_of_delta(delta: float) -> float:
        pts = [delta] + [p for p in s_kinks if delta < p < s_max] + [s_max]
        total = 0.0
        for a, b in zip(pts[:-1], pts[1:]):
            if b <= a:
                continue
            val, _ = integrate.quad(symmetric_part, a, b, limit=300,
                                    epsabs=tol * 1e-3, epsrel=1e-12)
            total += val
        # beyond s_max both u(x +- s) vanish
        total += 2.0 * u0 * s_max ** (-alpha) / alpha
        return total

    # Richardson tableau removing delta^{2-alpha}, delta^{4-alpha}, ...
    rows: list[list[float]] = []
    best = np.inf
    best_val = 0.0
    for k in range(max_levels):
        delta = delta0 / 2.0 ** k
        row = [f_of_delta(delta)]
        for j in range(1, k + 1):
            p = 2.0 - alpha + 2.0 * (j - 1)
            fac = 2.0 ** p
            row.append((fac * row[j - 1] - rows[k - 1][j - 1]) / (fac - 1.0))
        rows.append(row)
        if k >= 1:
            err = abs(row[-1] - rows[k - 1][-1])
            scale = max(1.0, abs(row[-1]))
            if err <= tol * scale:
                return row[-1]
            if err < best:
                best, best_val = err, row[-1]
    raise PVConvergenceError("principal-value refinement did not converge", best_val, best)


def form_eigenvalues(a: np.ndarray) -> tuple[float, float, float]:
    """(most negative, smallest mean-zero-subspace, largest) eigenvalues of the form."""
    vals = np.linalg.eigvalsh(a)
    return float(vals[0]), float(vals[1]), float(vals[-1])
