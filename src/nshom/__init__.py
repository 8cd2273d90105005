"""Nonlocal stochastic Schrodinger equations on D = (-1, 1): dense singular-kernel
operators, periodic-cell correctors, effective drift assembly, Ito time stepping,
and coupled-path convergence experiments.

Import names from their modules, e.g. ``from nshom.kernel import Grid1D``; the
package itself exports only its version and the numerical modules it loads."""

__version__ = "0.1.0"

# loaded with the package, in this order: perfbench's worker imports nshom
# before its calibration, and its peak RSS depends on which comes first
from . import kernel, cell, effective, integrator

__all__ = ["__version__", "kernel", "cell", "effective", "integrator"]
