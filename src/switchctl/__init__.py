"""Numerical toolkit for time-inconsistent control of state-dependent
regime-switching diffusions: switching-geometry construction, Monte
Carlo simulation, coupled parabolic/HJB solvers, the N-player partition
cycles, the equilibrium two-time system solved in one backward march,
recursive-cost evaluation with spike-perturbation checks, and the
regime-switching consumption/investment worked example.
"""

__version__ = "0.1.0"
