"""Option pricing by Laplace-transforming the Black-Scholes equation.

The parabolic pricing problem is turned into a family of independent
complex-valued elliptic problems along a deformed hyperbolic contour;
time-domain prices are recovered by spectral quadrature inversion.
"""

from .analytic import bs_put, l2_error, reduction_rate
from .contour import (ContourParams, kappa_bound, mu, omega_of_y,
                      quadrature_nodes, validate)
from .fem1d import Market1D, Mesh1D, payoff_put, robin_coefficient
from .fem2d import (Basket2D, EdgeSpec, Mesh2D, payoff_basket_maxput,
                    relative_l2, solve2d)
from .cn import MarchConfig, march1d, march2d
from .inversion import TransformEnsemble, invert_at, invert_many
from .parallel import ProblemSpec, SpeedupRow, solve_ensemble

__version__ = "0.1.0"
