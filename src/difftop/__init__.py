"""Numerical toolkit for smooth homotopy constructions on diffeological spaces.

The package is organized around ten modules:

* ``smoothfn``    -- flat smoothing profiles (gamma, lambda, xi) and the
                     finite-difference smoothness checker,
* ``diskmodel``   -- the hemisphere model of disks/spheres with its
                     iterated-quotient chart and canonical section,
* ``cellcomplex`` -- finite relative cell complexes built by attaching
                     hemisphere disks, and canonical point loci,
* ``homotopy``    -- endpoint-flat homotopy algebra and path components,
* ``subdivision`` -- the smooth bijection disk^(n+1) -> disk^n x [0,1]
                     built from a piecewise chart and a wrinkle,
* ``diffeology``  -- plot-generated spaces, smooth-map checking, the
                     exponential law, the plot-final topology test, and
                     the irrational torus,
* ``lifting``     -- fibration oracles and the cell-by-cell covering
                     homotopy extension and lift-extension algorithms,
* ``instances``   -- JSON instance files (expressions, spaces, complexes,
                     fibrations) and the bundled lifting instances,
* ``verify``      -- seed-reproducible property suites and the instance
                     checks they share with the command line,
* ``cli``         -- the ``difftop`` command line.
"""

from .smoothfn import (
    SmoothnessReport, gamma, lambda_fn, lambda_inv,
    smoothness_check, xi, xi_inv,
)
from .diskmodel import (
    DomainError, Q, gen_plot, include_j, include_k, q, random_disk,
    random_sphere, reflect, retract, retract_homotopy, section,
)
from .subdivision import CylPoint, in_L, phi_map, psi, psi_inv, rho
from .cellcomplex import Cell, CellComplex, ComplexPoint
from .homotopy import (
    Homotopy, PairMapRep, concat, delta_restrict, glue_double,
    path_components, star, to_tilde_homotopy,
)
from .diffeology import (
    DiffSpace, MapEvaluator, Parameterization, coproduct,
    d_topology_open_sample, euclidean, exponential_alpha,
    exponential_alpha_inv, functional, irrational_torus, product, quotient,
    smooth_check, subspace,
)
from .lifting import (
    Fibration, LiftError, TrivialProductFibration, chep, extend_lift, hep,
    point_fibration, product_fibration, transfinite_extension,
)
from .verify import RunConfig, run_suite

__version__ = "0.1.0"
