"""Numerical toolkit for Yang-Mills fields on curved spacetimes.

Modules:
    geometry   -- diagonal charts, Christoffel, Riemann, unit time, frames
    liegauge   -- compact Lie algebras, gauge potentials/curvatures, residuals
    sphere     -- sphere quadrature; gradient and divergence as node matrices
    nullcone   -- past null cone bundles: rays, frames, optical scalars
    parametrix -- cone transport field and the representation formula
    energy     -- stress tensor, energies, fluxes, divergence identity
    evolution  -- temporal-gauge Cauchy evolution on periodic grids
    bounds     -- the quadratic comparison envelope and its Picard oracle
    runner     -- scenario configs, experiments, reports, CLI
"""

__version__ = "0.1.0"
