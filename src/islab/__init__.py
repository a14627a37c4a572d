"""islab: a numerical laboratory for area-preserving surface dynamics.

Subpackages/modules:

- maps: map descriptors, composition/inversion, the linear torus
  automorphism, standard-family kicks, shears and Henon-form maps
- hamiltonian: Hamiltonian systems and the implicit-midpoint integrator
  (order 2, or Suzuki's order-4 five-stage composition) with exact
  variational Jacobians
- blowup: per-center surgery charts, the surgered torus map, boundary saddles
- lyapunov: exponent estimators, entropy grids, cone certificates
- curves: graph curves, periodic functions, graph transforms, bump partitions
- links: the near-linking model, splitting functionals, link restoration,
  time-energy charts
- rescaling: saddle normal forms, transition maps, rescaling charts,
  Henon-product comparison
- config / cli: flat key=value experiment configs, the `islab` command
"""

__version__ = "0.1.0"
