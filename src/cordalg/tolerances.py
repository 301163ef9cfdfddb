"""Tolerance defaults for the whole pipeline, collected in one table.

Values marked ``*L`` are fractions of the curve period L and are multiplied
by L where they are used, values marked ``abs`` are dimensionless, and the
unmarked ones are counts.  The CLI runs with ``DEFAULT_TOL``; library
callers may pass another table.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # knot_model
    tol_arc: float = 1e-4            # |gamma'| in [1-tol, 1+tol]            (abs)
    embedding_floor: float = 1e-6    # min clearance between far segments    (*L)
    curvature_floor: float = 1e-4    # |gamma''| lower bound at samples      (abs)

    # energy_landscape
    newton_tol: float = 1e-10        # gradient norm at accepted criticals   (*L)
    merge_tol: float = 1e-6          # duplicate critical point merge        (*L)
    nondegeneracy_rel: float = 1e-6  # eigenvalue floor relative to max |ev| (abs)
    diag_tube: float = 0.02          # diagonal tube half-width              (*L)
    grid_start: int = 64             # initial seeding density per axis
    grid_max: int = 1024             # escalation cap

    # incidence_sets
    intersect_tol: float = 1e-6      # accepted chord/knot hit distance      (*L)
    endpoint_margin: float = 1e-3    # arclength exclusion around endpoints  (*L)
    tau_floor: float = 1e-3          # chord-fraction exclusion              (abs)

    # flow_engine
    event_tol: float = 1e-9          # event time/location refinement        (*L)
    basin_frac: float = 0.02         # index-0 basin ball radius             (*L)
    trajectory_tol: float = 1e-3     # index-1 saddle-connection ball        (*L)
    min_split_decrease: float = 1e-6 # both children shorter by at least     (*L)
    max_splits: int = 64
    max_steps: int = 200_000

    # presentation_builder
    max_perturb: int = 8             # genericity retry budget


DEFAULT_TOL = Tolerances()
