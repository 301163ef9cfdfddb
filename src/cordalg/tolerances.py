"""Tolerance defaults for the whole pipeline, collected in one table.

Every length-like tolerance is expressed as a fraction of the curve period L
and scaled once at construction, so a single ``tol_scale`` knob rescales the
numerics coherently.  Values marked ``abs`` are dimensionless.
"""

from dataclasses import dataclass, field, replace


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
    boundary_tol: float = 1e-4       # F^s arc termination at dS cords       (*L)

    # flow_engine
    event_tol: float = 1e-9          # event time/location refinement        (*L)
    basin_frac: float = 0.02         # index-0 basin ball radius             (*L)
    trajectory_tol: float = 1e-3     # index-1 saddle-connection ball        (*L)
    split_offset: float = 1e-8       # child advance before event re-arming  (*L)
    min_split_decrease: float = 1e-6 # both children shorter by at least     (*L)
    max_splits: int = 64
    max_steps: int = 200_000

    # presentation_builder
    max_perturb: int = 8             # genericity retry budget
    reduce_cap: int = 400            # rewrite steps per relation (best effort)

    def scaled(self, factor):
        """Return a copy with all tolerance magnitudes multiplied by ``factor``."""
        scale_fields = (
            "tol_arc", "embedding_floor", "newton_tol", "merge_tol",
            "intersect_tol", "endpoint_margin", "tau_floor", "boundary_tol",
            "event_tol", "trajectory_tol", "split_offset", "min_split_decrease",
        )
        return replace(self, **{f: getattr(self, f) * factor for f in scale_fields})


DEFAULT_TOL = Tolerances()
