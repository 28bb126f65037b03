"""Error-tolerating Bell operators from graph states, with exact LHV bounds."""

__version__ = "0.1.0"

from .bell import (
    BellCoefficients,
    LhvAssignment,
    LhvResult,
    bell_coefficients,
    family_oracle_complete,
    family_oracle_star_copies,
    lhv_bound,
    lhv_bounds,
    lhv_value,
)
from .canon import CanonicalForm, OrbitCapExceeded, canonicalize, lc_orbit
from .coverable import CoverableSet, coverable_set
from .dyadic import Dyadic
from .families import complete, complete_join, parse_family, ring, star, star_copies
from .graph6 import Graph6Error, emit_graph6, parse_graph6
from .graphs import Graph, disjoint_union, iter_bits
from .quantum import (
    KrausChannel,
    amplitude_damping_channel,
    apply_channel,
    bell_expectation,
    build_graph_state,
    depolarizing_channel,
    random_weight_t_channel,
)
from .search import (
    SearchReport,
    class_reps,
    iso_class_reps,
    reproduce_table1,
    search_file,
    search_labeled_all,
)

__all__ = [name for name in dir() if not name.startswith("_")]
