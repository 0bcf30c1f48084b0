"""Decision procedures for reversible, weakly reversible and strongly
reversible topologies: exact finite-topology combinatorics plus a symbolic
engine for the countable model spaces.

The package root exports the finite layer only.  The countable layer is
imported from its own modules, so that finite work does not load it:
:mod:`revtop.symbolic` (model spaces, witnesses and certificates) and
:mod:`revtop.descriptors` (the normal-form algebra of countable sets)."""

from .topology import (
    FiniteTopology,
    TopologyError,
    CapExceededError,
    DimensionMismatchError,
    MissingEmptyError,
    MissingFullError,
    NotClosedUnderIntersectionError,
    NotClosedUnderUnionError,
    antidiscrete_topology,
    canonical_form,
    discrete_topology,
    homeo_class,
    image_topology,
    is_continuous,
    is_homeomorphism,
    preorder_of_topology,
    validate_topology,
)
from .enumeration import (
    TopologyCatalog,
    canonical_preorder,
    catalog,
    enumerate_topologies,
    enumerate_topologies_by_closure,
    enumerate_topologies_via_preorders,
)
from .order import (
    CondOrderDigraph,
    StrongKind,
    classify_strongly_reversible,
    condensational_leq,
    condensational_order,
    conv_hull,
    is_reversible,
    is_strongly_reversible,
    is_weakly_reversible,
    sim_class,
)
from .ramsey import (
    HomogeneousResult,
    constant_or_increasing,
    constant_or_injective,
    homogeneous_pairs,
    verify_result,
)

__all__ = [name for name in dir() if not name.startswith("_")]
