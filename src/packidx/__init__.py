"""Exact packing-index toolkit for finitely described abelian groups."""

__version__ = "0.1.0"

from .groups import (
    Element,
    Factor,
    GroupSpec,
    Window,
    enumerate_window,
    format_element,
    format_group,
    parse_element,
    parse_group,
)
from .packing import (
    CliqueResult,
    ElementSet,
    PackingFamily,
    difference_set,
    max_clique_in_bset,
    max_packing_family,
    read_set_file,
    translates_disjoint,
    write_set_file,
)
from .bsets import (
    BSet,
    CoverageCheck,
    build_bset,
    check_property_1,
    check_property_2,
    check_property_3,
    is_exceptional,
)
from .witness import (
    InvariantReport,
    TraceStep,
    WitnessSet,
    build_witness,
    verify_witness,
    windowed_sharp_index,
)
from .obstruction import (
    SweepReport,
    TripleCase,
    classify_triple,
    exhaustive_no_index_check,
    extend_pair_exponent3,
    extend_triple,
)
from .pairmap import (
    PairMap,
    Validation,
    common_point,
    search_pairmap,
    validate_pairmap,
)

__all__ = [name for name in dir() if not name.startswith("_")]
