"""Colored permutation groups, their difference tables, succession statistics,
and the explicit bijections connecting them, with exhaustive brute-force
verification at desk scale."""

from .core import (
    ColoredPermutation,
    ColoredSymbol,
    DomainError,
    ParseError,
    format_cycles,
    format_one_line,
    parse_cycles,
    parse_one_line,
    rotate_left,
    rotate_right,
)
from .statistics import (
    CIRCULAR,
    LINEAR,
    SKEW_LINEAR,
    circular_pairs,
    circular_successions,
    fixed_points,
    is_derangement,
    is_increasing_fixed,
    is_isolated_fixed,
    linear_pairs,
    skew_linear_pairs,
)
from .tables import (
    DifferenceTable,
    FLAVOR_D,
    FLAVOR_G,
    build_table,
    check_recurrences,
    derangement_number,
    egf_coefficient,
    g_closed_form,
)
from .bijections import (
    ClassSignature,
    SuccessionDecomposition,
    class_core,
    class_representative,
    class_signature,
    colored_foata,
    colored_foata_inverse,
    derangement_insert,
    derangement_remove,
    foata,
    foata_inverse,
    increasing_to_isolated,
    insert_max_succession,
    isolate_forward,
    isolate_inverse,
    isolated_insert,
    isolated_remove,
    isolated_to_increasing,
    prefix_action,
    remove_max_succession,
    signature_insert,
    succession_compose,
    succession_decompose,
)
from .enumeration import (
    BudgetError,
    DEFAULT_BUDGET,
    bounded_matrix,
    distribution,
    distribution_matrix,
    element_at,
    enumerate_group,
    enumerate_range,
    family_counts,
    group_size,
    partition_bounds,
    verify_suite,
)
from .reporting import CheckResult, report_json

__version__ = "0.1.0"
