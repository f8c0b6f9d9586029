"""Degree-sequence conditions for graph toughness.

Library surface: degree sequences and majorization, Chvatal-type
condition algebra with the blocking/frontier duality, forcibly-P
checkers with constructive witnesses, exact small-graph oracles,
integer partitions, and the sink-enumeration machinery that lower
bounds best monotone 1/k-tough theorems.
"""

from .sequences import (
    DegreeSequence,
    NotGraphicalError,
    parse_sequence,
    format_sequence,
    is_graphical,
    majorizes,
)
from .conditions import (
    ChvatalCondition,
    evaluate,
    canonicalize,
    equivalent,
    blocking_condition,
    frontier_sequence,
    parse_condition,
    format_condition,
    condition_to_json,
    condition_from_json,
)
from .graphs import (
    Graph,
    ToughnessResult,
    clique,
    empty_graph,
    union,
    join,
    components,
    toughness,
    is_t_tough,
    is_hamiltonian,
    is_k_connected,
    parse_graph,
    read_graph,
    graph_to_json,
)
from .partitions import (
    count_partitions,
    enumerate_partitions,
    partition_function,
    claim4_identity,
)
from .checkers import (
    Verdict,
    parse_rational,
    check_hamiltonian_chvatal,
    check_kconnected,
    check_tough_ge1,
    check_tough_le1,
    hamiltonian_conditions,
    kconnected_conditions,
    tough_ge1_conditions,
    tough_le1_conditions,
)
from .subposet import (
    GroupStat,
    SinkReport,
    family,
    family_size,
    enumerate_family,
    compute_sinks,
    subposet_report,
    generate_best_monotone,
    is_weakly_optimal,
    edge_maximal_tough_sequences,
    sweep_sinks,
)

__version__ = "0.1.0"
