"""Quantum CSS LDPC codes from balanced products of lossless expanders."""

__version__ = "0.1.0"

from .gf2 import F2Matrix, F2Vector, mat_vec, rank
from .graphs import (
    BipartiteGraph,
    CayleyGraph,
    GraphAction,
    NonRegularReport,
    RegularityProfile,
    build_bipartite,
    cayley_bipartite,
    invert_gens,
    neighbors,
    regularity,
)
from .groups import (
    FiniteGroup,
    GroupAction,
    cyclic_group,
    dihedral_group,
    trivial_action,
    trivial_group,
    verify_free_action,
)
from .expansion import (
    ExpansionCertificate,
    TreePartition,
    certify_expansion,
    check_unique_expander_bound,
    edge_count_bounds,
    tree_partition,
    unique_neighbors,
)
from .product import (
    BalancedProductComplex,
    DegreeProfile,
    balanced_product,
    copies_decomposition,
    hypergraph_product,
    inherit_certificates,
)
from .css import (
    CssCode,
    brute_distance,
    code_params,
    extract_code,
    locally_minimal_distance,
    normalized_weight,
    normalized_syndrome_weight,
)
from .decoder import (
    DecoderConfig,
    decode,
    decode_x,
    guaranteed_correctable_weight,
    region_diagnostics,
    size_gates,
)
from .harness import ExperimentConfig, ExperimentResult, run_simulation
