"""Spectra of graph and digraph matrices through equitable quotients.

Exact matrix construction for the six standard (di)graph matrices, exact
characteristic polynomials, quotient/partition machinery with the
block-spectrum shortcut, closed-form spectra and bounds for the
connectivity-extremal families, exhaustive small-order scans, and a CLI.
"""

from .errors import (
    BudgetExceeded,
    ConvergenceFailure,
    DimensionMismatch,
    DisconnectedInput,
    EqspecError,
    InvalidParameters,
    NotEquitable,
    NotNonnegative,
    NotSymmetric,
    ParseError,
    UnknownClaim,
    UnsupportedFamily,
    ZeroPolynomial,
)
from .families import (
    BidirectedComplete,
    CliqueStar,
    CompleteMultipartite,
    DirectedCycle,
    FamilySpec,
    KnkpDigraph,
    KnkpGraph,
    Petersen,
    adjacency_blockspec,
    build,
    format_family,
    natural_partition,
    parse_family,
)
from .graphs import (
    Digraph,
    Graph,
    MatrixKind,
    build_matrix,
    distance_matrix,
    format_graph_file,
    is_connected,
    is_strongly_connected,
    join,
    parse_graph_file,
    transmissions,
    vertex_connectivity,
)
from .linalg import (
    ExactMatrix,
    Polynomial,
    Spectrum,
    char_poly,
    eigenvalues,
    poly_roots,
    spectral_radius,
)
from .quotient import (
    BlockSpec,
    Partition,
    conjecture_probe,
    interlacing_check,
    is_equitable,
    lift_check,
    parse_partition,
    quotient_matrix,
    realize_block_matrix,
)
from .search import (
    ExtremalCertificate,
    ScanJob,
    conjecture_search,
    extremal_scan,
    is_isomorphic,
    theorem_scan,
)
from .theorems import (
    BoundResult,
    VerificationReport,
    claim_ids,
    cliquestar_charpoly,
    digraph_bound,
    digraph_laplacian_spectra,
    digraph_quotient_eigs,
    graph_bound,
    graph_laplacian_spectra,
    graph_quotient_charpolys,
    multipartite_charpoly,
    verify_claim,
)

__version__ = "0.1.0"
