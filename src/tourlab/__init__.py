"""tourlab: infinite tournaments, unavoidable oriented graphs, and
inversion density.

The library is organized around five areas:

- `core`: orientation oracles for tournament families, ordinal values and
  injections, finite and generator-presented oriented graphs;
- `analysis`: acyclicity, reachability closures, and the unavoidability
  classifier;
- `embedding`: greedy and spanning embeddings of well-behaved graphs into
  transitive and oracle-backed tournaments;
- `density`: exact forward-pair and inversion densities, rank
  decompositions, block schemes, and the window-density optimizer;
- `cli`: the `tourlab` command.
"""

from .analysis import (
    Classification,
    ClosureResult,
    classify_unavoidability,
    gamma,
    is_acyclic,
)
from .core import (
    Direction,
    ExponentialThreshold,
    FactorialBlock,
    FiniteOrientedGraph,
    InjectionSpec,
    OrdinalInjectionTournament,
    OrdinalValue,
    PresentedGraph,
    SeededRandom,
    SplitTransitive,
    TabulatedTournament,
    TournamentOracle,
    TransitiveOmega,
    TransitiveOmegaStar,
    anti_path,
    binomial2,
    exact_density,
    forward_path,
    identity_injection,
    interleaved_forest,
    out_stars,
    presented_from_name,
    random_presented,
    read_graph_file,
    read_injection_file,
    tournament_from_name,
)
from .counting import (
    inversion_prefix,
    inversions_brute,
    inversions_upto,
    prior_greater_counts,
    ranks_of_values,
)
from .density import (
    BLOCK_PATTERNS,
    BlockScheme,
    DensityBoundsReport,
    DensityProfile,
    RankDecomposition,
    density_profile,
    dominance_check,
    factorial_scheme,
    forward_pair_count,
    inversion_density_profile,
    make_block_scheme,
    optimize_scheme,
    rank_decompose,
    window_min_density,
)
from .embedding import (
    EmbeddingMap,
    InfinitenessOracle,
    PMPartition,
    SpanStep,
    SpanningResult,
    check_pm_partition,
    embed_finite_acyclic,
    find_transitive_subtournament,
    greedy_embed_transitive,
    infiniteness_oracle_for,
    pm_partition,
    spanning_embed,
)

__all__ = [
    "BLOCK_PATTERNS",
    "BlockScheme",
    "Classification",
    "ClosureResult",
    "DensityBoundsReport",
    "DensityProfile",
    "Direction",
    "EmbeddingMap",
    "ExponentialThreshold",
    "FactorialBlock",
    "FiniteOrientedGraph",
    "InfinitenessOracle",
    "InjectionSpec",
    "OrdinalInjectionTournament",
    "OrdinalValue",
    "PMPartition",
    "PresentedGraph",
    "RankDecomposition",
    "SeededRandom",
    "SpanStep",
    "SpanningResult",
    "SplitTransitive",
    "TabulatedTournament",
    "TournamentOracle",
    "TransitiveOmega",
    "TransitiveOmegaStar",
    "anti_path",
    "binomial2",
    "check_pm_partition",
    "classify_unavoidability",
    "density_profile",
    "dominance_check",
    "embed_finite_acyclic",
    "exact_density",
    "factorial_scheme",
    "find_transitive_subtournament",
    "forward_pair_count",
    "forward_path",
    "gamma",
    "greedy_embed_transitive",
    "identity_injection",
    "infiniteness_oracle_for",
    "interleaved_forest",
    "inversion_density_profile",
    "inversion_prefix",
    "inversions_brute",
    "inversions_upto",
    "is_acyclic",
    "make_block_scheme",
    "optimize_scheme",
    "out_stars",
    "pm_partition",
    "presented_from_name",
    "prior_greater_counts",
    "random_presented",
    "rank_decompose",
    "ranks_of_values",
    "read_graph_file",
    "read_injection_file",
    "tournament_from_name",
]

__version__ = "0.1.0"
