"""Rainbow path extremal machinery, executable end to end.

A properly edge-colored graph either contains a rainbow path of a given
length or its edge count is capped. This package makes both halves of that
statement concrete: exact search for rainbow paths, the extremal colorings
that show the cap is nearly tight, a rotation engine that certifies
terminal vertices with re-validated witness paths, a battery of mechanized
counting checks, a step-by-step vertex-deletion certificate for the edge
bound, and small-case brute force to keep everything honest.
"""

from .errors import (FalsificationError, GraphError, GuardError, PathError,
                     PreconditionError, WitnessError)
from .graphs import (ColoredGraph, GraphSkeleton, ProperColoringReport,
                     complete_graph, disjoint_union, graph_from_json_obj,
                     graph_to_json_obj, induced_subgraph, load_graph,
                     one_factorization, one_factorized_complete, parse_graph,
                     save_graph, serialize_graph, serialize_graph_json,
                     validate_proper)
from .search import (ExistsOutcome, RainbowPath, SearchOutcome,
                     has_rainbow_path, is_rainbow, longest_rainbow_path,
                     path_from_vertices, spanning_rainbow_path_between,
                     spanning_rainbow_path_from)
from .constructions import (BoundTableRow, bipartite_f2k, blowup, bound_table,
                            bound_table_row, lower_bound_edges,
                            maamoun_meyniel)
from .profile import PathProfile, compute_profile
from .terminals import (AuxGraph, MatchingReport, RuleFire, TerminalReport,
                        build_aux_oracle, build_aux_rules, matching_stats,
                        maximum_matching, terminal_oracle, terminal_rules)
from .claims import ClaimContext, ClaimOutcome, ClaimReport, check_claims
from .induction import (InductionCertificate, StepRecord, frac_str,
                        induction_step, run_induction, verify_certificate)
from .oracle import (ExstarResult, clique_packing, coloring_avoiding,
                     count_proper_colorings, erdos_gallai_bound, exstar_small,
                     packing_edge_count, proper_colorings)
from .corpus import (FailureRecord, RunConfig, SuiteSummary,
                     build_claim_context, check_instance, random_instance,
                     run_suite, sweep)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
