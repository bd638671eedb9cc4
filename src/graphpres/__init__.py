"""Finite group presentations from group actions on graphs.

The pipeline takes a finite simple graph with an edge-preserving action of a
finite group, chooses a regular scaffolding (orbit representatives, their reversal
pairing, carrier elements), emits the edge / out-and-back / loop / tree
relation families over the supplied vertex-stabilizer presentations, and
verifies the result independently: coset enumeration must give the group
order and rebuilding the graph from the presented group must reproduce it.
"""

from .coset import CosetTable, EnumerationLimitError, todd_coxeter
from .coxeter import (build_coxeter_context, coxeter_implication_check,
                      coxeter_substitution, face_boundary_check, greedy_disc_ordering)
from .derive import (DerivationInput, StabilizerData, auto_derivation_input,
                     derive_presentation, presentation_matches, validate_input)
from .dot import cayley_underlying_graph, export_cayley_dot, export_graph_dot
from .golden import GoldenNum, GoldenQuat, golden_sqrt, quat_from_rotation, quat_mul
from .graphs import (ActionedGraph, Graph, OrientedEdge, find_inversion,
                     validate_action, vertex_orbits)
from .perms import (FiniteGroupTable, Perm, bfs_tree, generate_closure, perm, perm_compose,
                    perm_inverse)
from .presentation import Presentation
from .scaffold import (Scaffolding, build_regular_scaffolding, build_spanning_tree,
                       validate_regularity)
from .verify import (DerivedPresentation, abelianization_smith, build_kozsul_model,
                     check_covering_isomorphism, presentation_order_check,
                     smith_normal_form)
from .words import (Word, cyclic_normal_form, edge_relation, edge_word,
                    evaluate_word_in_G, inverse_letters, loop_relation, normal_form,
                    rewrite_word_to_E1, trace_path)

__version__ = "0.1.0"
