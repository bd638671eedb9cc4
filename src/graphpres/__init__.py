"""Finite group presentations from group actions on graphs.

The pipeline takes a finite simple graph with an edge-preserving action of a
finite group, chooses a regular scaffolding (orbit representatives, their reversal
pairing, carrier elements), emits the edge / out-and-back / loop / tree
relation families over the supplied vertex-stabilizer presentations, and
verifies the result independently: coset enumeration must give the group
order and rebuilding the graph from the presented group must reproduce it.
"""

__version__ = "0.1.0"
