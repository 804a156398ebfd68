"""Synthetic social graphs for graph-based Sybil classification.

Graph-based defenses (SybilGuard, SybilRank, SybilFuse, ...) exploit the
structural assumption that the benign region is fast-mixing and Sybil
nodes attach to it through a limited number of *attack edges*.  This
module synthesizes such graphs: a benign region and a Sybil region, each
a small-world/preferential-attachment graph, bridged by a configurable
number of attack edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Set

import numpy as np

if TYPE_CHECKING:
    import networkx as nx


@dataclass
class SocialGraph:
    """A labeled synthetic social network."""

    graph: nx.Graph
    benign: Set[int]
    sybil: Set[int]
    attack_edges: int

    @property
    def n(self) -> int:
        return self.graph.number_of_nodes()

    def labels(self) -> dict:
        """Node -> True (benign) / False (sybil)."""
        return {node: (node in self.benign) for node in self.graph.nodes}


def synthesize_social_graph(
    benign_size: int,
    sybil_size: int,
    attack_edges: int,
    rng: np.random.Generator,
    mean_degree: int = 8,
) -> SocialGraph:
    """Benign + Sybil regions bridged by ``attack_edges`` random edges.

    Both regions are Barabási-Albert graphs (heavy-tailed degrees, fast
    mixing), matching the synthetic setups used to evaluate SybilFuse
    [41].  Sybil nodes are relabeled to follow the benign nodes.
    """
    # Imported here, not at module level: the classifier package rides
    # along with every ``repro`` import, and only this function needs
    # networkx (about 0.1 s of start-up on top of the package's own).
    import networkx as nx

    if benign_size < 4 or sybil_size < 4:
        raise ValueError("regions must have at least 4 nodes each")
    if attack_edges < 1:
        raise ValueError("need at least one attack edge to connect regions")
    m = max(1, mean_degree // 2)
    seed_a = int(rng.integers(0, 2**31 - 1))
    seed_b = int(rng.integers(0, 2**31 - 1))
    benign_graph = nx.barabasi_albert_graph(benign_size, m, seed=seed_a)
    sybil_graph = nx.barabasi_albert_graph(sybil_size, m, seed=seed_b)
    graph = nx.disjoint_union(benign_graph, sybil_graph)
    benign_nodes = set(range(benign_size))
    sybil_nodes = set(range(benign_size, benign_size + sybil_size))
    added = 0
    while added < attack_edges:
        u = int(rng.integers(0, benign_size))
        v = int(rng.integers(benign_size, benign_size + sybil_size))
        if not graph.has_edge(u, v):
            graph.add_edge(u, v)
            added += 1
    return SocialGraph(
        graph=graph,
        benign=benign_nodes,
        sybil=sybil_nodes,
        attack_edges=attack_edges,
    )


def trusted_seeds(
    social: SocialGraph, count: int, rng: np.random.Generator
) -> List[int]:
    """A uniformly random sample of benign nodes to act as trust seeds."""
    benign = sorted(social.benign)
    if count > len(benign):
        raise ValueError(f"cannot pick {count} seeds from {len(benign)} benign nodes")
    picks = rng.choice(len(benign), size=count, replace=False)
    return [benign[int(i)] for i in picks]
