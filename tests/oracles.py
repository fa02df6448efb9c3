"""Test oracles: small, slow, obviously correct restatements of what the
package computes, used to check its fast paths."""

import math

import numpy as np

from leaguewin.graph import LeagueGraph
from leaguewin.synth import SynthConfig


def label_source_node(graph: LeagueGraph, node: int, convolutions: int) -> int | None:
    """Node whose own game provided ``node``'s label, if any."""
    team, _, idx = graph.nodes[node]
    for n, (t, _, i) in enumerate(graph.nodes):
        if t == team and i == idx + convolutions + 1:
            return n
    return None


def receptive_field(graph: LeagueGraph, node: int, hops: int) -> set[int]:
    """Breadth-first set of nodes within ``hops`` edges, node included."""
    if not 0 <= node < graph.n_nodes:
        raise ValueError(f"node {node} outside graph")
    if hops < 0:
        raise ValueError("hops must be >= 0")
    indptr, indices = graph.adjacency.indptr, graph.adjacency.indices
    seen = {node}
    frontier = [node]
    for _ in range(hops):
        nxt = []
        for u in frontier:
            for v in indices[indptr[u] : indptr[u + 1]]:
                if v not in seen:
                    seen.add(int(v))
                    nxt.append(int(v))
        frontier = nxt
    return seen


def win_probability(skill_a: float, skill_b: float) -> float:
    """Bradley-Terry chance that the first team wins."""
    return 1.0 / (1.0 + math.exp(skill_b - skill_a))


def latent_skills(config: SynthConfig) -> np.ndarray:
    """The skill vector ``synth.generate_league`` draws first from its rng."""
    rng = np.random.default_rng(config.seed)
    return rng.normal(0.0, config.latent_skill_std, size=config.n_teams)
