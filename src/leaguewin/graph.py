"""Team-game graph construction, propagation matrices, and leakage-safe labels.

Each node is one team's side of one game.  A game's two nodes are joined by
an opponent edge; consecutive games of the same team are joined by a
previous-game edge, so node degree is between 1 and 3.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .ingest import FeatureMatrix, TeamGameRecord

GRAPH_SCHEMA_VERSION = 1

NORMALIZED_ADJACENCY = "normalized_adjacency"
CHEBYSHEV = "chebyshev"

# Power iteration for the Laplacian's largest eigenvalue: the step cap, and
# the relative change between steps at which the estimate counts as settled.
POWER_ITERATIONS = 100
POWER_TOL = 1e-6


@dataclass
class LeagueGraph:
    nodes: list[tuple[str, str, int]]  # (team, game_id, team_game_index)
    edges: set[tuple[int, int]]  # undirected, stored with u < v
    adjacency: sp.csr_matrix
    outcomes: np.ndarray  # own-game result per node (win=1, loss=0)
    labels: np.ndarray  # training label per node, -1 where unlabeled
    label_mask: np.ndarray
    features: FeatureMatrix | None = None

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


@dataclass
class Propagator:
    kind: str
    matrices: list[sp.csr_matrix]


def build_league_graph(
    records: list[TeamGameRecord], features: FeatureMatrix | None = None
) -> LeagueGraph:
    """Build the team-game graph for one league-season.

    Nodes follow (timestamp, game_id, team) order so feature-matrix rows
    line up with them; an optional pre-built matrix is validated against
    that order.
    """
    if not records:
        return LeagueGraph(
            nodes=[],
            edges=set(),
            adjacency=sp.csr_matrix((0, 0)),
            outcomes=np.zeros(0, dtype=np.int8),
            labels=np.full(0, -1, dtype=np.int8),
            label_mask=np.zeros(0, dtype=bool),
            features=features,
        )
    league_seasons = {(r.league, r.season) for r in records}
    if len(league_seasons) != 1:
        raise ValueError(f"records span multiple league-seasons: {sorted(league_seasons)}")

    ordered = sorted(records, key=lambda r: (r.timestamp, r.game_id, r.team))
    by_team: dict[str, list[TeamGameRecord]] = {}
    for r in ordered:
        by_team.setdefault(r.team, []).append(r)
    team_index = {
        (r.team, r.game_id): i
        for games in by_team.values()
        for i, r in enumerate(games)
    }

    nodes = [(r.team, r.game_id, team_index[(r.team, r.game_id)]) for r in ordered]
    node_of = {(r.team, r.game_id): n for n, r in enumerate(ordered)}
    edges: set[tuple[int, int]] = set()
    for n, r in enumerate(ordered):
        opp = node_of.get((r.opponent, r.game_id))
        if opp is None:
            raise ValueError(f"unpaired record for game {r.game_id}; validate upstream")
        edges.add((min(n, opp), max(n, opp)))
        idx = nodes[n][2]
        if idx > 0:
            prev = node_of[(r.team, by_team[r.team][idx - 1].game_id)]
            edges.add((min(n, prev), max(n, prev)))

    if features is not None:
        expected = [(t, g) for t, g, _ in nodes]
        if features.row_keys != expected:
            raise ValueError("feature matrix rows do not align with graph nodes")

    return LeagueGraph(
        nodes=nodes,
        edges=edges,
        adjacency=adjacency_from_edges(len(nodes), edges),
        outcomes=np.array([1 if r.won else 0 for r in ordered], dtype=np.int8),
        labels=np.full(len(nodes), -1, dtype=np.int8),
        label_mask=np.zeros(len(nodes), dtype=bool),
        features=features,
    )


def adjacency_from_edges(n: int, edges: set[tuple[int, int]]) -> sp.csr_matrix:
    if not edges:
        return sp.csr_matrix((n, n))
    rows, cols = [], []
    for u, v in edges:
        rows += [u, v]
        cols += [v, u]
    data = np.ones(len(rows))
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def sym_normalized(adj: sp.spmatrix, add_self_loops: bool = True) -> sp.csr_matrix:
    """D^(-1/2) A D^(-1/2), with A+I and its degrees when add_self_loops."""
    a = sp.csr_matrix(adj, dtype=np.float64)
    if add_self_loops:
        a = (a + sp.eye(a.shape[0], format="csr")).tocsr()
    deg = np.asarray(a.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        d_inv_sqrt = 1.0 / np.sqrt(deg)
    d_inv_sqrt[~np.isfinite(d_inv_sqrt)] = 0.0
    d = sp.diags(d_inv_sqrt)
    return (d @ a @ d).tocsr()


def normalized_adjacency(graph: LeagueGraph) -> Propagator:
    """Self-loop-augmented symmetric normalization of the graph adjacency."""
    return Propagator(NORMALIZED_ADJACENCY, [sym_normalized(graph.adjacency)])


def normalized_laplacian(adj: sp.spmatrix) -> sp.csr_matrix:
    # I - D^(-1/2) A D^(-1/2), without self loops; zero-degree rows give I.
    n = adj.shape[0]
    return (sp.eye(n, format="csr") - sym_normalized(adj, add_self_loops=False)).tocsr()


def power_iteration_lambda_max(matrix: sp.spmatrix) -> float | None:
    """Largest-magnitude eigenvalue estimate; None when it fails to settle."""
    n = matrix.shape[0]
    if n == 0:
        return None
    v = np.random.default_rng(0).normal(size=n)
    norm = np.linalg.norm(v)
    if norm == 0:
        return None
    v /= norm
    lam = 0.0
    for _ in range(POWER_ITERATIONS):
        w = matrix @ v
        norm = np.linalg.norm(w)
        if norm == 0:
            return None
        new_lam = float(v @ w)
        v = w / norm
        if abs(new_lam - lam) <= POWER_TOL * max(1.0, abs(new_lam)):
            return new_lam
        lam = new_lam
    return None


def chebyshev_basis(graph: LeagueGraph, degree: int) -> Propagator:
    """Chebyshev basis [T0..TK] of the rescaled normalized Laplacian.

    T0 = I, T1 = L~, Tk = 2 L~ Tk-1 - Tk-2 with L~ = (2/lambda_max) L - I.
    lambda_max is estimated by power iteration, falling back to the
    theoretical bound 2.0 when the estimate does not converge.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    n = graph.n_nodes
    identity = sp.eye(n, format="csr")
    if degree == 0:
        return Propagator(CHEBYSHEV, [identity.tocsr()])
    lap = normalized_laplacian(graph.adjacency)
    lam = power_iteration_lambda_max(lap)
    if lam is None or lam <= 0:
        lam = 2.0
    scaled = ((2.0 / lam) * lap - identity).tocsr()
    basis = [identity.tocsr(), scaled]
    for _ in range(2, degree + 1):
        basis.append((2.0 * (scaled @ basis[-1]) - basis[-2]).tocsr())
    return Propagator(CHEBYSHEV, basis)


def assign_labels(graph: LeagueGraph, convolutions: int) -> LeagueGraph:
    """Label each node with its team's outcome c+1 games later.

    With c graph convolutions a node's receptive field spans c hops, so the
    first leakage-safe target is the game at team index i+c+1.  Nodes whose
    team runs out of games stay unlabeled but keep their features
    (semi-supervised masking).
    """
    if convolutions < 1:
        raise ValueError("convolutions must be >= 1")
    team_nodes: dict[str, dict[int, int]] = {}
    for n, (team, _, idx) in enumerate(graph.nodes):
        team_nodes.setdefault(team, {})[idx] = n
    labels = np.full(graph.n_nodes, -1, dtype=np.int8)
    mask = np.zeros(graph.n_nodes, dtype=bool)
    offset = convolutions + 1
    for n, (team, _, idx) in enumerate(graph.nodes):
        source = team_nodes[team].get(idx + offset)
        if source is not None:
            labels[n] = graph.outcomes[source]
            mask[n] = True
    return replace(graph, labels=labels, label_mask=mask)


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


def graph_to_json(graph: LeagueGraph) -> str:
    doc = {
        "schema_version": GRAPH_SCHEMA_VERSION,
        "nodes": [[t, g, i] for t, g, i in graph.nodes],
        "edges": sorted([u, v] for u, v in graph.edges),
        "outcomes": graph.outcomes.tolist(),
        "labels": graph.labels.tolist(),
        "label_mask": [bool(b) for b in graph.label_mask],
        "features": None
        if graph.features is None
        else {
            "row_keys": [[t, g] for t, g in graph.features.row_keys],
            "columns": graph.features.columns,
            "values": graph.features.values.tolist(),
        },
    }
    return json.dumps(doc)


def edge_list_text(graph: LeagueGraph) -> str:
    return "".join(f"{u} {v}\n" for u, v in sorted(graph.edges))
