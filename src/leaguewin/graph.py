"""Team-game graph construction, propagation matrices, and leakage-safe labels.

Each node is one team's side of one game, in ``ingest.paired_rows`` order:
nodes 2k and 2k+1 are one game's two sides, joined by an opponent edge.
Consecutive games of the same team are joined by a previous-game edge, so
node degree is between 1 and 3.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .ingest import FeatureMatrix, TeamGameRecord, paired_rows

# scipy.sparse is imported where matrices are built, so commands that build
# no graph (simulate, ingest) do not load it.
if TYPE_CHECKING:
    import scipy.sparse as sp

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
    # The convolution count assign_labels labelled for; None while unlabelled.
    convolutions: int | None = None
    # gcn.build_propagator's builds on this graph, by (kind, degree).  Not an
    # init field, so a replace() copy starts empty and reuses no build, while
    # experiment.cell_jobs gives all graphs of one league one shared dict.
    propagators: dict[tuple[str, int], Propagator] = field(default_factory=dict, init=False, repr=False, compare=False)

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

    Nodes follow ``paired_rows`` order, as feature-matrix rows do; an
    optional pre-built matrix is validated against that order.
    """
    league_seasons = {(r.league, r.season) for r in records}
    if len(league_seasons) > 1:
        raise ValueError(f"records span multiple league-seasons: {sorted(league_seasons)}")

    ordered = paired_rows(records)
    nodes = []
    team_nodes: dict[str, list[int]] = {}  # each team's nodes, in game order
    for n, r in enumerate(ordered):
        games = team_nodes.setdefault(r.team, [])
        nodes.append((r.team, r.game_id, len(games)))
        games.append(n)
    edges = {(n, n + 1) for n in range(0, len(nodes), 2)}  # opponent edges
    for games in team_nodes.values():
        edges.update(zip(games, games[1:]))  # previous-game edges

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
    import scipy.sparse as sp

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
    import scipy.sparse as sp

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
    import scipy.sparse as sp

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
    import scipy.sparse as sp

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
    team_nodes: dict[str, list[int]] = {}  # each team's nodes, in game order
    for n, (team, _, _) in enumerate(graph.nodes):
        team_nodes.setdefault(team, []).append(n)
    labels = np.full(graph.n_nodes, -1, dtype=np.int8)
    mask = np.zeros(graph.n_nodes, dtype=bool)
    offset = convolutions + 1
    for games in team_nodes.values():
        labels[games[:-offset]] = graph.outcomes[games[offset:]]
        mask[games[:-offset]] = True
    return replace(graph, labels=labels, label_mask=mask, convolutions=convolutions)


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
