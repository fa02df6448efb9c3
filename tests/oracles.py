"""Test oracles: small, slow, obviously correct restatements of what the
package computes, used to check its fast paths."""

import csv
import io
import math

import numpy as np

from leaguewin.graph import LeagueGraph
from leaguewin.ingest import RECORD_COLUMNS, FeatureSpec
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


def emit_csv(records, spec: FeatureSpec | None = None) -> bytes:
    """``ingest.emit_csv`` through ``csv.writer``, one list of cells a row."""
    if spec is None:
        spec = FeatureSpec.default()
    feature_cols = [j for j, n in enumerate(spec.names) if n not in RECORD_COLUMNS]
    header = list(RECORD_COLUMNS) + [spec.names[j] for j in feature_cols]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for r in records:
        row = [
            r.game_id,
            r.league,
            str(r.season),
            r.timestamp.isoformat(),
            r.team,
            r.opponent,
            "1" if r.won else "0",
            str(r.kills),
            str(r.opponent_kills),
            "1" if r.is_regular_season else "0",
        ]
        values = r.features.tolist()
        row += ["" if math.isnan(v) else repr(v) for v in map(values.__getitem__, feature_cols)]
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")
