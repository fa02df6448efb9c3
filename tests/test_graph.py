import json
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
import scipy.sparse as sp

from leaguewin import synth
from leaguewin.graph import (
    LeagueGraph,
    adjacency_from_edges,
    assign_labels,
    build_league_graph,
    chebyshev_basis,
    edge_list_text,
    graph_to_json,
    normalized_adjacency,
    sym_normalized,
)
from leaguewin.ingest import TeamGameRecord
from oracles import label_source_node, receptive_field

UTC = timezone.utc


def rec(game_id, team, opponent, won, ts, league="LPL", season=2020):
    return TeamGameRecord(
        game_id, league, season, team, opponent, ts, won, 10 if won else 5,
        5 if won else 10, np.array([1.0]),  # spec ["towers"]
    )


def game(game_id, team_a, team_b, a_won, ts):
    return [rec(game_id, team_a, team_b, a_won, ts), rec(game_id, team_b, team_a, not a_won, ts)]


def brute_force_edges(records):
    """Independent edge enumerator: scan every record pair.

    Opponent edge iff the two records share a game; previous-game edge iff
    they share a team and sit at consecutive ranks of that team's
    time-sorted game list.
    """
    ordered = sorted(records, key=lambda r: (r.timestamp, r.game_id, r.team))
    rank = {}
    for team in {r.team for r in ordered}:
        mine = sorted(
            (r for r in ordered if r.team == team), key=lambda r: (r.timestamp, r.game_id)
        )
        for i, r in enumerate(mine):
            rank[(team, r.game_id)] = i
    node_of = {(r.team, r.game_id): n for n, r in enumerate(ordered)}
    edges = set()
    for a in ordered:
        for b in ordered:
            u, v = node_of[(a.team, a.game_id)], node_of[(b.team, b.game_id)]
            if u >= v:
                continue
            if a.game_id == b.game_id and a.team != b.team:
                edges.add((u, v))
            if a.team == b.team and abs(rank[(a.team, a.game_id)] - rank[(b.team, b.game_id)]) == 1:
                edges.add((u, v))
    nodes = [(r.team, r.game_id, rank[(r.team, r.game_id)]) for r in ordered]
    return nodes, edges


def test_single_game_graph():
    g = build_league_graph(game("g1", "A", "B", True, datetime(2020, 1, 1, tzinfo=UTC)))
    assert g.n_nodes == 2
    assert g.edges == {(0, 1)}
    degrees = np.asarray(g.adjacency.sum(axis=1)).ravel()
    assert degrees.tolist() == [1.0, 1.0]


def test_two_sequential_games_hand_enumerated():
    t0 = datetime(2020, 1, 1, tzinfo=UTC)
    records = game("g1", "A", "B", True, t0) + game("g2", "A", "C", False, t0 + timedelta(days=1))
    g = build_league_graph(records)
    assert g.n_nodes == 4
    # Node order: (A,g1), (B,g1), (A,g2), (C,g2).
    assert [n[:2] for n in g.nodes] == [("A", "g1"), ("B", "g1"), ("A", "g2"), ("C", "g2")]
    assert g.edges == {(0, 1), (2, 3), (0, 2)}


def test_round_robin_counts_and_brute_force():
    for t in (4, 6, 7):
        cfg = synth.SynthConfig(n_teams=t, games_per_pair=1, seed=t)
        records = synth.generate_league(cfg)
        g = build_league_graph(records)
        assert g.n_nodes == t * (t - 1)
        opponent_edges = t * (t - 1) // 2
        previous_edges = t * (t - 2)
        assert len(g.edges) == opponent_edges + previous_edges
        nodes, edges = brute_force_edges(records)
        assert g.nodes == nodes
        assert g.edges == edges


def test_random_seasons_match_brute_force():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        cfg = synth.SynthConfig(
            n_teams=int(rng.integers(2, 9)),
            games_per_pair=int(rng.integers(1, 4)),
            seed=seed,
        )
        records = synth.generate_league(cfg)
        g = build_league_graph(records)
        nodes, edges = brute_force_edges(records)
        assert g.nodes == nodes
        assert g.edges == edges
        degrees = np.asarray(g.adjacency.sum(axis=1)).ravel()
        assert degrees.min() >= 1 and degrees.max() <= 3


def test_empty_input_gives_empty_graph():
    g = build_league_graph([])
    assert g.n_nodes == 0 and g.edges == set()


def test_mixed_league_season_rejected():
    t0 = datetime(2020, 1, 1, tzinfo=UTC)
    records = game("g1", "A", "B", True, t0)
    records += [rec("g2", "C", "D", True, t0, league="LCS"), rec("g2", "D", "C", False, t0, league="LCS")]
    with pytest.raises(ValueError, match="league-seasons"):
        build_league_graph(records)


def test_determinism():
    records = synth.generate_league(synth.SynthConfig(n_teams=6, seed=9))
    g1 = build_league_graph(records)
    g2 = build_league_graph(list(records))
    assert g1.nodes == g2.nodes and g1.edges == g2.edges
    assert (g1.adjacency != g2.adjacency).nnz == 0


def test_normalized_adjacency_two_node_hand_value():
    g = build_league_graph(game("g1", "A", "B", True, datetime(2020, 1, 1, tzinfo=UTC)))
    p = normalized_adjacency(g)
    assert p.kind == "normalized_adjacency"
    assert np.allclose(p.matrices[0].toarray(), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_normalized_adjacency_zero_edge_fixture_is_identity():
    g = _edgeless_graph(4)
    p = normalized_adjacency(g)
    assert np.array_equal(p.matrices[0].toarray(), np.eye(4))


def test_normalized_adjacency_matches_dense_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        dense = _random_symmetric(rng, n)
        out = sym_normalized(sp.csr_matrix(dense)).toarray()
        a_hat = dense + np.eye(n)
        d_inv_sqrt = np.diag(1.0 / np.sqrt(a_hat.sum(axis=1)))
        expected = d_inv_sqrt @ a_hat @ d_inv_sqrt
        assert np.abs(out - expected).max() < 1e-12
        eigs = np.linalg.eigvalsh(out)
        assert eigs.min() >= -1 - 1e-10 and eigs.max() <= 1 + 1e-10
        assert np.abs(out - out.T).max() == 0.0


def test_chebyshev_degree_zero_is_identity(medium_season):
    g = build_league_graph(medium_season)
    p = chebyshev_basis(g, 0)
    assert len(p.matrices) == 1
    assert np.array_equal(p.matrices[0].toarray(), np.eye(g.n_nodes))


def test_chebyshev_degree_one_eigenvalues(medium_season):
    g = build_league_graph(medium_season)
    p = chebyshev_basis(g, 1)
    assert len(p.matrices) == 2
    scaled = p.matrices[1].toarray()
    assert np.abs(scaled - scaled.T).max() < 1e-12
    eigs = np.linalg.eigvalsh(scaled)
    assert eigs.min() >= -1 - 1e-9 and eigs.max() <= 1 + 1e-9


def test_chebyshev_recurrence_on_path():
    t0 = datetime(2020, 1, 1, tzinfo=UTC)
    # 3-node path: A-B game then A-C? that branches; build explicit path via A,B then B,C.
    records = game("g1", "A", "B", True, t0) + game("g2", "B", "C", False, t0 + timedelta(days=1))
    g = build_league_graph(records)
    p = chebyshev_basis(g, 2)
    t0_m, t1_m, t2_m = (m.toarray() for m in p.matrices)
    assert np.abs(t2_m - (2.0 * t1_m @ t1_m - t0_m)).max() < 1e-12


def test_assign_labels_five_games_offset_one():
    t0 = datetime(2020, 1, 1, tzinfo=UTC)
    outcomes = [True, False, True, True, False]
    records = []
    for i, won in enumerate(outcomes):
        records += game(f"g{i}", "A", "B", won, t0 + timedelta(days=i))
    g = assign_labels(build_league_graph(records), convolutions=1)
    a_nodes = {n[2]: i for i, n in enumerate(g.nodes) if n[0] == "A"}
    for idx in (0, 1, 2):
        node = a_nodes[idx]
        assert g.label_mask[node]
        assert g.labels[node] == int(outcomes[idx + 2])
    for idx in (3, 4):
        assert not g.label_mask[a_nodes[idx]]


def test_assign_labels_records_its_convolution_count(medium_season):
    g = build_league_graph(medium_season)
    assert g.convolutions is None
    assert [assign_labels(g, c).convolutions for c in (1, 2, 3)] == [1, 2, 3]


def test_assign_labels_offset_exceeds_history():
    t0 = datetime(2020, 1, 1, tzinfo=UTC)
    records = []
    for i in range(3):
        records += game(f"g{i}", "A", "B", True, t0 + timedelta(days=i))
    g = assign_labels(build_league_graph(records), convolutions=2)
    assert int(g.label_mask.sum()) == 0


def test_label_source_outside_receptive_field(medium_season):
    for c in (1, 2):
        g = assign_labels(build_league_graph(medium_season), convolutions=c)
        for node in np.flatnonzero(g.label_mask):
            source = label_source_node(g, int(node), c)
            assert source is not None
            field = receptive_field(g, int(node), c)
            assert source not in field
            team, _, idx = g.nodes[node]
            assert g.nodes[source][0] == team and g.nodes[source][2] == idx + c + 1


def test_receptive_field_basics():
    g = build_league_graph(game("g1", "A", "B", True, datetime(2020, 1, 1, tzinfo=UTC)))
    assert receptive_field(g, 0, 0) == {0}
    assert receptive_field(g, 0, 1) == {0, 1}


def test_receptive_field_matches_matrix_power(medium_season):
    g = build_league_graph(medium_season)
    a_plus_i = g.adjacency.toarray() + np.eye(g.n_nodes)
    rng = np.random.default_rng(1)
    for hops in (1, 2, 3):
        reach = np.linalg.matrix_power(a_plus_i, hops) > 0
        for node in rng.integers(0, g.n_nodes, size=8):
            assert receptive_field(g, int(node), hops) == set(np.flatnonzero(reach[node]))


def test_graph_json_round_trip(small_season):
    from leaguewin.ingest import FeatureSpec, build_feature_matrix

    matrix = build_feature_matrix(small_season, FeatureSpec.default(), "delta")
    g = assign_labels(build_league_graph(small_season, features=matrix), 1)
    doc = json.loads(graph_to_json(g))
    assert [tuple(n) for n in doc["nodes"]] == g.nodes
    assert {tuple(e) for e in doc["edges"]} == g.edges
    assert np.array_equal(doc["labels"], g.labels)
    assert np.array_equal(doc["label_mask"], g.label_mask)
    assert np.array_equal(doc["outcomes"], g.outcomes)
    assert [tuple(k) for k in doc["features"]["row_keys"]] == g.features.row_keys
    assert doc["features"]["columns"] == g.features.columns
    assert np.array_equal(np.array(doc["features"]["values"]), g.features.values)


def test_edge_list_format():
    g = build_league_graph(game("g1", "A", "B", True, datetime(2020, 1, 1, tzinfo=UTC)))
    assert edge_list_text(g) == "0 1\n"


def _edgeless_graph(n):
    return LeagueGraph(
        nodes=[("T", f"g{i}", i) for i in range(n)],
        edges=set(),
        adjacency=adjacency_from_edges(n, set()),
        outcomes=np.zeros(n, dtype=np.int8),
        labels=np.full(n, -1, dtype=np.int8),
        label_mask=np.zeros(n, dtype=bool),
    )


def _random_symmetric(rng, n):
    upper = rng.random((n, n)) < 0.3
    dense = np.triu(upper, 1)
    return (dense | dense.T).astype(np.float64)
