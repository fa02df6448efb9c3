"""The one order and pairing rule for a league's rows (``ingest.paired_rows``):
``record_sort_key`` order, with rows 2k and 2k+1 one game's two sides."""

import numpy as np
import pytest

from leaguewin import synth
from leaguewin.baselines.scope import games_from_records
from leaguewin.graph import build_league_graph
from leaguewin.ingest import FeatureSpec, MatchLogError, build_feature_matrix, paired_rows, record_sort_key

SPEC = FeatureSpec.default()

# Every caller that reads a row's opponent or order off the pairing rule.
CALLERS = {
    "matrix-raw": lambda records: build_feature_matrix(records, SPEC, "raw"),
    "matrix-delta": lambda records: build_feature_matrix(records, SPEC, "delta"),
    "graph": build_league_graph,
    "scope-games": games_from_records,
}


def _season():
    return synth.generate_league(synth.SynthConfig(n_teams=5, games_per_pair=2, seed=3))


def test_paired_rows_sorts_and_pairs_each_game():
    records = _season()
    ordered = paired_rows(records[::-1])
    assert [id(r) for r in ordered] == [id(r) for r in sorted(records, key=record_sort_key)]
    for a, b in zip(ordered[::2], ordered[1::2]):
        assert (a.game_id, a.team, a.opponent) == (b.game_id, b.opponent, b.team)


@pytest.mark.parametrize("position", [0, 17, -1], ids=["first", "middle", "last"])
@pytest.mark.parametrize("caller", CALLERS.values(), ids=CALLERS.keys())
def test_league_missing_one_side_of_a_game_raises_naming_it(caller, position):
    records = _season()
    dropped = records.pop(position)
    with pytest.raises(MatchLogError, match=f"^game {dropped.game_id}: "):
        caller(records)


def test_first_game_at_fault_is_named():
    records = _season()
    first, later = records[4], records[20]
    assert record_sort_key(first) < record_sort_key(later) and first.game_id != later.game_id
    del records[20], records[4]
    with pytest.raises(MatchLogError, match=f"^game {first.game_id}: "):
        paired_rows(records)


def test_sides_that_do_not_mirror_are_not_a_pair():
    records = _season()
    records[1].opponent = "nobody"
    with pytest.raises(MatchLogError, match=f"^game {records[0].game_id}: "):
        paired_rows(records)


def test_delta_row_is_the_raw_row_minus_its_opponents_bit_for_bit():
    records = _season()
    records[5].features[2] = float("nan")  # imputed before the delta is taken
    raw, delta = (build_feature_matrix(records, SPEC, mode) for mode in ("raw", "delta"))
    row_of = {key: i for i, key in enumerate(raw.row_keys)}
    for i, (team, game_id) in enumerate(raw.row_keys):
        opponent = next(r.opponent for r in records if (r.team, r.game_id) == (team, game_id))
        assert np.array_equal(delta.values[i], raw.values[i] - raw.values[row_of[(opponent, game_id)]])


def test_shuffled_input_gives_what_sorted_input_gives():
    records = _season()
    shuffled = [records[i] for i in np.random.default_rng(0).permutation(len(records))]
    for mode in ("raw", "delta"):
        want, got = build_feature_matrix(records, SPEC, mode), build_feature_matrix(shuffled, SPEC, mode)
        assert got.row_keys == want.row_keys
        assert np.array_equal(got.values, want.values)
    want, got = build_league_graph(records), build_league_graph(shuffled)
    assert (got.nodes, got.edges) == (want.nodes, want.edges)
    assert np.array_equal(got.outcomes, want.outcomes)
    assert (got.adjacency != want.adjacency).nnz == 0
    assert games_from_records(shuffled) == games_from_records(records)
