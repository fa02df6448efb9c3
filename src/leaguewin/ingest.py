"""Season match-log ingestion: the match-log CSV's reader and writer, pairing
validation, feature matrices.

A league's rows have one order and one pairing rule, kept by ``paired_rows``:
records in ``record_sort_key`` order, with rows 2k and 2k+1 the two sides of
one game.  Feature-matrix rows, graph nodes, forest rows and SCOPE games all
follow it, so a row's opponent is row ``i ^ 1``.
"""

from __future__ import annotations

import array
import csv
import io
import json
import math
import operator
import re
import warnings
from collections.abc import Collection
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import zip_longest

import numpy as np

REQUIRED_COLUMNS = (
    "gameid",
    "league",
    "season",
    "date",
    "team",
    "opponent",
    "result",
    "kills",
    "opponent_kills",
)
# The columns read into and written from record fields, not features.
RECORD_COLUMNS = (*REQUIRED_COLUMNS, "is_regular_season")

CATEGORIES = ("objectives", "farm", "gold_experience", "fighting", "vision")

# Default feature set: one block per category, column names matching common
# league stat exports.  Fully overridable via a JSON feature-spec file.
DEFAULT_FEATURES: dict[str, str] = {
    "towers": "objectives",
    "inhibitors": "objectives",
    "dragons": "objectives",
    "barons": "objectives",
    "heralds": "objectives",
    "first_tower": "objectives",
    "first_dragon": "objectives",
    "first_baron": "objectives",
    "total_cs": "farm",
    "jungle_cs": "farm",
    "cs_per_min": "farm",
    "total_gold": "gold_experience",
    "gold_per_min": "gold_experience",
    "gold_diff_at_10": "gold_experience",
    "gold_diff_at_15": "gold_experience",
    "xp_diff_at_10": "gold_experience",
    "kills": "fighting",
    "deaths": "fighting",
    "assists": "fighting",
    "double_kills": "fighting",
    "triple_kills": "fighting",
    "quadra_kills": "fighting",
    "penta_kills": "fighting",
    "first_blood": "fighting",
    "kills_per_min": "fighting",
    "wards_placed": "vision",
    "wards_killed": "vision",
    "control_wards": "vision",
    "vision_score": "vision",
    "vision_score_per_min": "vision",
}


class MatchLogError(ValueError):
    """Base class for match-log validation failures."""


class SchemaError(MatchLogError):
    pass


class PairingError(MatchLogError):
    def __init__(self, message: str, game_ids: list[str]):
        super().__init__(message)
        self.game_ids = game_ids


@dataclass(slots=True)
class TeamGameRecord:
    """One team's side of one game."""

    game_id: str
    league: str
    season: int
    team: str
    opponent: str
    timestamp: datetime
    won: bool
    kills: int
    opponent_kills: int
    features: np.ndarray  # one value per name of the record's FeatureSpec, in its order; NaN if blank
    is_regular_season: bool = True


@dataclass
class FeatureSpec:
    names: list[str]
    categories: dict[str, str]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("feature names must be unique")
        missing = [n for n in self.names if n not in self.categories]
        if missing:
            raise ValueError(f"features without a category: {missing}")
        bad = sorted({c for c in self.categories.values()} - set(CATEGORIES))
        if bad:
            raise ValueError(f"unknown categories: {bad}")

    @classmethod
    def default(cls) -> "FeatureSpec":
        return cls(list(DEFAULT_FEATURES), dict(DEFAULT_FEATURES))


@dataclass
class ColumnStats:
    mean: np.ndarray
    std: np.ndarray


@dataclass
class FeatureMatrix:
    row_keys: list[tuple[str, str]]  # (team, game_id)
    columns: list[str]
    values: np.ndarray
    standardization_stats: ColumnStats | None = None


@dataclass
class QualityReport:
    """Row-level issues collected while parsing and building matrices."""

    rows_read: int = 0
    records_parsed: int = 0
    row_errors: list[tuple[int, str]] = field(default_factory=list)
    imputed: dict[str, int] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "rows_read": self.rows_read,
            "records_parsed": self.records_parsed,
            "row_errors": [[line, msg] for line, msg in self.row_errors],
            "imputed": self.imputed,
            "warnings": self.warnings,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


_TRUE = ("1", "true", "yes")
_FALSE = ("0", "false", "no")


def _parse_bool(raw: str, column: str) -> bool:
    v = raw.strip().lower()
    if v in _TRUE:
        return True
    if v in _FALSE:
        return False
    raise ValueError(f"{column} must be 0/1, got {raw!r}")


def _parse_timestamp(raw: str) -> datetime:
    ts = datetime.fromisoformat(raw.strip())
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def record_sort_key(r: TeamGameRecord):
    # Timestamp ties break by (game_id, team) so parsing is order-stable.
    return (r.league, r.season, r.timestamp, r.game_id, r.team)


def paired_rows(records: list[TeamGameRecord]) -> list[TeamGameRecord]:
    """``records`` in ``record_sort_key`` order, checked in one pass that
    rows 2k and 2k+1 are the two sides of one game: the same game id, with
    team and opponent mirrored.  Raises ``MatchLogError`` naming the first
    game at fault."""
    ordered = sorted(records, key=record_sort_key)
    for a, b in zip_longest(ordered[::2], ordered[1::2]):
        if b is None or (b.game_id, b.team, b.opponent) != (a.game_id, a.opponent, a.team):
            raise MatchLogError(f"game {a.game_id}: {a.team}'s row has no paired row for {a.opponent}")
    return ordered


def parse_match_csv(
    data: bytes,
    spec: FeatureSpec | None = None,
    report: QualityReport | None = None,
    leagues: Collection[str] | None = None,
) -> list[TeamGameRecord]:
    """Parse a UTF-8 match-log CSV into validated team-game records.

    Rows that fail numeric validation, an infinite feature value included,
    are skipped and recorded in ``report`` with the line each row starts
    on; schema and pairing violations raise.

    ``leagues``, a collection of league names, limits the parse to rows
    whose ``league`` cell, stripped, names one of them: only those are
    converted, checked, counted in ``report.rows_read`` and paired, so the
    records and row errors are those of the full parse filtered to them,
    and another league's bad row or unpaired game is not an error.  A row
    too short to hold a league cell is still checked.  In a file without a
    ``"`` every line is one row, and another league's line is skipped
    before it is decoded; otherwise every line is decoded and tokenized.
    """
    if spec is None:
        spec = FeatureSpec.default()
    if report is None:
        report = QualityReport()
    lines = enumerate(io.BytesIO(data), start=1)
    header = next(_csv_rows(lines), (1, None))[1]
    if header is None:
        raise SchemaError("empty input: no header row")
    col = {name: i for i, name in enumerate(header)}
    if len(col) < len(header):
        twice = sorted({name for name in header if header.count(name) > 1})
        raise SchemaError(f"header columns appear more than once: {twice}")
    missing = [c for c in REQUIRED_COLUMNS if c not in col]
    missing += [c for c in spec.names if c not in col]
    if missing:
        raise SchemaError(f"missing required columns: {sorted(set(missing))}")
    league_idx = col["league"]
    if leagues is not None:
        leagues = frozenset(leagues)
        if b'"' not in data:
            lines = _league_lines(lines, league_idx, leagues)
    flag_idx = col.get("is_regular_season")
    feature_idx = [col[n] for n in spec.names]
    # itemgetter returns a bare cell, not a tuple, for a single index.
    take = operator.itemgetter(*feature_idx) if len(feature_idx) > 1 else lambda row: [row[i] for i in feature_idx]
    values = array.array("d")  # every record's features, row after row
    starts = array.array("q")  # the line each record's row starts on
    n_errors = len(report.row_errors)

    # One object per distinct name and date cell, shared by every row that
    # holds it; names and datetimes are immutable, so sharing is unseen.
    names: dict[str, str] = {}
    dates: dict[str, datetime] = {}

    def name(cell: str) -> str:
        cell = cell.strip()
        return names.setdefault(cell, cell)

    def timestamp(cell: str) -> datetime:
        ts = dates.get(cell)
        if ts is None:
            ts = dates[cell] = _parse_timestamp(cell)
        return ts

    records: list[TeamGameRecord] = []
    for line_no, row in _csv_rows(lines):
        if not row or all(not c.strip() for c in row):
            continue
        if leagues is not None and len(row) > league_idx and row[league_idx].strip() not in leagues:
            continue
        report.rows_read += 1
        start = len(values)
        try:
            record = TeamGameRecord(
                game_id=name(row[col["gameid"]]),
                league=name(row[league_idx]),
                season=int(row[col["season"]]),
                team=name(row[col["team"]]),
                opponent=name(row[col["opponent"]]),
                timestamp=timestamp(row[col["date"]]),
                won=_parse_bool(row[col["result"]], "result"),
                kills=_parse_count(row[col["kills"]], "kills"),
                opponent_kills=_parse_count(row[col["opponent_kills"]], "opponent_kills"),
                features=None,  # a row of the matrix built below
            )
            try:
                values.extend(map(float, take(row)))
            except (ValueError, IndexError):  # blank (NaN) or bad cells: redo cell by cell, in field order
                del values[start:]
                values.extend([_parse_feature(row[i]) for i in feature_idx])
            if flag_idx is not None and row[flag_idx].strip():
                record.is_regular_season = _parse_bool(row[flag_idx], "is_regular_season")
        except (ValueError, IndexError) as exc:
            del values[start:]
            report.row_errors.append((line_no, str(exc)))
            continue
        records.append(record)
        starts.append(line_no)
    matrix = np.frombuffer(values, dtype=np.float64).reshape(len(records), len(spec.names))
    infinite = np.isinf(matrix)  # float() reads "inf" and "1e999": those rows are row errors too
    bad_rows = infinite.any(axis=1)
    if bad_rows.any():
        bad = np.flatnonzero(bad_rows)
        errors = [
            (starts[i], f"{spec.names[j]} must be finite, got {matrix[i, j]}")
            for i, j in zip(bad.tolist(), infinite[bad].argmax(axis=1))  # each row's first infinite column
        ]
        report.row_errors[n_errors:] = sorted(report.row_errors[n_errors:] + errors)
        records = [r for r, b in zip(records, bad_rows) if not b]
        matrix = matrix[~bad_rows]
    for record, x in zip(records, matrix):
        record.features = x

    _validate_pairs(records)
    records.sort(key=record_sort_key)
    report.records_parsed = len(records)
    return records


def _csv_rows(lines):
    """``(line, cells)`` for each CSV row read from ``lines``, an iterator of
    ``(line number, line)`` pairs of undecoded lines ending at ``\\n``; a row
    is numbered by the line it starts on.  Reads no line past the row it
    yields, so a second call can go on where the first stopped."""
    first = at = 0

    def text():
        nonlocal first, at
        for at, line in lines:
            first = first or at
            try:
                yield line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MatchLogError(f"line {at}: {exc}") from None

    reader = csv.reader(text())
    try:
        for row in reader:
            yield first, row
            first = 0
    except csv.Error as exc:
        raise MatchLogError(f"line {at}: {exc}") from None


def _league_lines(lines, league_idx: int, leagues: frozenset):
    """``lines`` but those whose ``league_idx``-th comma-separated cell,
    decoded and stripped, names a league outside ``leagues``; a line is
    kept whole when it has no such cell or the cell is not UTF-8.  Exact
    only where a line is one row, in a file without a ``"``."""
    for n, line in lines:
        cells = line.split(b",", league_idx + 1)
        if len(cells) > league_idx:
            try:
                if cells[league_idx].decode("utf-8").strip() not in leagues:
                    continue
            except UnicodeDecodeError:
                pass  # decoding the whole line raises, naming it
        yield n, line


def _parse_count(raw: str, column: str) -> int:
    v = int(raw)
    if v < 0:
        raise ValueError(f"{column} must be non-negative, got {v}")
    return v


def _parse_feature(raw: str) -> float:
    v = raw.strip()
    return float("nan") if not v else float(v)


def _validate_pairs(records: list[TeamGameRecord]) -> None:
    by_game: dict[str, list[TeamGameRecord]] = {}
    for r in records:
        by_game.setdefault(r.game_id, []).append(r)
    unpaired = sorted(g for g, rs in by_game.items() if len(rs) != 2)
    if unpaired:
        raise PairingError(
            f"{len(unpaired)} game id(s) without exactly two rows: "
            + ", ".join(unpaired[:10]),
            unpaired,
        )
    bad: list[str] = []
    for g, (a, b) in by_game.items():
        ok = (
            a.team == b.opponent
            and b.team == a.opponent
            and a.team != b.team
            and a.won != b.won
            and a.kills == b.opponent_kills
            and b.kills == a.opponent_kills
            and (a.league, a.season, a.timestamp, a.is_regular_season)
            == (b.league, b.season, b.timestamp, b.is_regular_season)
        )
        if not ok:
            bad.append(g)
    if bad:
        bad.sort()
        raise PairingError(
            f"{len(bad)} game id(s) with inconsistent paired rows: " + ", ".join(bad[:10]),
            bad,
        )


_NEEDS_QUOTES = re.compile(r'[,"\r\n]').search


def _cell(text: str) -> str:
    """``text`` as one CSV cell: quoted, with each ``"`` doubled, when it
    holds a ``,``, a ``"``, a carriage return or a newline."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES(text) else text


def _name_cell(text: str, column: str, game_id: str) -> str:
    """``_cell(text)`` for a name the reader strips; one that begins or ends
    with whitespace would not read back as written, so it raises."""
    if text != text.strip():
        raise ValueError(f"game {game_id!r}: {column} {text!r} begins or ends with whitespace, which reading strips")
    return _cell(text)


_CHUNK_LINES = 256  # lines encoded at a time, so no text copy of the whole file is held


def emit_csv(records: list[TeamGameRecord], spec: FeatureSpec | None = None) -> bytes:
    """Inverse of ``parse_match_csv``: an exact round-trip CSV.

    Each of ``RECORD_COLUMNS`` is written once, from the record's fields,
    so a feature of the same name (``kills``) is not written again.  Floats
    use repr so values survive the trip unchanged, and NaN cells are left
    blank.  Features are read in ``spec``'s order, the order parsing with
    ``spec`` (or generating, for the default spec) leaves.  Header and name
    cells are quoted by ``_cell``; a game id, league, team or opponent that
    begins or ends with whitespace raises ``ValueError``, as the reader
    would strip it.  Lines are encoded ``_CHUNK_LINES`` at a time into one
    bytes buffer.
    """
    if spec is None:
        spec = FeatureSpec.default()
    feature_cols = [j for j, n in enumerate(spec.names) if n not in RECORD_COLUMNS]
    # itemgetter returns a bare cell, not a tuple, for a single index.
    take = operator.itemgetter(*feature_cols) if len(feature_cols) > 1 else lambda v: [v[j] for j in feature_cols]
    out = io.BytesIO()
    lines = [",".join(map(_cell, [*RECORD_COLUMNS, *(spec.names[j] for j in feature_cols)]))]

    def flush():
        out.write("\n".join(lines).encode("utf-8"))
        out.write(b"\n")
        lines.clear()

    for r in records:
        values = take(r.features.tolist())
        if any(map(math.isnan, values)):
            cells = ["" if math.isnan(v) else repr(v) for v in values]
        else:
            cells = map(repr, values)
        # The game id is checked last: a generated one holds its league's name.
        league = _name_cell(r.league, "league", r.game_id)
        team = _name_cell(r.team, "team", r.game_id)
        opponent = _name_cell(r.opponent, "opponent", r.game_id)
        row = [
            _name_cell(r.game_id, "gameid", r.game_id),
            league,
            str(r.season),
            r.timestamp.isoformat(),
            team,
            opponent,
            "1" if r.won else "0",
            str(r.kills),
            str(r.opponent_kills),
            "1" if r.is_regular_season else "0",
            *cells,
        ]
        lines.append(",".join(row))
        if len(lines) == _CHUNK_LINES:
            flush()
    if lines:
        flush()
    return out.getvalue()


def filter_regular_season(
    records: list[TeamGameRecord], league: str, season: int
) -> list[TeamGameRecord]:
    """Keep one league-season's regular-season games, preserving order."""
    return [
        r
        for r in records
        if r.league == league and r.season == season and r.is_regular_season
    ]


def build_feature_matrix(
    records: list[TeamGameRecord],
    spec: FeatureSpec,
    mode: str,
    report: QualityReport | None = None,
) -> FeatureMatrix:
    """Assemble the dense feature matrix, one row per record in ``paired_rows`` order.

    ``mode`` is ``raw`` (a team's own numbers) or ``delta`` (team minus
    opponent).  Missing raw values are imputed with the column mean before
    any delta is taken, which keeps delta rows of a game exact negations of
    each other.  Either mode raises ``MatchLogError`` on unpaired records.
    """
    if mode not in ("raw", "delta"):
        raise ValueError(f"mode must be 'raw' or 'delta', got {mode!r}")
    if report is None:
        report = QualityReport()
    ordered = paired_rows(records)
    d = len(spec.names)
    widths = {len(r.features) for r in ordered} - {d}
    if widths:
        raise ValueError(f"record feature width {min(widths)} differs from the spec's {d} names")
    raw = np.array([r.features for r in ordered], dtype=np.float64).reshape(len(ordered), d)
    if raw.size:
        _impute_columns(raw, spec.names, report)
    return FeatureMatrix(
        row_keys=[(r.team, r.game_id) for r in ordered],
        columns=list(spec.names),
        values=raw - raw[np.arange(len(ordered)) ^ 1] if mode == "delta" else raw,
    )


def _impute_columns(values: np.ndarray, names: list[str], report: QualityReport) -> None:
    for j, name in enumerate(names):
        nan = np.isnan(values[:, j])
        n = int(nan.sum())
        if n == 0:
            continue
        fill = float(np.mean(values[~nan, j])) if n < values.shape[0] else 0.0
        if n == values.shape[0]:
            report.warnings.append(f"column {name!r} has no observed values; imputed 0")
        values[nan, j] = fill
        report.imputed[name] = report.imputed.get(name, 0) + n


def standardize(matrix: FeatureMatrix, stats: ColumnStats | None = None) -> FeatureMatrix:
    """Z-score columns; when stats are omitted they are computed (population std).

    Validation and test leagues must be standardized with the training
    league's stats, which the caller passes back in here.
    """
    if stats is None:
        mean = matrix.values.mean(axis=0)
        std = matrix.values.std(axis=0)
        flat = std == 0.0
        if flat.any():
            cols = [matrix.columns[j] for j in np.flatnonzero(flat)]
            warnings.warn(f"zero-variance columns scaled by 1: {cols}", stacklevel=2)
            std = np.where(flat, 1.0, std)
        stats = ColumnStats(mean=mean, std=std)
    else:
        if len(stats.mean) != len(matrix.columns) or len(stats.std) != len(matrix.columns):
            raise ValueError("standardization stats do not match matrix columns")
    safe_std = np.where(stats.std == 0.0, 1.0, stats.std)
    return FeatureMatrix(
        row_keys=list(matrix.row_keys),
        columns=list(matrix.columns),
        values=(matrix.values - stats.mean) / safe_std,
        standardization_stats=ColumnStats(np.asarray(stats.mean, dtype=np.float64), np.asarray(safe_std, dtype=np.float64)),
    )
