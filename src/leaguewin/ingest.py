"""Season match-log ingestion: CSV parsing, pairing validation, feature matrices."""

from __future__ import annotations

import array
import csv
import io
import json
import operator
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone

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


@dataclass
class TeamGameRecord:
    """One team's side of one game."""

    game_id: str
    league: str
    season: int
    game_index_in_season: int
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


def parse_match_csv(
    data: bytes,
    spec: FeatureSpec | None = None,
    report: QualityReport | None = None,
) -> list[TeamGameRecord]:
    """Parse a UTF-8 match-log CSV into validated team-game records.

    Rows that fail numeric validation are skipped and recorded in ``report``
    with their line numbers; schema and pairing violations raise.
    """
    if spec is None:
        spec = FeatureSpec.default()
    if report is None:
        report = QualityReport()
    rows = _csv_rows(data)
    header = next(rows, None)
    if header is None:
        raise SchemaError("empty input: no header row")
    col = {name: i for i, name in enumerate(header)}
    missing = [c for c in REQUIRED_COLUMNS if c not in col]
    missing += [c for c in spec.names if c not in col]
    if missing:
        raise SchemaError(f"missing required columns: {sorted(set(missing))}")
    flag_idx = col.get("is_regular_season")
    feature_idx = [col[n] for n in spec.names]
    # itemgetter returns a bare cell, not a tuple, for a single index.
    take = operator.itemgetter(*feature_idx) if len(feature_idx) > 1 else lambda row: [row[i] for i in feature_idx]
    values = array.array("d")  # every record's features, row after row

    records: list[TeamGameRecord] = []
    for line_no, row in enumerate(rows, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        report.rows_read += 1
        start = len(values)
        try:
            record = TeamGameRecord(
                game_id=row[col["gameid"]].strip(),
                league=row[col["league"]].strip(),
                season=int(row[col["season"]]),
                game_index_in_season=-1,
                team=row[col["team"]].strip(),
                opponent=row[col["opponent"]].strip(),
                timestamp=_parse_timestamp(row[col["date"]]),
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
    matrix = np.frombuffer(values, dtype=np.float64).reshape(len(records), len(spec.names))
    for record, x in zip(records, matrix):
        record.features = x

    _validate_pairs(records)
    records.sort(key=record_sort_key)
    _assign_game_indices(records)
    report.records_parsed = len(records)
    return records


def _csv_rows(data: bytes):
    """CSV rows of ``data``, decoded one line at a time; lines end at ``\\n`` only."""
    reader = csv.reader(line.decode("utf-8") for line in io.BytesIO(data))
    try:
        yield from reader
    except csv.Error as exc:
        raise MatchLogError(f"line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:  # raised before the reader counts the line
        raise MatchLogError(f"line {reader.line_num + 1}: {exc}") from None


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
            and (a.league, a.season, a.timestamp) == (b.league, b.season, b.timestamp)
        )
        if not ok:
            bad.append(g)
    if bad:
        bad.sort()
        raise PairingError(
            f"{len(bad)} game id(s) with inconsistent paired rows: " + ", ".join(bad[:10]),
            bad,
        )


def _assign_game_indices(records: list[TeamGameRecord]) -> None:
    # Global chronological game order within each (league, season).
    index: dict[tuple[str, int, str], int] = {}
    counters: dict[tuple[str, int], int] = {}
    for r in records:
        key = (r.league, r.season, r.game_id)
        if key not in index:
            n = counters.get(key[:2], 0)
            index[key] = n
            counters[key[:2]] = n + 1
        r.game_index_in_season = index[key]


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
    """Assemble the dense feature matrix in (league, timestamp, game_id, team) order.

    ``mode`` is ``raw`` (a team's own numbers) or ``delta`` (team minus
    opponent).  Missing raw values are imputed with the column mean before
    any delta is taken, which keeps delta rows of a game exact negations of
    each other.
    """
    if mode not in ("raw", "delta"):
        raise ValueError(f"mode must be 'raw' or 'delta', got {mode!r}")
    if report is None:
        report = QualityReport()
    ordered = sorted(records, key=lambda r: (r.league, r.timestamp, r.game_id, r.team))
    d = len(spec.names)
    widths = {len(r.features) for r in ordered} - {d}
    if widths:
        raise ValueError(f"record feature width {min(widths)} differs from the spec's {d} names")
    raw = np.array([r.features for r in ordered], dtype=np.float64).reshape(len(ordered), d)
    if raw.size:
        _impute_columns(raw, spec.names, report)
    if mode == "delta":
        row_of = {(r.team, r.game_id): i for i, r in enumerate(ordered)}
        values = np.empty_like(raw)
        for i, r in enumerate(ordered):
            j = row_of.get((r.opponent, r.game_id))
            if j is None:
                raise MatchLogError(f"delta mode: opponent row missing for game {r.game_id}")
            values[i] = raw[i] - raw[j]
    else:
        values = raw
    return FeatureMatrix(
        row_keys=[(r.team, r.game_id) for r in ordered],
        columns=list(spec.names),
        values=values,
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
