"""Parse game-record files and matrix files into Datasets.

Two record formats are supported: CSV with the header
``home,away,outcome[,repeat]`` and a JSON array of objects with the same
keys. Outcome tokens are case-insensitive ``home_win``, ``away_win``, and
``tie``. Matrix files are JSON objects carrying either a bare win matrix
(``{"teams": [...], "a": [[...]]}``, ingested as venueless) or the full
venue split (``{"teams": [...], "a_home": [[...]], "a_away": [[...]],
"t_home": [[...]]}``).
"""

from __future__ import annotations

import csv
import enum
import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInputError,
    ParseError,
    SelfPlayError,
    ShapeError,
)
from .types import CountMatrices, Dataset, venue_dataset, venue_free_dataset


class Outcome(enum.Enum):
    HOME_WIN = "home_win"
    AWAY_WIN = "away_win"
    TIE = "tie"


def _decode(data: bytes | str) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from exc
    return data


_CODES = {member.value: code for code, member in enumerate(Outcome)}
_MAX_REPEAT = 2**63 - 1  # repeats are stored as int64


@dataclass(frozen=True, eq=False)
class GameTable:
    """Game records held column-wise, as produced by :func:`parse_records`.

    ``teams`` lists the team ids in first-appearance order (home before away
    within a record). ``home`` and ``away`` are team indices into ``teams``,
    ``outcome`` holds codes in :class:`Outcome` member order and ``repeat``
    the positive game counts; all four are read-only arrays of one length,
    the number of records.
    """

    teams: tuple[str, ...]
    home: np.ndarray
    away: np.ndarray
    outcome: np.ndarray
    repeat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "teams", tuple(self.teams))
        n, t = len(self.home), len(self.teams)
        # An index out of its range would land silently on another edge or
        # cell of aggregate's counts.
        bounds = (("home", 0, t), ("away", 0, t), ("outcome", 0, len(Outcome)), ("repeat", 1, np.inf))
        for name, low, high in bounds:
            arr = np.array(getattr(self, name), dtype=np.int64)
            if arr.shape != (n,) or (n and (arr.min() < low or arr.max() >= high)):
                raise ShapeError(f"{name} must hold {n} entries in [{low}, {high})")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.home)


def _outcome_code(token, label: str, position: int) -> int:
    if not isinstance(token, str):
        raise ParseError(f"{label} {position}: outcome must be a string, got {token!r}")
    code = _CODES.get(token.strip().lower())
    if code is None:
        raise ParseError(
            f"{label} {position}: unknown outcome {token!r} "
            f"(expected home_win, away_win, or tie)"
        )
    return code


def _parse_repeat(value, label: str, position: int) -> int:
    try:
        repeat = int(str(value).strip())
    except (TypeError, ValueError):
        raise ParseError(
            f"{label} {position}: repeat must be an integer, got {value!r}"
        ) from None
    if repeat < 1:
        raise ParseError(f"{label} {position}: repeat must be >= 1, got {repeat}")
    if repeat > _MAX_REPEAT:
        raise ParseError(f"{label} {position}: repeat must be <= {_MAX_REPEAT}, got {repeat}")
    return repeat


def _build_table(rows, label: str) -> GameTable:
    """Check ``(home, away, outcome, repeat, position)`` rows in that order
    (a missing or blank repeat is 1) and intern the team ids; errors name
    the row as ``f"{label} {position}"``."""
    index: dict[str, int] = {}
    home_idx, away_idx, codes, repeats = [], [], [], []
    for home, away, outcome, repeat, position in rows:
        if not home or not away:
            raise ParseError(f"{label} {position}: home and away team ids are required")
        home_id, away_id = str(home), str(away)
        if home == away or home_id == away_id:
            raise SelfPlayError(f"{label} {position}: team {home!r} cannot play itself")
        code = _outcome_code(outcome, label, position)
        if repeat is None or repeat == "":
            repeat = 1
        else:
            repeat = _parse_repeat(repeat, label, position)
        home_idx.append(index.setdefault(home_id, len(index)))
        away_idx.append(index.setdefault(away_id, len(index)))
        codes.append(code)
        repeats.append(repeat)
    return GameTable(tuple(index), home_idx, away_idx, codes, repeats)


def parse_records(data: bytes | str, format: str = "csv") -> GameTable:
    """Parse game records from CSV or JSON text into a :class:`GameTable`.

    ``format`` is "csv" or "json". Unknown CSV columns and JSON keys are
    ignored. Errors carry the offending physical line (CSV, header is
    line 1; blank lines count) or element index (JSON, first element is 1).
    """
    text = _decode(data)
    if format == "csv":
        return _parse_csv(text)
    if format == "json":
        return _parse_json_records(text)
    raise ParseError(f"unknown record format {format!r} (expected csv or json)")


def _parse_csv(text: str) -> GameTable:
    reader = csv.reader(io.StringIO(text))
    try:
        return _read_csv(reader)
    except csv.Error as exc:  # e.g. a bare carriage return, an oversized cell
        raise ParseError(f"line {reader.line_num}: {exc}") from None


def _read_csv(reader) -> GameTable:
    header = next(reader, None)
    if header is None:
        raise ParseError("line 1: missing CSV header")
    # The same name resolution as csv.DictReader plus a stripped, lowercased
    # key: the last column of a repeated name wins.
    raw = {name: i for i, name in enumerate(header)}
    columns = {name.strip().lower(): i for name, i in raw.items()}
    for required in ("home", "away", "outcome"):
        if required not in columns:
            raise ParseError(f"line 1: CSV header must include {required!r}")
    width = len(header)
    h, a, o, r = (columns.get(key, width) for key in ("home", "away", "outcome", "repeat"))
    pad = [None] * (width + 1)  # missing cells, and an absent repeat column, read None

    def rows():
        for row in reader:
            if not row:
                continue
            if len(row) > width:
                raise ParseError(f"line {reader.line_num}: more cells than header columns")
            row += pad
            home, away, outcome, repeat = row[h], row[a], row[o], row[r]
            yield (
                home and home.strip(),
                away and away.strip(),
                outcome and outcome.strip(),
                repeat and repeat.strip(),
                reader.line_num,
            )

    return _build_table(rows(), "line")


def _parse_json_records(text: str) -> GameTable:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, list):
        raise ParseError("record JSON must be an array of objects")

    def rows():
        for position, element in enumerate(payload, start=1):
            if not isinstance(element, dict):
                raise ParseError(f"element {position}: expected an object")
            get = element.get
            yield get("home"), get("away"), get("outcome"), get("repeat"), position

    return _build_table(rows(), "element")


def aggregate(table: GameTable) -> Dataset:
    """Accumulate a table of records into a venue-aware Dataset.

    Teams keep the table's order. Each record lands on the edge of its pair
    (lower team index first), in the orientation of its host and at its
    outcome, as laid out in ``types``: one ``np.unique`` of the pair keys
    and one ``np.bincount`` of the repeats, with no t x t array.
    """
    if not len(table):
        raise EmptyInputError("no game records to aggregate")
    t = len(table.teams)
    home, away = table.home, table.away
    flipped = home > away  # the higher index hosts: orientation 1
    keys = np.minimum(home, away) * t + np.maximum(home, away)
    pairs, edge = np.unique(keys, return_inverse=True)
    e = len(pairs)
    cell = (table.outcome * 2 + flipped) * e + edge
    games = np.bincount(cell, table.repeat, 6 * e).reshape(3, 2, e)
    return Dataset(teams=table.teams, counts=CountMatrices(t, *np.divmod(pairs, t), games))


def _integer_matrix(values, name: str) -> np.ndarray:
    """A numeric matrix of integer counts; its shape, diagonal and signs are
    checked where the dataset is built, under the same name."""
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{name}: not a numeric matrix ({exc})") from None
    if not np.all(arr == np.floor(arr)):
        raise ParseError(f"{name} must contain integer counts")
    return arr


def parse_matrix(data: bytes | str) -> Dataset:
    """Parse a matrix-form JSON dataset.

    A bare ``a`` matrix, optionally joined by a symmetric ``ties`` matrix,
    yields a venueless dataset; the full ``a_home``/``a_away``/``t_home``
    triple yields a venue-aware one.
    """
    text = _decode(data)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError("matrix JSON must be an object")
    teams = payload.get("teams")
    if not isinstance(teams, list) or not all(isinstance(x, str) for x in teams):
        raise ParseError('matrix JSON needs a "teams" array of strings')
    if len(set(teams)) != len(teams):
        raise ParseError("team identifiers must be unique")

    if "a" in payload:
        ties = _integer_matrix(payload["ties"], "ties") if "ties" in payload else None
        return venue_free_dataset(tuple(teams), _integer_matrix(payload["a"], "a"), ties)

    if all(k in payload for k in ("a_home", "a_away", "t_home")):
        matrices = (_integer_matrix(payload[k], k) for k in ("a_home", "a_away", "t_home"))
        return venue_dataset(tuple(teams), *matrices)

    raise ParseError(
        'matrix JSON needs either "a" or all of "a_home", "a_away", "t_home"'
    )
