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

import numpy as np

from .errors import (
    EmptyInputError,
    ParseError,
    SelfPlayError,
    ShapeError,
)
from .types import CountMatrices, Dataset, Record, venue_dataset, venue_free_dataset


class Outcome(enum.Enum):
    HOME_WIN = "home_win"
    AWAY_WIN = "away_win"
    TIE = "tie"


def _decode(data: bytes | str) -> str:
    """The text of ``data`` without its byte-order mark, which Excel writes."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from exc
    return data.removeprefix("\ufeff")


_CODES = {member.value: code for code, member in enumerate(Outcome)}
_MAX_REPEAT = 2**63 - 1  # repeats are stored as int64


class GameTable(Record):
    """Game records held column-wise, as produced by :func:`parse_records`.

    ``teams`` lists the team ids in first-appearance order (home before away
    within a record). ``home`` and ``away`` are distinct team indices into
    ``teams``, ``outcome`` holds codes in :class:`Outcome` member order and
    ``repeat`` the positive game counts; all four are read-only arrays of
    one length, the number of records. Tables compare by identity.
    """

    __eq__, __hash__ = object.__eq__, object.__hash__

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
        bounds = (
            ("home", 0, t), ("away", 0, t), ("outcome", 0, len(Outcome)), ("repeat", 1, np.inf)
        )
        for name, low, high in bounds:
            arr = _integer_column(name, getattr(self, name))
            if arr.shape != (n,) or (n and (arr.min() < low or arr.max() >= high)):
                raise ShapeError(f"{name} must hold {n} entries in [{low}, {high})")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        self_play = self.home == self.away
        if self_play.any():
            k = int(self_play.argmax())
            team = self.teams[self.home[k]]
            raise SelfPlayError(f"record {k}: team {team!r} cannot play itself")

    def __len__(self) -> int:
        return len(self.home)


def _integer_column(name: str, values) -> np.ndarray:
    """A GameTable column as int64; integral floats are read, a bool column
    and a fractional, non-finite or out-of-int64 entry are refused."""
    raw = np.asarray(values)
    if raw.dtype.kind == "b":
        raise ShapeError(f"{name} must hold integers, not bools")
    if raw.dtype.kind in "iu":
        arr = raw.astype(np.int64)
        if raw.dtype.kind == "i" or arr.min(initial=0) >= 0:  # a uint64 past int64 wraps
            return arr
        bad = arr < 0
    else:
        real = raw.astype(np.float64)
        bad = ~(np.isfinite(real) & (real == np.floor(real)) & (np.abs(real) < 2.0**63))
        if not bad.any():
            return real.astype(np.int64)
    raise ShapeError(f"{name} must hold integers, got {raw[bad].tolist()[0]!r}")


def _outcome_code(token) -> int:
    if not isinstance(token, str):
        raise ParseError(f"outcome must be a string, got {token!r}")
    code = _CODES.get(token.strip().lower())
    if code is None:
        raise ParseError(f"unknown outcome {token!r} (expected home_win, away_win, or tie)")
    return code


def _parse_repeat(value) -> int:
    """A record's game count; a missing or blank value means 1."""
    if value is None or value == "":
        return 1
    try:
        repeat = int(str(value).strip())
    except (TypeError, ValueError):
        raise ParseError(f"repeat must be an integer, got {value!r}") from None
    if repeat < 1:
        raise ParseError(f"repeat must be >= 1, got {repeat}")
    if repeat > _MAX_REPEAT:
        raise ParseError(f"repeat must be <= {_MAX_REPEAT}, got {repeat}")
    return repeat


def _build_table(rows, label: str) -> GameTable:
    """Check ``(home, away, outcome, repeat, position)`` rows in that order
    and intern the team ids; errors name the row as ``f"{label} {position}"``."""
    index: dict[str, int] = {}
    home_idx, away_idx, codes, repeats = [], [], [], []
    for home, away, outcome, repeat, position in rows:
        try:
            for team in (home, away):
                if team is None or team == "":
                    raise ParseError("home and away team ids are required")
                if type(team) not in (str, int, float):  # a bool is no id
                    raise ParseError(f"a team id must be a string or a number, got {team!r}")
            home_id, away_id = str(home), str(away)
            if home == away or home_id == away_id:
                raise SelfPlayError(f"team {home!r} cannot play itself")
            codes.append(_outcome_code(outcome))
            repeats.append(_parse_repeat(repeat))
        except (ParseError, SelfPlayError) as exc:
            raise type(exc)(f"{label} {position}: {exc}") from None
        home_idx.append(index.setdefault(home_id, len(index)))
        away_idx.append(index.setdefault(away_id, len(index)))
    return GameTable(tuple(index), home_idx, away_idx, codes, repeats)


def parse_records(data: bytes | str, format: str = "csv") -> GameTable:
    """Parse game records from CSV or JSON text into a :class:`GameTable`.

    ``format`` is "csv" or "json". Unknown CSV columns and JSON keys are
    ignored. Errors carry the offending physical line (CSV, header is
    line 1; blank lines count) or element index (JSON, first element is 1).
    """
    text = _decode(data)
    if format == "csv":
        table = _split_plain_csv(text)
        return _parse_csv(text) if table is None else table
    if format == "json":
        return _parse_json_records(text)
    raise ParseError(f"unknown record format {format!r} (expected csv or json)")


def _parse_csv(text: str) -> GameTable:
    """The csv module's row loop: it parses any CSV text and raises every
    CSV error. The text is read as UTF-8 bytes, not copied at 4 bytes per
    character into ``io.StringIO``, and its lines end at "\\n" only."""
    data = io.BytesIO(text.encode("utf-8", "surrogatepass"))
    reader = csv.reader(io.TextIOWrapper(data, "utf-8", "surrogatepass", newline="\n"))
    try:
        columns = _header_columns(next(reader, None))
        lines = ((reader.line_num, row) for row in reader)
        return _build_table(_csv_rows(lines, columns), "line")
    except csv.Error as exc:  # e.g. a bare carriage return, an oversized cell
        raise ParseError(f"line {reader.line_num}: {exc}") from None


def _csv_rows(lines, columns: tuple[int, int, int, int, int]):
    """``(home, away, outcome, repeat, line)`` of each ``(line, cells)`` pair
    under the header's ``_header_columns``, cells stripped; a blank line is
    skipped, and a missing cell or an absent repeat column reads None."""
    width, h, a, o, r = columns
    pad = [None] * (width + 1)
    for line, row in lines:
        if not row:
            continue
        if len(row) > width:
            raise ParseError(f"line {line}: more cells than header columns")
        row = [*row, *pad]
        home, away, outcome, repeat = row[h], row[a], row[o], row[r]
        yield (
            home and home.strip(),
            away and away.strip(),
            outcome and outcome.strip(),
            repeat and repeat.strip(),
            line,
        )


def _header_columns(header) -> tuple[int, int, int, int, int]:
    """``(width, home, away, outcome, repeat)`` column indices of a CSV
    header; an absent repeat column is ``width``."""
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
    return (width, *(columns.get(key, width) for key in ("home", "away", "outcome", "repeat")))


#: characters per block of a plain CSV body; a block ends at a line end
_BLOCK_CHARS = 1 << 17
#: ``_MASKS[n]`` keeps the low n bytes of a word, n = 0 .. 8
_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], np.uint64)
#: the longest team id, outcome or repeat cell of a plain CSV, in bytes: it
#: bounds the words ``_LongCells`` pads each cell of a block out to
_LONG_CELL_BYTES = 512
#: no cell's key: it is 8 bytes 0xFF, which UTF-8 never holds
_NO_KEY = np.uint64(2**64 - 1)
#: an odd multiplier that mixes the bits of a key (2^64 over the golden ratio)
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _split_plain_csv(text: str) -> GameTable | None:
    """The records of a plain CSV, or None for the row loop to parse.

    A plain CSV has a header line, read by the csv module, and a body; it
    holds no quote, NUL (a csv.Error before Python 3.11) or bare carriage
    return, and each body line that is not empty holds the header's number
    of cells, none over the csv field limit and no team, outcome or repeat
    cell over ``_LONG_CELL_BYTES``. Empty lines are skipped, as the row loop
    skips them. The body is read block by block as UTF-8 bytes,
    and each cell is coded by a 64-bit key without a Python object of its
    own. A cell of at most 8 bytes is its own key: its bytes as one
    zero-padded little-endian word, unique since the text holds no NUL. A
    longer cell is keyed by a mix of its words (``_LongCells``) and then
    compared word for word with the first cell of its key; a failed
    compare leaves the text to the row loop. Each role's keys (teams, home
    and away interleaved; outcomes; repeats) are looked up in bulk in a
    ``_KeyTable``; the missed ones go through one ``np.unique``, and each
    distinct new cell is decoded, stripped and converted once, in row-major
    order of first appearance (``_codes``). A block with a bad row goes to
    ``_build_table``, which raises the row loop's error. On the 10^6-row
    crowd CSV of ``scripts/bench_kernel.py`` this takes about a third of the
    time of the per-cell ``str.split`` and dict lookup it replaced.
    """
    start = text.find("\n") + 1  # of the body
    if '"' in text or "\0" in text or not 0 < start < len(text):
        return None
    crlf = "\r" in text
    if crlf and text.count("\r") != text.count("\r\n"):  # a bare carriage return
        return None
    try:
        columns = _header_columns(next(csv.reader([text[:start]])))
    except (csv.Error, ParseError):
        return None
    width, h, a, o, r = columns
    roles = [h, a, o] if r == width else [h, a, o, r]
    limit = csv.field_size_limit()
    teams: dict[str, int] = {}

    def team(name: str) -> int:
        if not name:
            raise ParseError("home and away team ids are required")
        return teams.setdefault(name, len(teams))

    long_cells = None
    team_of, outcome_of, repeat_of = (_KeyTable(dtype) for dtype in (np.int32, np.int8, np.int64))
    pairs, outcomes, repeats = [], [], []  # each block's codes; pairs of home and away
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
        block = text[start:end].replace("\r\n", "\n") if crlf else text[start:end]
        if not block.endswith("\n"):  # the last line of a file without a final line end
            block += "\n"
        data = block.encode("utf-8", "surrogatepass") + bytes(8)  # a word may start at any byte
        raw = np.frombuffer(data, np.uint8)
        ends = np.flatnonzero((raw == 44) | (raw == 10))  # of each cell, "," or "\n"
        starts = np.concatenate(([0], ends[:-1] + 1))
        sizes = ends - starts  # in bytes
        if not sizes.all():  # an empty cell; skip the empty lines, as the row loop does
            kept = (sizes > 0) | (raw[starts - 1] == 44) | (raw[ends] == 44)
            ends, starts, sizes = ends[kept], starts[kept], sizes[kept]
        line_end = raw[ends] == 10
        if (
            len(ends) != np.count_nonzero(line_end) * width
            or not line_end[width - 1 :: width].all()
            or len(block) > limit and sizes.max(initial=0) > limit
        ):
            return None
        starts, sizes = (column.reshape(-1, width)[:, roles] for column in (starts, sizes))
        words = np.ndarray(len(data) - 7, "<u8", data, strides=(1,))  # the word at each byte
        keys = words.take(starts) & _MASKS.take(sizes, mode="clip")
        longest = sizes.max(initial=0)
        if longest > _LONG_CELL_BYTES:
            return None
        if longest > 8:
            long = np.flatnonzero(sizes > 8)
            long_cells = long_cells or _LongCells()
            found = long_cells.keys_of(words, starts.take(long), sizes.take(long))
            if found is None:
                return None
            keys.reshape(-1)[long] = found
        try:
            pair = _codes(team_of, team, data, np.ravel(keys[:, :2]), starts[:, :2], sizes[:, :2])
            if (pair[0::2] == pair[1::2]).any():
                raise SelfPlayError("a team cannot play itself")
            outcomes.append(_codes(outcome_of, _outcome_code, data, keys[:, 2], starts[:, 2], sizes[:, 2]))
            if r < width:
                repeats.append(_codes(repeat_of, _parse_repeat, data, keys[:, 3], starts[:, 3], sizes[:, 3]))
        except (ParseError, SelfPlayError):
            rows = (line.split(",") if line else [] for line in block.split("\n"))
            lines = enumerate(rows, text.count("\n", 0, start) + 1)
            _build_table(_csv_rows(lines, columns), "line")  # raises the first bad row's error
            raise
        pairs.append(pair)
        start = end
    pair, outcome = np.concatenate(pairs), np.concatenate(outcomes)
    repeat = np.concatenate(repeats) if repeats else np.ones(len(outcome), np.int8)
    del pairs[:], outcomes[:], repeats[:]  # before the table makes its int64 columns
    return GameTable(tuple(teams), pair[0::2], pair[1::2], outcome, repeat)


class _KeyTable:
    """Integer codes by 64-bit key: a hash table of one key per slot, empty
    slots holding ``_NO_KEY``, and a sorted spill of the keys whose slot
    another key took, which ends with ``_NO_KEY``. Neither a lookup nor an
    entry loops over probes. Added keys are entered at the next ``find``, so
    a text of one block builds no table; the table grows to an eighth full
    or less whenever it would be more than a quarter full."""

    keys = codes = np.zeros(0, np.uint64)  # the slots, none before the first key is entered
    spill, spill_codes = np.full(1, _NO_KEY), np.zeros(1, np.int8)

    def __init__(self, dtype):
        self.dtype = dtype
        self.size = 0  # keys added
        self.added: list[tuple[np.ndarray, np.ndarray]] = []  # keys and codes to enter

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        """The slot of each key: the top bits of a multiplicative hash."""
        return (keys * _MIX >> (65 - len(self.keys).bit_length())).view(np.int64)

    def find(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The codes of ``keys`` and the indices of the keys not added,
        whose codes are arbitrary."""
        if not self.size:
            return np.zeros(len(keys), self.dtype), np.arange(len(keys))
        if self.added:
            self._enter()
        at = self._slots(keys)
        codes = self.codes[at]
        new = np.flatnonzero(self.keys[at] != keys)
        if len(new) and len(self.spill) > 1:
            at = np.searchsorted(self.spill, keys[new])
            spilled = self.spill[at] == keys[new]
            codes[new[spilled]] = self.spill_codes[at[spilled]]
            new = new[~spilled]
        return codes, new

    def add(self, keys: np.ndarray, codes: np.ndarray) -> None:
        """Add distinct keys that are not in the table, with their codes."""
        self.size += len(keys)
        self.added.append((keys, codes))

    def _enter(self) -> None:
        if 4 * self.size > len(self.keys):
            kept = self.keys != _NO_KEY
            self.added += [(self.keys[kept], self.codes[kept]), (self.spill[:-1], self.spill_codes[:-1])]
            slots = 1 << (8 * self.size - 1).bit_length()
            self.keys, self.codes = np.full(slots, _NO_KEY), np.zeros(slots, self.dtype)
            self.spill, self.spill_codes = self.spill[-1:], self.spill_codes[-1:]
        keys, codes = (np.concatenate(column) for column in zip(*self.added))
        self.added.clear()
        at = self._slots(keys)
        free = self.keys[at] == _NO_KEY
        self.keys[at[free]] = keys[free]  # one of the keys sent to each free slot
        placed = self.keys[at] == keys
        self.codes[at[placed]] = codes[placed]
        spill = np.concatenate([self.spill, keys[~placed]])
        order = np.argsort(spill)
        self.spill = spill[order]
        self.spill_codes = np.concatenate([self.spill_codes, codes[~placed]])[order]


def _codes(table: _KeyTable, convert, data: bytes, keys, starts, sizes) -> np.ndarray:
    """The codes in ``table`` of cells with these keys, starts and sizes in
    ``data``. The first cell of a new key is decoded, stripped and converted
    once, in row-major order of first appearance."""
    codes, new = table.find(keys)
    if len(new):
        distinct, first, back = np.unique(keys[new], return_index=True, return_inverse=True)
        seen = np.zeros(len(new), bool)
        seen[first] = True
        first = np.flatnonzero(seen)  # in order of appearance, unlike np.unique's
        spans = zip(starts.flat[new[first]].tolist(), sizes.flat[new[first]].tolist())
        cells = (data[s : s + n].decode("utf-8", "surrogatepass").strip() for s, n in spans)
        converted = np.empty(len(distinct), codes.dtype)
        converted[back[first]] = [convert(cell) for cell in cells]
        table.add(distinct, converted)
        codes[new] = converted[back]
    return codes


class _LongCells:
    """Keys of cells of 9 to ``_LONG_CELL_BYTES`` bytes. A key is a mix of
    the cell's words with its low byte clear and bit 8 set, so that it is
    neither the key of a shorter cell (whose low byte is its first byte, or
    0 when empty) nor ``_NO_KEY``. The first cell of each key is kept word
    by word, and every cell of the key must equal it."""

    def __init__(self):
        self.index = _KeyTable(np.intp)  # of each key's first cell in ``sizes`` and ``words``
        self.sizes = np.zeros(0, np.intp)  # of each key's first cell, in bytes
        self.words = np.zeros((0, 0), np.uint64)  # word by cell, zero past a cell's end

    def keys_of(self, words: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray | None:
        """The keys of the cells at ``starts`` of ``sizes`` bytes, read
        through ``words``; None if a cell differs from the first of its key.
        Arrays of words are laid out word by cell, so that each operation
        runs along the cells."""
        offsets = np.arange(0, sizes.max(), 8)[:, None]  # of each word in a cell
        cells = words.take(starts + offsets, mode="clip") & _MASKS.take(sizes - offsets, mode="clip")
        mixed = cells * ((offsets.astype(np.uint64) << 1 | 1) * _MIX)  # an odd factor per word
        mixed ^= mixed >> 29
        keys = mixed.sum(axis=0) >> 8 << 8 | 256
        index, new = self.index.find(keys)
        if len(new):
            kept = new[np.unique(keys[new], return_index=True)[1]]
            self.index.add(keys[kept], len(self.sizes) + np.arange(len(kept)))
            self.sizes = np.concatenate([self.sizes, sizes[kept]])
            grown = np.zeros((max(len(self.words), len(offsets)), len(self.sizes)), np.uint64)
            grown[: len(self.words), : self.words.shape[1]] = self.words
            grown[: len(offsets), self.words.shape[1] :] = cells[:, kept]
            self.words = grown
            index = self.index.find(keys)[0]
        same = (self.sizes[index] == sizes).all() and (
            self.words[: len(offsets)].take(index, axis=1) == cells
        ).all()
        return keys if same else None


def _parse_json_records(text: str) -> GameTable:
    import json  # here, not at the top: most imports of the package parse no JSON
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


#: ``aggregate`` flags the met pairs in an array of t² entries while t² is at
#: most this many times the record count, and sorts the pair keys above it
_FLAGS_PER_RECORD = 4


def aggregate(table: GameTable) -> Dataset:
    """Accumulate a table of records into a venue-aware Dataset.

    Teams keep the table's order. Each record lands on the edge of its pair
    (lower team index first), in the orientation of its host and at its
    outcome, as laid out in ``types``, through one ``np.bincount`` of the
    repeats. The edges are the distinct pair keys ``i * t + j`` in sorted
    order. While t² is at most ``_FLAGS_PER_RECORD`` times the record
    count, they are found by direct index: each key flags its entry of a
    boolean array of length t², the edges are the flagged entries and a
    record's edge is the running count of flags up to its key. Above that,
    they are found by ``np.unique`` of the keys, a sort of the records.
    Both give the same edges and the same edge per record. Finding them
    alone, single-threaded on a 2-core x86-64 host, the direct index was
    1.4 to 2.2 times as fast as the sort at t² = 4n (n from 100 to 10^6
    records) and as fast or slower from t² = 6n to 8n on. At t² = n / 2 and
    n = 150,000, the shape of a crowd CSV, it took 1.2 ms against 8.3 ms.
    """
    if not len(table):
        raise EmptyInputError("no game records to aggregate")
    t = len(table.teams)
    home, away = table.home, table.away
    flipped = home > away  # the higher index hosts: orientation 1
    keys = np.minimum(home, away) * t + np.maximum(home, away)
    if t * t <= _FLAGS_PER_RECORD * len(keys):
        met = np.zeros(t * t, bool)
        met[keys] = True
        pairs = np.flatnonzero(met)
        rank = np.cumsum(met, dtype=np.int32 if t * t < 2**31 else np.intp)  # half the bytes
        rank -= 1
        edge = rank[keys]
    else:
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
    import json
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
