"""Dataset ingestion and assembly.

Raw inputs are a prices CSV, a documents JSONL, an embeddings JSONL, and a
relational-graph TSV. Assembly aligns everything on a global trading
calendar, computes 3-class trend labels from close-to-close returns, finds
every sliding window in one pass over the panel, and splits the windows
chronologically by label date.

A window is not an object: each split part is an `np.recarray` of
(stock_index, start, label) refs into the shared panel, and the window size
`ws` is stored on the split. A serialized split stores each part as its
N x 3 int64 refs table.

Class indices are fixed everywhere: down=0, flat=1, up=2.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .container import load_bundle, save_bundle
from .errors import ConfigError, DataError, FormatError, MissingEmbeddingError

log = logging.getLogger(__name__)

CLASS_NAMES = ("down", "flat", "up")
DOWN, FLAT, UP = 0, 1, 2
NO_LABEL = -1


@dataclass
class PriceSeries:
    """Daily open/high/close rows for one symbol, sorted by date."""

    symbol: str
    dates: list[str]
    open: np.ndarray
    high: np.ndarray
    close: np.ndarray

    def __len__(self) -> int:
        return len(self.dates)


@dataclass
class DocumentDay:
    symbol: str
    date: str
    texts: list[str]


@dataclass
class EmbeddingTable:
    """Pooled per-(symbol, date) document vectors of a fixed width."""

    dim: int
    entries: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)

    def __contains__(self, key) -> bool:
        return key in self.entries

    def get(self, symbol: str, date: str):
        return self.entries.get((symbol, date))

    def put(self, symbol: str, date: str, vector) -> None:
        vec = np.asarray(vector, dtype=np.float64)
        if vec.shape != (self.dim,):
            raise DataError(
                f"embedding for ({symbol}, {date}) has width {vec.shape}, expected ({self.dim},)"
            )
        if not np.all(np.isfinite(vec)):
            raise DataError(f"embedding for ({symbol}, {date}) contains non-finite values")
        self.entries[(symbol, date)] = vec


@dataclass
class RelationalGraph:
    """Stock-sector structure collapsed to per-stock neighbor lists.

    `adjacency` maps each stock to a sorted neighbor list that always
    includes the stock itself; co-membership in any sector makes two stocks
    mutual neighbors, as does a direct stock-stock edge.
    """

    nodes: set[str]
    edges: list[tuple[str, str, str]]
    adjacency: dict[str, list[str]]

    def neighbor_mask(self, symbols: list[str]) -> np.ndarray:
        """Boolean n x n mask over `symbols` order; missing stocks isolate."""
        index = {s: i for i, s in enumerate(symbols)}
        mask = np.zeros((len(symbols), len(symbols)), dtype=bool)
        missing = [s for s in symbols if s not in self.adjacency]
        if missing:
            log.warning("stocks absent from graph treated as isolates: %s", ", ".join(missing))
        for s, i in index.items():
            mask[i, i] = True
            for nb in self.adjacency.get(s, ()):
                j = index.get(nb)
                if j is not None:
                    mask[i, j] = True
        return mask


@dataclass
class Panel:
    """All modalities aligned on (stock, global calendar date).

    `features` holds the model-side indicator rows, derived from the prices
    on construction: close/open/high divided by the previous day's close
    (day 0 uses its own close), which keeps the inputs scale-free and lets
    one row serve every window that covers the date. `observed` is False where a price row was forward-filled to keep
    the calendar rectangular.
    """

    symbols: list[str]
    calendar: list[str]
    close: np.ndarray  # n x T
    open: np.ndarray
    high: np.ndarray
    features: np.ndarray = field(init=False)  # n x T x 3
    doc_emb: np.ndarray  # n x T x dim
    doc_mask: np.ndarray  # n x T
    observed: np.ndarray  # n x T bool
    labels: np.ndarray  # n x T int, NO_LABEL where undefined

    def __post_init__(self):
        self.features = _indicator_features(self.close, self.open, self.high)

    @property
    def n_stocks(self) -> int:
        return len(self.symbols)

    @property
    def n_dates(self) -> int:
        return len(self.calendar)

    @property
    def dim(self) -> int:
        return self.doc_emb.shape[2]


REF_DTYPE = np.dtype([("stock_index", np.int64), ("start", np.int64), ("label", np.int64)])


def as_refs(table: np.ndarray) -> np.recarray:
    """View an N x 3 int64 (stock_index, start, label) table as window refs."""
    table = np.ascontiguousarray(table, dtype=np.int64)
    return table.view(REF_DTYPE).reshape(-1).view(np.recarray)


@dataclass
class DatasetSplit:
    """Chronological train/valid/test window sets over one panel.

    Each part is an `np.recarray` of window refs with int64 fields
    `stock_index`, `start` and `label`: the window covers calendar positions
    [start, start + ws) of stock `stock_index`, and `label` is that stock's
    class on date start + ws. The window size `ws` is stored on the split.
    """

    train: np.recarray
    valid: np.recarray
    test: np.recarray
    label_spec: tuple[float, float]
    ws: int
    panel: Panel


# ---------------------------------------------------------------------------
# file loading


def load_prices(path) -> list[PriceSeries]:
    """Parse a prices CSV with header date,symbol,open,high,close."""
    path = Path(path)
    required = {"date", "symbol", "open", "high", "close"}
    rows_by_symbol: dict[str, dict[str, tuple]] = {}
    bad_rows: list[int] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            missing = sorted(required - set(reader.fieldnames or ()))
            raise FormatError(f"{path}: missing columns {missing}")
        for lineno, row in enumerate(reader, start=2):
            try:
                date = row["date"].strip()
                symbol = row["symbol"].strip()
                o, h, c = (float(row[k]) for k in ("open", "high", "close"))
                if not date or not symbol:
                    raise ValueError("empty date or symbol")
            except (AttributeError, TypeError, ValueError):  # a short row has None fields
                bad_rows.append(lineno)
                continue
            if not (np.isfinite(o) and np.isfinite(h) and np.isfinite(c)):
                bad_rows.append(lineno)
                continue
            if o <= 0 or h <= 0 or c <= 0:
                raise DataError(f"{path}:{lineno}: non-positive price for {symbol} on {date}")
            per_symbol = rows_by_symbol.setdefault(symbol, {})
            if date in per_symbol:
                raise DataError(f"{path}:{lineno}: duplicate row for ({symbol}, {date})")
            per_symbol[date] = (o, h, c)
    if bad_rows:
        log.warning("%s: rejected %d malformed rows (lines %s)", path, len(bad_rows), bad_rows)
    series = []
    for symbol in sorted(rows_by_symbol):
        per_symbol = rows_by_symbol[symbol]
        dates = sorted(per_symbol)
        o, h, c = (np.array([per_symbol[d][k] for d in dates]) for k in range(3))
        series.append(PriceSeries(symbol=symbol, dates=dates, open=o, high=h, close=c))
    return series


def load_documents(path) -> list[DocumentDay]:
    """Parse documents JSONL: one {"symbol","date","texts":[...]} per line."""
    days = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                days.append(
                    DocumentDay(
                        symbol=str(obj["symbol"]),
                        date=str(obj["date"]),
                        texts=[str(t) for t in obj.get("texts", [])],
                    )
                )
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise FormatError(f"{path}:{lineno}: bad document line: {exc}") from exc
    return days


def load_embeddings(path, dim: int | None = None) -> EmbeddingTable:
    """Parse embeddings JSONL: {"symbol","date","vector":[...]} per line.

    A bad line raises FormatError, except a final line without its newline:
    that is a write cut short (the table is appended to line by line), so it
    is dropped with a warning.
    """
    table = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                vec = obj["vector"]
                symbol, date = str(obj["symbol"]), str(obj["date"])
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                if not raw.endswith("\n"):  # only the last line can lack one
                    log.warning("%s:%d: dropping torn last line: %s", path, lineno, exc)
                    break
                raise FormatError(f"{path}:{lineno}: bad embedding line: {exc}") from exc
            if table is None:
                table = EmbeddingTable(dim=dim if dim is not None else len(vec))
            table.put(symbol, date, vec)
    if table is None:
        table = EmbeddingTable(dim=dim if dim is not None else 1536)
    return table


def load_graph(path, stocks=None) -> RelationalGraph:
    """Parse the graph TSV (src<TAB>relation<TAB>dst) and collapse sectors.

    Identifiers appearing only as destinations are sector nodes; stocks
    sharing one become mutual neighbors. A destination that is itself a
    known stock makes a direct neighbor edge. With `stocks` given, edges
    whose source is not a known stock are dropped with a warning.
    """
    edges = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 tab-separated fields")
            edges.append((parts[0].strip(), parts[1].strip(), parts[2].strip()))
    return build_graph(edges, stocks=stocks)


def build_graph(edges, stocks=None) -> RelationalGraph:
    sources = {src for src, _, _ in edges}
    stock_set = set(stocks) if stocks is not None else set(sources)
    kept = []
    for src, rel, dst in edges:
        if src not in stock_set:
            log.warning("dropping edge (%s, %s, %s): unknown stock %r", src, rel, dst, src)
            continue
        kept.append((src, rel, dst))
    sector_members: dict[str, set[str]] = {}
    neighbors: dict[str, set[str]] = {s: {s} for s in stock_set}
    for src, _, dst in kept:
        if dst in stock_set:
            neighbors[src].add(dst)
            neighbors[dst].add(src)
        else:
            sector_members.setdefault(dst, set()).add(src)
    for members in sector_members.values():
        for a in members:
            neighbors[a].update(members)
    nodes = stock_set | set(sector_members)
    adjacency = {s: sorted(nb) for s, nb in neighbors.items()}
    return RelationalGraph(nodes=nodes, edges=kept, adjacency=adjacency)


# ---------------------------------------------------------------------------
# labeling, alignment, windows


def compute_labels(series: PriceSeries, lower: float, upper: float) -> np.ndarray:
    """Per-date trend classes from close-to-close returns.

    Entry t labels the move into date t: up if the return is >= upper, down
    if <= lower (both boundaries inclusive), flat in between. Entry 0 is
    NO_LABEL; series shorter than 2 yield all NO_LABEL.
    """
    if not lower < 0 < upper:
        raise ConfigError(f"thresholds must straddle zero, got ({lower}, {upper})")
    labels = np.full(len(series), NO_LABEL, dtype=np.int64)
    if len(series) < 2:
        return labels
    r = series.close[1:] / series.close[:-1] - 1.0
    labels[1:] = np.where(r >= upper, UP, np.where(r <= lower, DOWN, FLAT))
    return labels


def align_documents(
    series: PriceSeries, days: list[DocumentDay], table: EmbeddingTable
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trading-date embedding matrix and presence mask for one symbol.

    Dates with documents take the cached (already pooled) vector; dates
    without get the zero vector and mask 0. Documents on non-trading dates
    are dropped with a warning.
    """
    date_index = {d: i for i, d in enumerate(series.dates)}
    matrix = np.zeros((len(series), table.dim), dtype=np.float64)
    mask = np.zeros(len(series), dtype=np.int64)
    missing = []
    for day in days:
        if day.symbol != series.symbol or not day.texts:
            continue
        pos = date_index.get(day.date)
        if pos is None:
            log.warning(
                "dropping documents for (%s, %s): not a trading date", day.symbol, day.date
            )
            continue
        vec = table.get(day.symbol, day.date)
        if vec is None:
            missing.append((day.symbol, day.date))
            continue
        matrix[pos] = vec
        mask[pos] = 1
    if missing:
        raise MissingEmbeddingError(missing)
    return matrix, mask


def window_refs(panel: Panel, ws: int) -> np.recarray:
    """Every stride-1 window of the panel, ordered by stock, then start.

    The window at start s covers calendar positions [s, s + ws) and is
    labeled by position s + ws. It is kept only when that date has a label
    and all ws + 1 dates are observed, not forward-filled. A calendar
    shorter than ws + 1 dates yields no windows.
    """
    if ws < 2:
        raise ConfigError(f"window size must be >= 2, got {ws}")
    labels = panel.labels[:, ws:]
    # unobserved dates before each position; a window's count is a difference
    gaps = np.pad(np.cumsum(~panel.observed, axis=1), ((0, 0), (1, 0)))
    valid = (labels != NO_LABEL) & (gaps[:, ws + 1 :] == gaps[:, : labels.shape[1]])
    stock, start = np.nonzero(valid)
    return as_refs(np.stack([stock, start, labels[stock, start]], axis=1))


def chronological_split(
    refs: np.recarray,
    panel: Panel,
    ws: int,
    ratios: tuple[float, float, float],
    label_spec: tuple[float, float] = (0.0, 0.0),
) -> DatasetSplit:
    """Partition window refs by label-date quantiles, oldest dates first.

    Each part is ordered by label date, then stock, then start. The calendar
    and the symbols are sorted, so positions order like dates and names.
    """
    if len(ratios) != 3 or any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"ratios must be three positives summing to 1, got {ratios}")
    if len(refs) == 0:
        raise ConfigError("cannot split an empty window set")
    label_dates = np.unique(refs.start + ws)
    n_dates = len(label_dates)
    b1 = int(np.floor(n_dates * ratios[0]))
    b2 = int(np.floor(n_dates * (ratios[0] + ratios[1])))
    if not 1 <= b1 < b2 < n_dates:
        raise ConfigError(
            f"cannot form three nonempty chronological splits from {n_dates} label dates"
        )
    refs = refs[np.lexsort((refs.start, refs.stock_index, refs.start + ws))]
    cut1, cut2 = np.searchsorted(refs.start + ws, label_dates[[b1, b2]])
    return DatasetSplit(
        train=refs[:cut1],
        valid=refs[cut1:cut2],
        test=refs[cut2:],
        label_spec=tuple(label_spec),
        ws=ws,
        panel=panel,
    )


def batch_iter(refs: np.ndarray, batch_size: int, seed: int, epoch: int = 0):
    """Deterministic shuffled batches of rows; order depends only on (seed, epoch)."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng([int(seed) & 0x7FFFFFFF, int(epoch)])
    order = rng.permutation(len(refs))
    for lo in range(0, len(refs), batch_size):
        yield refs[order[lo : lo + batch_size]]


# ---------------------------------------------------------------------------
# panel assembly


FEATURE_SCALE = 100.0  # percent units keep encoder inputs O(1)


def _indicator_features(close: np.ndarray, open_: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Previous-close relative changes in percent, (n, T, 3), (close, open, high).

    Row t of a stock is (close_t/close_{t-1} - 1, open_t/close_{t-1} - 1,
    high_t/close_{t-1} - 1) * 100; row 0 uses its own close as the base.
    Being per-date quantities, the same row serves every window covering the
    date, which the shared graph computation relies on.
    """
    prev = np.concatenate((close[:, :1], close[:, :-1]), axis=1)
    return np.stack(
        [close / prev - 1.0, open_ / prev - 1.0, high / prev - 1.0], axis=-1
    ) * FEATURE_SCALE


def build_panel(
    series_list: list[PriceSeries],
    doc_days: list[DocumentDay],
    table: EmbeddingTable,
    label_spec: tuple[float, float],
) -> Panel:
    """Align all stocks on the union calendar and stack every modality.

    Stocks missing a calendar date get forward-filled prices (flat day) so
    the graph encoder always sees a full cross-section; those positions are
    marked unobserved and never produce samples.
    """
    if not series_list:
        raise DataError("no price series to assemble")
    symbols = sorted(s.symbol for s in series_list)
    by_symbol = {s.symbol: s for s in series_list}
    calendar = sorted({d for s in series_list for d in s.dates})
    n, T = len(symbols), len(calendar)
    cal_index = {d: i for i, d in enumerate(calendar)}
    close = np.zeros((n, T))
    open_ = np.zeros((n, T))
    high = np.zeros((n, T))
    observed = np.zeros((n, T), dtype=bool)
    doc_emb = np.zeros((n, T, table.dim))
    doc_mask = np.zeros((n, T), dtype=np.int64)
    labels = np.full((n, T), NO_LABEL, dtype=np.int64)
    days_by_symbol: dict[str, list[DocumentDay]] = {}
    for day in doc_days:
        days_by_symbol.setdefault(day.symbol, []).append(day)
    filled_cells = 0
    for i, sym in enumerate(symbols):
        ser = by_symbol[sym]
        pos = np.array([cal_index[d] for d in ser.dates])
        close[i, pos] = ser.close
        open_[i, pos] = ser.open
        high[i, pos] = ser.high
        observed[i, pos] = True
        if not observed[i].all():
            filled_cells += int((~observed[i]).sum())
            last = np.maximum.accumulate(np.where(observed[i], np.arange(T), -1))
            first_obs = int(pos.min())
            last = np.where(last < 0, first_obs, last)
            for arr in (close, open_, high):
                arr[i] = arr[i, last]
        lab = compute_labels(ser, *label_spec)
        labels[i, pos] = lab
        mat, msk = align_documents(ser, days_by_symbol.get(sym, []), table)
        doc_emb[i, pos] = mat
        doc_mask[i, pos] = msk
    if filled_cells:
        log.warning("forward-filled %d missing (stock, date) price cells", filled_cells)
    return Panel(
        symbols=symbols,
        calendar=calendar,
        close=close,
        open=open_,
        high=high,
        doc_emb=doc_emb,
        doc_mask=doc_mask,
        observed=observed,
        labels=labels,
    )


def build_dataset(
    series_list: list[PriceSeries],
    doc_days: list[DocumentDay],
    table: EmbeddingTable,
    graph: RelationalGraph,
    ws: int,
    label_spec: tuple[float, float],
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
) -> DatasetSplit:
    panel = build_panel(series_list, doc_days, table, label_spec)
    return chronological_split(window_refs(panel, ws), panel, ws, ratios, label_spec)


# ---------------------------------------------------------------------------
# split serialization


_PANEL_ARRAYS = ("close", "open", "high", "doc_emb", "doc_mask", "observed", "labels")
_PARTS = ("train", "valid", "test")


def save_split(path, split: DatasetSplit, graph: RelationalGraph | None = None) -> None:
    p = split.panel
    arrays = {name: getattr(p, name) for name in _PANEL_ARRAYS}
    for name in _PARTS:
        part = getattr(split, name)
        arrays[f"{name}_refs"] = np.stack([part.stock_index, part.start, part.label], axis=1)
    meta = {
        "kind": "dataset_split",
        "symbols": p.symbols,
        "calendar": p.calendar,
        "label_spec": list(split.label_spec),
        "ws": split.ws,
        "adjacency": {s: nb for s, nb in sorted(graph.adjacency.items())} if graph else None,
        "graph_edges": [list(e) for e in graph.edges] if graph else None,
    }
    save_bundle(path, arrays, meta)


def _checked_refs(table, part: str, panel: Panel, ws: int) -> np.recarray:
    """A stored refs table as window refs, each checked against the panel."""
    if table is None or table.ndim != 2 or table.shape[1] != 3 or table.dtype.kind not in "iu":
        raise FormatError(f"{part}: window refs must be an integer N x 3 array")
    refs = as_refs(table)
    n, T = panel.labels.shape
    stock, start = refs.stock_index, refs.start
    if not np.all((stock >= 0) & (stock < n) & (start >= 0) & (start + ws < T)):
        raise FormatError(f"{part}: a window ref lies outside the {n} x {T} panel")
    if not np.array_equal(panel.labels[stock, start + ws], refs.label):
        raise FormatError(f"{part}: a window label disagrees with the panel")
    return refs


def load_split(path) -> tuple[DatasetSplit, RelationalGraph | None]:
    """Read a split bundle, checking every window ref against its panel.

    Each part must be an integer N x 3 refs table; each ref must lie inside
    the panel (start + ws < T) and carry the panel's label at start + ws.
    Any failure, or missing or malformed metadata, raises FormatError.
    """
    arrays, meta = load_bundle(path)
    if meta.get("kind") != "dataset_split":
        raise FormatError(f"{path} is not a serialized dataset split")
    try:
        symbols, calendar = list(meta["symbols"]), list(meta["calendar"])
        ws, label_spec = int(meta["ws"]), tuple(meta["label_spec"])
        panel_arrays = {name: arrays[name] for name in _PANEL_ARRAYS}
        adjacency = meta.get("adjacency")
        graph = None if adjacency is None else RelationalGraph(
            nodes=set(symbols),
            edges=[tuple(e) for e in meta.get("graph_edges") or []],
            adjacency={s: list(nb) for s, nb in adjacency.items()},
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise FormatError(f"{path} is a malformed dataset split: {exc!r}") from exc
    shape = (len(symbols), len(calendar))
    if any(a.shape[:2] != shape for a in panel_arrays.values()):
        raise FormatError(f"{path}: a panel array is not {shape} stocks x dates")
    panel_arrays["observed"] = panel_arrays["observed"].astype(bool)
    panel = Panel(symbols=symbols, calendar=calendar, **panel_arrays)
    parts = {
        name: _checked_refs(arrays.get(f"{name}_refs"), f"{path} part {name!r}", panel, ws)
        for name in _PARTS
    }
    return DatasetSplit(**parts, label_spec=label_spec, ws=ws, panel=panel), graph
