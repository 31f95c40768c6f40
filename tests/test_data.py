import json
import logging
import re
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from stockfuse import data as D
from stockfuse import embed
from stockfuse.container import load_bundle, save_bundle
from stockfuse.errors import (
    ConfigError,
    DataError,
    FormatError,
    MissingEmbeddingError,
    ProviderError,
    StockfuseError,
)
from stockfuse.synth import synth_dataset

import reference as ref


def write_prices(tmp_path, rows, header="date,symbol,open,high,close"):
    path = tmp_path / "prices.csv"
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


class TestLoadPrices:
    def test_two_row_file(self, tmp_path):
        path = write_prices(
            tmp_path,
            ["2020-01-02,AAA,10,11,10.5", "2020-01-03,AAA,10.5,11.5,11"],
        )
        series = D.load_prices(path)
        assert len(series) == 1 and len(series[0]) == 2
        assert series[0].symbol == "AAA"
        npt.assert_array_equal(series[0].close, [10.5, 11.0])

    def test_duplicate_symbol_date_named(self, tmp_path):
        path = write_prices(
            tmp_path,
            ["2020-01-02,AAA,10,11,10.5", "2020-01-02,AAA,10,11,10.6"],
        )
        with pytest.raises(DataError, match=r"AAA.*2020-01-02"):
            D.load_prices(path)

    def test_interleaved_symbols_sorted(self, tmp_path, rng):
        dates = [f"2020-02-{d:02d}" for d in range(1, 11)]
        rows = []
        for d in dates:
            for sym in ("CCC", "AAA", "BBB"):
                px = 10 + rng.random()
                rows.append(f"{d},{sym},{px},{px + 1},{px + 0.5}")
        rng.shuffle(rows)
        series = D.load_prices(write_prices(tmp_path, rows))
        # sort-then-group oracle
        assert [s.symbol for s in series] == ["AAA", "BBB", "CCC"]
        for s in series:
            assert s.dates == sorted(s.dates) == dates

    def test_missing_column(self, tmp_path):
        path = write_prices(tmp_path, ["2020-01-02,AAA,10,11"], header="date,symbol,open,high")
        with pytest.raises(FormatError, match="close"):
            D.load_prices(path)

    def test_non_positive_price(self, tmp_path):
        path = write_prices(tmp_path, ["2020-01-02,AAA,10,11,-3"])
        with pytest.raises(DataError, match="non-positive"):
            D.load_prices(path)

    def test_malformed_rows_rejected_with_numbers(self, tmp_path, caplog):
        path = write_prices(
            tmp_path,
            ["2020-01-02,AAA,10,11,10.5", "2020-01-03,AAA,ten,11,10.5"],
        )
        with caplog.at_level(logging.WARNING):
            series = D.load_prices(path)
        assert len(series[0]) == 1
        assert "3" in caplog.text  # offending line number

    def test_short_row_counted_as_malformed(self, tmp_path, caplog):
        """A row with missing fields reads them as None; it is rejected, not a crash."""
        path = write_prices(tmp_path, ["2020-01-02", "2020-01-03,AAA,10,11,10.5", "2020-01-04,AAA"])
        with caplog.at_level(logging.WARNING):
            series = D.load_prices(path)
        assert [s.dates for s in series] == [["2020-01-03"]]
        assert "rejected 2 malformed rows (lines [2, 4])" in caplog.text


def one_stock_panel(series, days=(), table=None, label_spec=(-0.01, 0.01)):
    table = table if table is not None else D.EmbeddingTable(dim=2)
    return D.build_panel([series], list(days), table, label_spec)


class TestComputeLabels:
    """The labels `build_panel` gives one fully observed stock."""

    def make(self, closes):
        n = len(closes)
        return D.PriceSeries(
            symbol="S",
            dates=[f"2020-01-{i + 1:02d}" for i in range(n)],
            open=np.asarray(closes, dtype=float),
            high=np.asarray(closes, dtype=float),
            close=np.asarray(closes, dtype=float),
        )

    def labels(self, closes):
        return one_stock_panel(self.make(closes)).labels[0].tolist()

    def test_up_at_inno_thresholds(self):
        assert self.labels([100.0, 101.2]) == [D.NO_LABEL, D.UP]

    def test_zero_return_flat(self):
        assert self.labels([100.0, 100.0]) == [D.NO_LABEL, D.FLAT]

    def test_down_boundary_inclusive(self):
        assert self.labels([100.0, 99.0]) == [D.NO_LABEL, D.DOWN]

    def test_up_boundary_inclusive(self):
        assert self.labels([100.0, 101.0]) == [D.NO_LABEL, D.UP]

    def test_short_series(self):
        assert self.labels([100.0]) == [D.NO_LABEL]

    def test_bad_thresholds(self):
        with pytest.raises(ConfigError):
            one_stock_panel(self.make([1.0, 2.0]), label_spec=(0.01, 0.02))


def day(sym, date, texts):
    return D.DocumentDay(symbol=sym, date=date, texts=texts)


class TestAlignDocuments:
    """The documents `build_panel` aligns on one fully observed stock."""

    def series(self, n=5):
        closes = np.linspace(10, 11, n)
        return D.PriceSeries(
            symbol="S",
            dates=[f"2020-01-{i + 1:02d}" for i in range(n)],
            open=closes, high=closes, close=closes,
        )

    def align(self, days, table):
        panel = one_stock_panel(self.series(), days, table)
        return panel.doc_emb[0], panel.doc_mask[0]

    def test_fill_rule(self):
        table = D.EmbeddingTable(dim=3)
        table.put("S", "2020-01-02", [1.0, 2.0, 3.0])
        table.put("S", "2020-01-04", [4.0, 5.0, 6.0])
        days = [day("S", "2020-01-02", ["a"]), day("S", "2020-01-04", ["b"])]
        matrix, mask = self.align(days, table)
        assert mask.tolist() == [0, 1, 0, 1, 0]
        npt.assert_array_equal(matrix[[0, 2, 4]], 0.0)
        npt.assert_array_equal(matrix[1], [1.0, 2.0, 3.0])

    def test_no_documents_at_all(self):
        matrix, mask = self.align([], D.EmbeddingTable(dim=4))
        assert matrix.shape == (5, 4) and not matrix.any() and not mask.any()

    def test_mean_pooled_entry_passthrough(self, rng):
        vectors = rng.normal(size=(3, 6))
        table = D.EmbeddingTable(dim=6)
        table.put("S", "2020-01-03", vectors.mean(axis=0))
        days = [day("S", "2020-01-03", ["x", "y", "z"])]
        matrix, mask = self.align(days, table)
        npt.assert_allclose(matrix[2], vectors.mean(axis=0), atol=1e-12)

    def test_missing_embedding_error(self):
        days = [day("S", "2020-01-02", ["a"])]
        with pytest.raises(MissingEmbeddingError, match="2020-01-02"):
            self.align(days, D.EmbeddingTable(dim=3))

    def test_non_trading_day_dropped(self, caplog):
        table = D.EmbeddingTable(dim=3)
        table.put("S", "2020-06-01", [1.0, 1.0, 1.0])
        with caplog.at_level(logging.WARNING):
            matrix, mask = self.align([day("S", "2020-06-01", ["a"])], table)
        assert not mask.any()
        assert "not a trading date" in caplog.text


PANEL_ARRAYS = ("close", "open", "high", "features", "labels", "observed", "doc_emb", "doc_mask")


def assert_same_panel(panel, expected):
    """Same symbols and calendar, and every array of the same dtype, shape and bytes."""
    assert (panel.symbols, panel.calendar) == (expected.symbols, expected.calendar)
    for name in PANEL_ARRAYS:
        a, b = getattr(panel, name), getattr(expected, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def build_logged(build, *args):
    """`build(*args)` (its panel or its MissingEmbeddingError) and the warnings it logged."""
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger("stockfuse.data")
    logger.addHandler(handler)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a 0/0 return would warn
            try:
                result = build(*args)
            except MissingEmbeddingError as exc:
                result = exc
    finally:
        logger.removeHandler(handler)
    return result, [r.getMessage() for r in records]


PANEL_SYMBOLS = ("AAA", "BBB", "CCC", "DDD")
PANEL_DATES = tuple(f"2021-03-{d:02d}" for d in range(1, 11))
# exact ratios on both thresholds (101/100, 99/100) beside arbitrary prices
PRICES = st.one_of(st.sampled_from([99.0, 100.0, 101.0, 100.5]), st.floats(1.0, 1000.0))


@st.composite
def panel_inputs(draw):
    """Stocks that start late and skip dates, and documents on traded and untraded
    dates, of unknown symbols, with empty `texts`, and some without a vector."""
    series = []
    for symbol in draw(st.lists(st.sampled_from(PANEL_SYMBOLS), min_size=1, max_size=4,
                                unique=True)):
        dates = sorted(draw(st.lists(st.sampled_from(PANEL_DATES), min_size=1, unique=True)))
        o, h, c = (np.array(draw(st.lists(PRICES, min_size=len(dates), max_size=len(dates))))
                   for _ in range(3))
        series.append(D.PriceSeries(symbol, dates, o, h, c))
    keys = st.tuples(st.sampled_from(PANEL_SYMBOLS + ("ZZZ",)),
                     st.sampled_from(PANEL_DATES + ("2021-04-01",)))
    docs = draw(st.lists(st.tuples(keys, st.lists(st.just("text"), max_size=2)), max_size=16))
    unembedded = draw(st.sets(st.integers(0, 15), max_size=2))
    table = D.EmbeddingTable(dim=2)
    for k, ((symbol, date), _) in enumerate(docs):
        if k not in unembedded:
            table.put(symbol, date, draw(st.lists(st.floats(-9.0, 9.0), min_size=2, max_size=2)))
    days = [D.DocumentDay(symbol, date, texts) for (symbol, date), texts in docs]
    label_spec = draw(st.sampled_from([(-0.01, 0.01), (-0.005, 0.02)]))
    return draw(st.permutations(series)), days, table, label_spec


@settings(max_examples=300)
@given(panel_inputs())
def test_build_panel_equals_the_per_stock_reference(inputs):
    """Same panel bytes, the same warnings in the same order, or the same missing keys."""
    panel, logged = build_logged(D.build_panel, *inputs)
    expected, expected_logged = build_logged(ref.build_panel, *inputs)
    assert logged == expected_logged
    if isinstance(expected, MissingEmbeddingError):
        assert isinstance(panel, MissingEmbeddingError) and panel.keys == expected.keys
    else:
        assert_same_panel(panel, expected)


class TestBuildPanel:
    @pytest.mark.parametrize("n_stocks, n_days", [(200, 150), (100, 250)])
    def test_benchmark_shapes_equal_the_per_stock_reference(self, n_stocks, n_days):
        series, days, table, _, _ = synth_dataset(n_stocks, n_days, 64, 2.0, 0.3, 0.1, 10, seed=4)
        args = (series, days, table, (-0.01, 0.01))
        assert_same_panel(D.build_panel(*args), ref.build_panel(*args))

    def test_series_without_rows_is_a_data_error(self):
        empty = D.PriceSeries("E", [], np.array([]), np.array([]), np.array([]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="no rows: E"):
                D.build_panel([make_series(5), empty], [], D.EmbeddingTable(dim=2), (-0.01, 0.01))

    def test_missing_embeddings_of_every_stock_named(self):
        a, b = make_series(5, "A"), make_series(5, "B")
        days = [day("B", b.dates[3], ["x"]), day("A", a.dates[1], ["y"]), day("A", a.dates[2], [])]
        with pytest.raises(MissingEmbeddingError) as info:
            D.build_panel([b, a], days, D.EmbeddingTable(dim=2), (-0.01, 0.01))
        assert info.value.keys == [("A", a.dates[1]), ("B", b.dates[3])]

    def test_errors_in_order_series_thresholds_embeddings(self):
        days = [day("S", make_series(5).dates[1], ["x"])]  # no vector for it
        table = D.EmbeddingTable(dim=2)
        with pytest.raises(DataError, match="no price series"):
            D.build_panel([], days, table, (0.01, 0.02))
        with pytest.raises(ConfigError, match="straddle zero"):
            D.build_panel([make_series(5)], days, table, (0.01, 0.02))
        with pytest.raises(MissingEmbeddingError):
            D.build_panel([make_series(5)], days, table, (-0.01, 0.01))


def make_series(n, symbol="S", start_price=100.0, seed=0):
    rng = np.random.default_rng(seed)
    close = start_price * np.cumprod(1 + rng.normal(0, 0.02, size=n))
    return D.PriceSeries(
        symbol=symbol,
        dates=[f"2020-{1 + i // 28:02d}-{1 + i % 28:02d}" for i in range(n)],
        open=close * 0.99, high=close * 1.01, close=close,
    )


def series_panel(n):
    """A one-stock panel of `n` observed dates, no documents."""
    return D.build_panel([make_series(n)], [], D.EmbeddingTable(dim=2), (-0.01, 0.01))


def loop_window_refs(panel, ws):
    """Oracle: the per-window loop, as (stock, start, label) rows."""
    rows = []
    for i in range(panel.n_stocks):
        for start in range(panel.n_dates - ws):
            label = int(panel.labels[i, start + ws])
            if label != D.NO_LABEL and panel.observed[i, start : start + ws + 1].all():
                rows.append((i, start, label))
    return rows


def loop_split(rows, panel, ws, ratios):
    """Oracle: rows by label-date rank, each part sorted by (label date, symbol, start)."""
    label_date = {row: panel.calendar[row[1] + ws] for row in rows}
    rank = {d: k for k, d in enumerate(sorted(set(label_date.values())))}
    b1 = int(np.floor(len(rank) * ratios[0]))
    b2 = int(np.floor(len(rank) * (ratios[0] + ratios[1])))
    parts = ([], [], [])
    for row in sorted(rows, key=lambda r: (label_date[r], panel.symbols[r[0]], r[1])):
        r = rank[label_date[row]]
        parts[0 if r < b1 else 1 if r < b2 else 2].append(row)
    return parts


def gappy_panel():
    """A synth panel with forward-filled cells and unlabeled observed dates."""
    series, days, table, _, _ = synth_dataset(5, 60, 4, 2.0, 0.3, 0.1, 2, seed=9)
    keep = np.ones(60, dtype=bool)
    keep[[10, 11, 12, 13, 30]] = False  # dates missing mid-series
    s = series[1]
    series[1] = D.PriceSeries(s.symbol, [d for d, k in zip(s.dates, keep) if k],
                              s.open[keep], s.high[keep], s.close[keep])
    s = series[2]  # starts late
    series[2] = D.PriceSeries(s.symbol, s.dates[8:], s.open[8:], s.high[8:], s.close[8:])
    panel = D.build_panel(series, days, table, (-0.01, 0.01))
    panel.labels[3, [20, 41]] = D.NO_LABEL
    assert (~panel.observed).sum() == 5 + 8
    return panel


class TestBuildWindows:
    def test_sample_count(self):
        assert len(D.window_refs(series_panel(25), 20)) == 5

    def test_boundary_zero_samples(self):
        for n in (20, 15):  # T == ws and T < ws
            refs = D.window_refs(series_panel(n), 20)
            assert len(refs) == 0 and refs.dtype.names == ("stock_index", "start", "label")

    def test_window_below_two_rejected(self):
        with pytest.raises(ConfigError, match="window size"):
            D.window_refs(series_panel(10), 1)

    def test_label_is_day_after_window(self):
        series = make_series(30)
        labels = ref.compute_labels(series, -0.01, 0.01)
        refs = D.window_refs(series_panel(30), 10)
        assert len(refs) == 20
        npt.assert_array_equal(refs.label, labels[refs.start + 10])

    @pytest.mark.parametrize("ws", [2, 5, 20])
    def test_matches_loop_oracle(self, ws):
        panel = gappy_panel()
        rows = loop_window_refs(panel, ws)
        assert D.window_refs(panel, ws).tolist() == rows
        assert {r[0] for r in rows} == set(range(5))
        ratios = (0.6, 0.2, 0.2)
        split = D.chronological_split(D.window_refs(panel, ws), panel, ws, ratios)
        for part, expected in zip(("train", "valid", "test"), loop_split(rows, panel, ws, ratios)):
            assert getattr(split, part).tolist() == expected

    def test_masked_rows_zero_invariant(self):
        series, days, table, graph, _ = synth_dataset(3, 40, 6, 2.0, 0.5, 0.0, 2, seed=9)
        split = D.build_dataset(series, days, table, graph, ws=8, label_spec=(-0.01, 0.01))
        panel = split.panel
        for part in ("train", "valid", "test"):
            refs = getattr(split, part)
            dates = refs.start[:, None] + np.arange(8)
            stocks = refs.stock_index[:, None]
            mask = panel.doc_mask[stocks, dates]
            assert (mask == 0).any()
            assert not panel.doc_emb[stocks, dates][mask == 0].any()


class TestChronologicalSplit:
    def samples_on_dates(self, n_dates):
        panel = series_panel(n_dates + 5)
        return D.window_refs(panel, 5), panel

    @staticmethod
    def label_dates(split, part):
        return [split.panel.calendar[s + split.ws] for s in getattr(split, part).start]

    def test_quantile_example(self):
        # 10 distinct label dates at ratios (.8, .1, .1) -> 8 / 1 / 1
        refs, panel = self.samples_on_dates(10)
        assert len(np.unique(refs.start)) == 10
        split = D.chronological_split(refs, panel, 5, (0.8, 0.1, 0.1))
        assert len(set(self.label_dates(split, "train"))) == 8
        assert len(set(self.label_dates(split, "valid"))) == 1
        assert len(set(self.label_dates(split, "test"))) == 1

    def test_chronology_invariant(self):
        split = D.chronological_split(*self.samples_on_dates(30), 5, (0.8, 0.1, 0.1))
        train, valid, test = (self.label_dates(split, p) for p in ("train", "valid", "test"))
        assert max(train) < min(valid)
        assert max(valid) < min(test)

    def test_degenerate_single_date(self):
        refs, panel = self.samples_on_dates(12)
        one_date = refs[refs.start == refs.start[0]]
        with pytest.raises(ConfigError):
            D.chronological_split(one_date, panel, 5, (0.8, 0.1, 0.1))

    def test_order_invariance(self, rng):
        refs, panel = self.samples_on_dates(25)
        split_a = D.chronological_split(refs, panel, 5, (0.8, 0.1, 0.1))
        shuffled = refs[rng.permutation(len(refs))]
        split_b = D.chronological_split(shuffled, panel, 5, (0.8, 0.1, 0.1))
        for part in ("train", "valid", "test"):
            assert getattr(split_a, part).tolist() == getattr(split_b, part).tolist()

    def test_bad_ratios(self):
        with pytest.raises(ConfigError):
            D.chronological_split(*self.samples_on_dates(10), 5, (0.5, 0.5, 0.5))


class TestBatchIter:
    def test_batch_sizes(self):
        batches = list(D.batch_iter(np.arange(10), 4, seed=1))
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_same_seed_same_epoch_identical(self):
        a = list(D.batch_iter(np.arange(20), 6, seed=3, epoch=5))
        b = list(D.batch_iter(np.arange(20), 6, seed=3, epoch=5))
        assert [x.tolist() for x in a] == [x.tolist() for x in b]

    def test_epochs_differ(self):
        a = np.concatenate(list(D.batch_iter(np.arange(40), 8, seed=3, epoch=0)))
        b = np.concatenate(list(D.batch_iter(np.arange(40), 8, seed=3, epoch=1)))
        assert not np.array_equal(a, b)

    @given(st.integers(1, 50), st.integers(1, 12))
    def test_partition_property(self, n, bs):
        items = np.arange(n)
        batches = list(D.batch_iter(items, bs, seed=0, epoch=2))
        npt.assert_array_equal(np.sort(np.concatenate(batches)), items)
        assert all(len(b) == bs for b in batches[:-1])

    def test_batches_of_refs_are_refs(self):
        refs = D.window_refs(series_panel(30), 5)
        order = np.concatenate([b.start for b in D.batch_iter(refs, 7, seed=2, epoch=1)])
        batch = next(D.batch_iter(refs, 7, seed=2, epoch=1))
        assert isinstance(batch, np.recarray) and len(batch) == 7
        npt.assert_array_equal(np.sort(order), refs.start)
        npt.assert_array_equal(batch.label, refs.label[batch.start])


class TestLoadGraph:
    def write(self, tmp_path, lines):
        path = tmp_path / "graph.tsv"
        path.write_text("".join(f"{a}\t{r}\t{b}\n" for a, r, b in lines))
        return path

    def test_sector_collapse(self, tmp_path):
        path = self.write(tmp_path, [("A", "sector", "s1"), ("B", "sector", "s1")])
        graph = D.load_graph(path)
        assert graph.adjacency["A"] == ["A", "B"]
        assert graph.adjacency["B"] == ["A", "B"]

    def test_isolate_self_loop(self, tmp_path):
        path = self.write(tmp_path, [("A", "sector", "s1")])
        graph = D.load_graph(path, stocks=["A", "Z"])
        assert graph.adjacency["Z"] == ["Z"]

    def test_pairwise_same_sector_oracle(self, tmp_path, rng):
        stocks = [f"S{i}" for i in range(9)]
        sector_of = {s: f"sec{i % 3}" for i, s in enumerate(stocks)}
        lines = [(s, "member_of", sector_of[s]) for s in stocks]
        graph = D.load_graph(self.write(tmp_path, lines))
        for a in stocks:
            expected = sorted(
                b for b in stocks if b == a or sector_of[b] == sector_of[a]
            )
            assert graph.adjacency[a] == expected

    def test_unknown_stock_dropped(self, tmp_path, caplog):
        path = self.write(tmp_path, [("A", "s", "x"), ("GHOST", "s", "x")])
        with caplog.at_level(logging.WARNING):
            graph = D.load_graph(path, stocks=["A"])
        assert "GHOST" in caplog.text
        assert graph.adjacency["A"] == ["A"]

    def test_symmetry(self, tmp_path):
        path = self.write(
            tmp_path, [("A", "s", "x"), ("B", "s", "x"), ("B", "peer", "C"), ("C", "s", "y")]
        )
        graph = D.load_graph(path)
        for a, nbs in graph.adjacency.items():
            assert a in nbs
            for b in nbs:
                assert a in graph.adjacency[b]

    def test_neighbor_mask_in_symbol_order(self, tmp_path):
        path = self.write(tmp_path, [("A", "s", "x"), ("B", "s", "x")])
        graph = D.load_graph(path, stocks=["A", "B", "C"])
        mask = graph.neighbor_mask(["C", "B", "A"])
        npt.assert_array_equal(mask, [[1, 0, 0], [0, 1, 1], [0, 1, 1]])
        assert mask.dtype == bool


def _lstsq_probe_accuracy(x_train, y_train, x_test, y_test):
    """Least-squares one-hot probe; independent of any model code."""
    onehot = np.zeros((len(y_train), 3))
    onehot[np.arange(len(y_train)), y_train] = 1.0
    xt = np.hstack([x_train, np.ones((len(x_train), 1))])
    w, *_ = np.linalg.lstsq(xt, onehot, rcond=None)
    xe = np.hstack([x_test, np.ones((len(x_test), 1))])
    return float((np.argmax(xe @ w, axis=1) == y_test).mean())


class TestSynthDataset:
    def probe_data(self, doc_signal, conflict, missing, seed=7):
        series, days, table, graph, truth = synth_dataset(
            6, 120, 10, doc_signal, missing, conflict, 2, seed=seed
        )
        panel = D.build_panel(series, days, table, (-0.01, 0.01))
        assert [s.symbol for s in series] == panel.symbols
        assert panel.observed.all()  # so calendar position t + 1 is the series' next date
        xs, ys = [], []
        for ser, labels in zip(series, panel.labels):
            for t, date in enumerate(ser.dates[:-1]):
                vec = table.get(ser.symbol, date)
                if vec is not None and labels[t + 1] != D.NO_LABEL:
                    xs.append(vec)
                    ys.append(labels[t + 1])
        return np.array(xs), np.array(ys)

    def test_no_signal_probe_at_chance(self):
        x, y = self.probe_data(0.0, 0.0, 0.0)
        n = len(y) // 2
        acc = _lstsq_probe_accuracy(x[:n], y[:n], x[n:], y[n:])
        p = max(np.bincount(y[:n], minlength=3)) / n
        band = p + 3 * np.sqrt(p * (1 - p) / (len(y) - n))
        assert acc <= band

    def test_all_missing(self):
        series, days, table, _, _ = synth_dataset(4, 30, 8, 4.0, 1.0, 0.0, 2, seed=3)
        assert not table.entries and not days

    def test_high_signal_probe(self):
        x, y = self.probe_data(4.0, 0.0, 0.0)
        n = len(y) // 2
        assert _lstsq_probe_accuracy(x[:n], y[:n], x[n:], y[n:]) > 0.8

    def test_all_three_classes_present(self):
        series, days, table, _, _ = synth_dataset(6, 150, 8, 1.0, 0.5, 0.1, 2, seed=11)
        labels = D.build_panel(series, days, table, (-0.01, 0.01)).labels
        counts = np.bincount(labels[labels != D.NO_LABEL], minlength=3)
        assert (counts > 0).all()

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            synth_dataset(2, 10, 4, 1.0, 1.5, 0.0, 1, seed=0)


class TestDatasetBuildDeterminism:
    def test_serialized_splits_byte_identical(self, tmp_path):
        for run in (0, 1):
            series, days, table, graph, _ = synth_dataset(4, 60, 6, 2.0, 0.3, 0.1, 2, seed=5)
            split = D.build_dataset(series, days, table, graph, ws=10, label_spec=(-0.01, 0.01))
            D.save_split(tmp_path / f"run{run}.sfb", split, graph)
        assert (tmp_path / "run0.sfb").read_bytes() == (tmp_path / "run1.sfb").read_bytes()

    def test_split_roundtrip(self, tmp_path):
        series, days, table, graph, _ = synth_dataset(4, 60, 6, 2.0, 0.3, 0.1, 2, seed=5)
        split = D.build_dataset(series, days, table, graph, ws=10, label_spec=(-0.01, 0.01))
        D.save_split(tmp_path / "s.sfb", split, graph)
        loaded, graph2 = D.load_split(tmp_path / "s.sfb")
        assert graph2.adjacency == graph.adjacency
        assert loaded.ws == 10 and loaded.panel.symbols == split.panel.symbols
        for part in ("train", "valid", "test"):
            orig, new = getattr(split, part), getattr(loaded, part)
            assert isinstance(new, np.recarray) and len(orig) == len(new) > 0
            assert new.tolist() == orig.tolist()
        for name in ("close", "open", "high", "doc_emb", "features"):
            npt.assert_array_equal(getattr(split.panel, name), getattr(loaded.panel, name))

    def test_truncated_bundle_rejected(self, tmp_path):
        save_bundle(tmp_path / "x.sfb", {"a": np.ones((3, 3))}, {"kind": "test"})
        raw = (tmp_path / "x.sfb").read_bytes()
        (tmp_path / "bad.sfb").write_bytes(raw[:-10])
        with pytest.raises(FormatError, match="truncated"):
            load_bundle(tmp_path / "bad.sfb")

    def test_version_gate(self, tmp_path):
        save_bundle(tmp_path / "x.sfb", {}, {})
        raw = (tmp_path / "x.sfb").read_bytes()
        patched = raw.replace(b'"format_version":1', b'"format_version":9')
        (tmp_path / "v9.sfb").write_bytes(patched)
        with pytest.raises(FormatError, match="version"):
            load_bundle(tmp_path / "v9.sfb")


class TestBundleHeaderSchema:
    """Each header field `load_bundle` reads is checked before it is used."""

    GOOD = {"format_version": 1, "meta": {},
            "arrays": [{"name": "a", "dtype": "<f8", "shape": [2], "nbytes": 16}]}

    def write(self, tmp_path, header, body=bytes(16)):
        blob = json.dumps(header).encode()
        path = tmp_path / "h.sfb"
        path.write_bytes(b"SFBUNDLE1\n" + len(blob).to_bytes(8, "little") + blob + body)
        return path

    def test_good_header_loads(self, tmp_path):
        arrays, meta = load_bundle(self.write(tmp_path, self.GOOD))
        npt.assert_array_equal(arrays["a"], [0.0, 0.0])
        assert meta == {}

    @pytest.mark.parametrize("edit, message", [
        (lambda h: [h], "not a JSON object"),
        (lambda h: {**h, "meta": []}, "'meta' dict"),
        (lambda h: {k: v for k, v in h.items() if k != "arrays"}, "'arrays' list"),
        (lambda h: {**h, "arrays": ["a"]}, "entry 0 has no string name"),
        (lambda h: {**h, "arrays": [{**h["arrays"][0], "name": 3}]}, "entry 0 has no string name"),
        (lambda h: {**h, "arrays": [{**h["arrays"][0], "dtype": "<c8"}]}, "not a numeric"),
        (lambda h: {**h, "arrays": [{**h["arrays"][0], "dtype": "|O"}]}, "not a numeric"),
        (lambda h: {**h, "arrays": [{**h["arrays"][0], "dtype": "<q9"}]}, "not a numeric"),
        (lambda h: {**h, "arrays": [{**h["arrays"][0], "dtype": ["<f8"]}]}, "not a numeric"),
        (lambda h: {**h, "arrays": [{**h["arrays"][0], "shape": [-2]}]}, "shape"),
        (lambda h: {**h, "arrays": [{**h["arrays"][0], "shape": "2"}]}, "shape"),
        (lambda h: {**h, "arrays": [{**h["arrays"][0], "shape": [2.0]}]}, "shape"),
        (lambda h: {**h, "arrays": [{**h["arrays"][0], "nbytes": 8}]}, "cannot be 8 bytes"),
        (lambda h: {**h, "arrays": [{**h["arrays"][0], "nbytes": 16.0}]}, "cannot be 16.0 bytes"),
    ], ids=["list", "meta_list", "no_arrays", "entry_str", "name_int", "complex", "object",
            "bad_dtype", "dtype_list", "negative_dim", "shape_str", "shape_float", "nbytes_short",
            "nbytes_float"])
    def test_malformed_header_is_a_format_error(self, tmp_path, edit, message):
        with pytest.raises(FormatError, match=re.escape(message)):
            load_bundle(self.write(tmp_path, edit(self.GOOD)))


def test_documents_jsonl_roundtrip(tmp_path):
    path = tmp_path / "docs.jsonl"
    rows = [
        {"symbol": "A", "date": "2020-01-02", "texts": ["hello", "world"]},
        {"symbol": "B", "date": "2020-01-03", "texts": []},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    days = D.load_documents(path)
    assert [(d.symbol, d.date, d.texts) for d in days] == [
        ("A", "2020-01-02", ["hello", "world"]),
        ("B", "2020-01-03", []),
    ]


def test_split_roundtrip_with_empty_train_part(tmp_path):
    series, days, table, graph, _ = synth_dataset(4, 60, 6, 2.0, 0.3, 0.1, 2, seed=5)
    split = D.build_dataset(series, days, table, graph, ws=10, label_spec=(-0.01, 0.01))
    split.train = split.train[:0]
    D.save_split(tmp_path / "s.sfb", split, graph)
    _, meta = load_bundle(tmp_path / "s.sfb")
    assert meta["ws"] == 10
    loaded, _ = D.load_split(tmp_path / "s.sfb")
    assert len(loaded.train) == 0 and loaded.ws == 10
    assert loaded.panel.calendar == split.panel.calendar
    for part in ("valid", "test"):
        orig, new = getattr(split, part), getattr(loaded, part)
        assert len(new) == len(orig) > 0
        assert new.tolist() == orig.tolist()
    npt.assert_array_equal(loaded.panel.features, split.panel.features)
    npt.assert_array_equal(loaded.panel.doc_emb, split.panel.doc_emb)


def small_split_bundle(path):
    """A 3-stock x 24-day split bundle with ws 3; returns its path."""
    series, days, table, graph, _ = synth_dataset(3, 24, 4, 2.0, 0.3, 0.1, 2, seed=5)
    split = D.build_dataset(series, days, table, graph, ws=3, label_spec=(-0.01, 0.01))
    D.save_split(path, split, graph)
    return path


class TestLoadSplitChecks:
    """Every stored window ref is checked against the panel it indexes."""

    def damaged(self, tmp_path, edit):
        arrays, meta = load_bundle(small_split_bundle(tmp_path / "s.sfb"))
        edit(arrays)
        save_bundle(tmp_path / "bad.sfb", arrays, meta)
        return tmp_path / "bad.sfb"

    def test_intact_bundle_loads(self, tmp_path):
        split, _ = D.load_split(small_split_bundle(tmp_path / "s.sfb"))
        assert len(split.train) > 0 and split.ws == 3

    def test_ref_past_calendar(self, tmp_path):
        def edit(arrays):
            arrays["test_refs"][-1, 1] = 24 - 3  # start + ws == T
        with pytest.raises(FormatError, match="'test'.*outside"):
            D.load_split(self.damaged(tmp_path, edit))

    @pytest.mark.parametrize("column, value", [(0, -1), (0, 3), (1, -1)])
    def test_stock_or_start_out_of_range(self, tmp_path, column, value):
        def edit(arrays):
            arrays["valid_refs"][0, column] = value
        with pytest.raises(FormatError, match="'valid'.*outside"):
            D.load_split(self.damaged(tmp_path, edit))

    def test_label_disagrees_with_panel(self, tmp_path):
        def edit(arrays):
            arrays["train_refs"][5, 2] = (arrays["train_refs"][5, 2] + 1) % 3
        with pytest.raises(FormatError, match="'train'.*disagrees"):
            D.load_split(self.damaged(tmp_path, edit))

    @pytest.mark.parametrize("damage", ["float", "two_columns", "missing"])
    def test_refs_must_be_an_integer_n_by_3_array(self, tmp_path, damage):
        def edit(arrays):
            refs = arrays["test_refs"]
            if damage == "missing":
                del arrays["test_refs"]
            else:
                arrays["test_refs"] = refs.astype(float) if damage == "float" else refs[:, :2]
        with pytest.raises(FormatError, match="'test'.*integer N x 3"):
            D.load_split(self.damaged(tmp_path, edit))

    def test_panel_array_of_other_shape(self, tmp_path):
        def edit(arrays):
            arrays["labels"] = arrays["labels"][:, :-1]
        with pytest.raises(FormatError, match="panel array"):
            D.load_split(self.damaged(tmp_path, edit))


@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::DeprecationWarning")
class TestSplitBundleMutations:
    """Damaged split bundles load or fail with a package error, never a raw one.

    The loader reads each mutated bundle from memory, so the test costs no
    file I/O per mutation.
    """

    # each header byte is replaced by its 8 one-bit flips and by these
    REPLACEMENTS = b'"0,-. e'

    @pytest.fixture
    def load(self, tmp_path, monkeypatch):
        path = small_split_bundle(tmp_path / "s.sfb")
        raw = path.read_bytes()
        current = [raw]
        monkeypatch.setattr(Path, "read_bytes", lambda self: current[0])

        def load(mutated: bytes) -> bool:
            current[0] = mutated
            try:
                D.load_split(path)
            except StockfuseError:
                return False
            return True

        return raw, load

    def test_every_single_byte_header_change(self, load):
        raw, load = load
        lo = len(b"SFBUNDLE1\n") + 8
        hi = lo + int.from_bytes(raw[lo - 8 : lo], "little")
        loaded = tried = 0
        for pos in range(lo, hi):
            old = raw[pos]
            values = {old ^ (1 << bit) for bit in range(8)} | set(self.REPLACEMENTS)
            for value in sorted(values - {old}):
                tried += 1
                loaded += load(raw[:pos] + bytes([value]) + raw[pos + 1 :])
        assert tried > 10_000 and 0 < loaded < tried

    def test_seeded_bit_flips_in_refs_bodies(self, tmp_path, load):
        raw, load = load
        split, _ = D.load_split(tmp_path / "s.sfb")
        refs_bytes = 24 * sum(len(getattr(split, p)) for p in ("train", "valid", "test"))
        body = len(raw) - refs_bytes  # the refs arrays are stored last
        rng = np.random.default_rng(17)
        rejected = 0
        for bit in rng.integers(0, refs_bytes * 8, size=400):
            flipped = bytearray(raw)
            flipped[body + bit // 8] ^= 1 << (bit % 8)
            rejected += not load(bytes(flipped))
        assert rejected > 300


class TestSaveBundleAtomic:
    class FailingFile:
        """A binary file whose third write fails, after some bytes went out."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 3:
                raise OSError("no space left on device")
            return self.fh.write(data)

    def test_failed_write_keeps_earlier_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        from stockfuse import container

        path = tmp_path / "x.sfb"
        save_bundle(path, {"a": np.ones((3, 3))}, {"kind": "old"})
        before = path.read_bytes()
        monkeypatch.setattr(
            container, "open", lambda p, mode: self.FailingFile(open(p, mode)), raising=False
        )
        with pytest.raises(OSError, match="no space"):
            save_bundle(path, {"a": np.zeros((50, 50))}, {"kind": "new"})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x.sfb"]
        arrays, meta = load_bundle(path)
        assert meta == {"kind": "old"}
        npt.assert_array_equal(arrays["a"], np.ones((3, 3)))

    def test_overwrite_replaces_content(self, tmp_path):
        path = tmp_path / "x.sfb"
        save_bundle(path, {"a": np.ones((3, 3))}, {"kind": "old"})
        save_bundle(path, {"b": np.arange(4.0)}, {"kind": "new"})
        arrays, meta = load_bundle(path)
        assert meta == {"kind": "new"} and list(arrays) == ["b"]
        assert [p.name for p in tmp_path.iterdir()] == ["x.sfb"]


class TestLoadEmbeddingsTornLine:
    LINES = [
        json.dumps({"symbol": "A", "date": "2020-01-02", "vector": [1.0, 2.0]}),
        json.dumps({"symbol": "B", "date": "2020-01-02", "vector": [3.0, 4.0]}),
    ]

    def test_torn_last_line_dropped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "e.jsonl"
        path.write_text("\n".join(self.LINES) + '\n{"symbol": "C", "date": "2020-01-0')
        with caplog.at_level(logging.WARNING):
            table = D.load_embeddings(path)
        assert sorted(table.entries) == [("A", "2020-01-02"), ("B", "2020-01-02")]
        assert "torn last line" in caplog.text

    def test_complete_last_line_without_newline_kept(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("\n".join(self.LINES))
        assert len(D.load_embeddings(path).entries) == 2

    def test_bad_terminated_last_line_raises(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("\n".join(self.LINES) + '\n{"symbol": "C"\n')
        with pytest.raises(FormatError, match=":3:"):
            D.load_embeddings(path)

    def test_bad_middle_line_raises(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text(self.LINES[0] + '\n{"symbol": "C", "da\n' + self.LINES[1])
        with pytest.raises(FormatError, match=":2:"):
            D.load_embeddings(path)

    @pytest.mark.parametrize("vector", [5, None, "abc", [1, "x"], [[1.0, 2.0]]])
    def test_malformed_vector_raises(self, tmp_path, vector):
        path = tmp_path / "e.jsonl"
        bad = json.dumps({"symbol": "C", "date": "2020-01-02", "vector": vector})
        path.write_text("\n".join([bad, *self.LINES]) + "\n")
        with pytest.raises(FormatError, match="e.jsonl:1: bad embedding line"):
            D.load_embeddings(path)


class TestLoadEmbeddingsChecks:
    LINES = TestLoadEmbeddingsTornLine.LINES
    BAD_C = json.dumps({"symbol": "C", "date": "2020-01-02", "vector": [None, 1.0]})

    def write(self, tmp_path, lines):
        path = tmp_path / "e.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("vector", [[None, 1.0], ["nan", 1.0], [1.0, "-inf"]])
    def test_non_finite_entry_is_a_data_error(self, tmp_path, vector):
        bad = json.dumps({"symbol": "C", "date": "2020-01-02", "vector": vector})
        with pytest.raises(DataError, match=r"\(C, 2020-01-02\) contains non-finite") as info:
            D.load_embeddings(self.write(tmp_path, [*self.LINES, bad]))
        assert not isinstance(info.value, FormatError)

    @pytest.mark.parametrize("vector", [[1.0], [1.0, 2.0, 3.0], []])
    def test_other_width_is_a_data_error(self, tmp_path, vector):
        bad = json.dumps({"symbol": "C", "date": "2020-01-02", "vector": vector})
        width = rf"e.jsonl:3: embedding for \(C, 2020-01-02\) has width \({len(vector)},\)"
        with pytest.raises(DataError, match=width) as info:
            D.load_embeddings(self.write(tmp_path, [*self.LINES, bad]))
        assert not isinstance(info.value, FormatError)

    def test_dim_argument_checks_the_first_line(self, tmp_path):
        with pytest.raises(DataError, match=r"e.jsonl:1: .* has width \(2,\), expected \(3,\)"):
            D.load_embeddings(self.write(tmp_path, self.LINES), dim=3)

    @pytest.mark.parametrize("lines, error, message", [
        ([BAD_C, LINES[0], '{"symbol"', LINES[1]], DataError, r"\(C, 2020-01-02\) contains"),
        ([BAD_C, json.dumps({"symbol": "D", "date": "d", "vector": [1.0]})], DataError,
         r"\(C, 2020-01-02\) contains"),
        ([LINES[0], '{"symbol"', BAD_C], FormatError, "e.jsonl:2: bad embedding line"),
    ])
    def test_first_bad_line_decides_the_error(self, tmp_path, lines, error, message):
        with pytest.raises(DataError, match=message) as info:
            D.load_embeddings(self.write(tmp_path, lines))
        assert type(info.value) is error

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    def test_number_outside_json_is_a_format_error(self, tmp_path, number):
        """`NaN`, `Infinity` and numbers that overflow are not JSON: the line is bad."""
        bad = '{"symbol": "C", "date": "2020-01-02", "vector": [1.0, %s]}' % number
        with pytest.raises(FormatError, match="e.jsonl:2: bad embedding line"):
            D.load_embeddings(self.write(tmp_path, [self.LINES[0], bad, self.LINES[1]]))

    def test_lone_surrogate_is_a_format_error(self, tmp_path):
        bad = json.dumps({"symbol": "\ud800", "date": "2020-01-02", "vector": [1.0, 2.0]})
        with pytest.raises(FormatError, match="e.jsonl:2: bad embedding line"):
            D.load_embeddings(self.write(tmp_path, [self.LINES[0], bad, self.LINES[1]]))

    def test_entries_are_rows_of_one_float64_array(self, tmp_path):
        table = D.load_embeddings(self.write(tmp_path, self.LINES))
        rows = [table.get("A", "2020-01-02"), table.get("B", "2020-01-02")]
        assert rows[0].base is rows[1].base and rows[0].base.dtype == np.float64
        npt.assert_array_equal(rows[0].base[:2], [[1.0, 2.0], [3.0, 4.0]])

    def test_repeated_key_keeps_its_place_and_takes_the_last_vector(self, tmp_path):
        again = json.dumps({"symbol": "A", "date": "2020-01-02", "vector": [5.0, 6.0]})
        table = D.load_embeddings(self.write(tmp_path, [*self.LINES, again]))
        assert list(table.entries) == [("A", "2020-01-02"), ("B", "2020-01-02")]
        npt.assert_array_equal(table.get("A", "2020-01-02"), [5.0, 6.0])

    def test_more_entries_than_the_first_allocation(self, tmp_path):
        """A long first line sizes the array for fewer entries than the file holds."""
        lines = [json.dumps({"symbol": f"S{i}" + "x" * (400 if i == 0 else 0), "date": "d",
                             "vector": [i, -i / 3]}) for i in range(2500)]
        table = D.load_embeddings(self.write(tmp_path, lines))
        assert len({id(v.base) for v in table.entries.values()}) == 1
        symbols = [symbol for symbol, _ in table.entries]
        assert symbols == ["S0" + "x" * 400] + [f"S{i}" for i in range(1, 2500)]
        npt.assert_array_equal(np.stack(list(table.entries.values())),
                               [[i, -i / 3] for i in range(2500)])


# numbers whose text the parser must round exactly as `json` does
FLOAT_EDGES = [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 0.30000000000000004,
               0.1, 1 / 3, 123456789.12345679]
NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(FLOAT_EDGES).map(repr),
    st.builds(lambda sign, m, e: f"{sign}{m}e{e}",  # up to 20-digit mantissas, no overflow
              st.sampled_from(["", "-"]), st.integers(0, 10**20 - 1), st.integers(-345, 280)),
    st.integers(-(10**30), 10**30).map(str),
)
EMBEDDING_LINES = st.integers(0, 4).flatmap(lambda dim: st.lists(
    st.tuples(st.sampled_from("ABC"), st.sampled_from(["2020-01-02", "2020-01-03"]),
              st.lists(NUMBER_TEXT, min_size=dim, max_size=dim)),
    max_size=8,
))


@settings(max_examples=100)
@given(EMBEDDING_LINES)
def test_load_embeddings_equals_the_json_reference(tmp_path_factory, lines):
    """Bit for bit, keys in the same order, repeated keys included."""
    path = tmp_path_factory.getbasetemp() / "reference.jsonl"
    path.write_text("".join(
        f'{{"symbol": "{s}", "date": "{d}", "vector": [{", ".join(v)}]}}\n' for s, d, v in lines
    ))
    want, got = ref.load_embeddings(path), D.load_embeddings(path)
    assert got.dim == want.dim
    assert list(got.entries) == list(want.entries)
    for key, vec in want.entries.items():
        assert got.entries[key].dtype == np.float64
        assert got.entries[key].tobytes() == vec.tobytes()


# reader: (load, file name, a valid file, the errors a bad file raises)
VALID_FILES = {
    "prices": (D.load_prices, "prices.csv",
               "date,symbol,open,high,close\n2020-01-02,AAA,10,11,10.5\n"
               "2020-01-03,AAA,10.5,11.5,11\n2020-01-02,BÉ,5,6,5.5\n", DataError),
    "documents": (D.load_documents, "docs.jsonl",
                  '{"symbol": "A", "date": "2020-01-02", "texts": ["up é", "b"]}\n'
                  '{"symbol": "B", "date": "2020-01-02", "texts": []}\n', DataError),
    "embeddings": (D.load_embeddings, "e.jsonl",
                   '{"symbol": "Aé", "date": "2020-01-02", "vector": [1.5, -2e-3]}\n'
                   '{"symbol": "B", "date": "2020-01-02", "vector": [3, 4.0]}\n', DataError),
    "graph": (D.load_graph, "graph.tsv", "A\tin\tSé\nB\tin\tSé\nC\tin\tS2\n", DataError),
    # the `file` embeddings backend's cache: a bad line there is the provider's error
    "text cache": (embed._load_text_cache, "cache.jsonl",
                   '{"key": "k1", "vector": [0.5, 1e-7]}\n{"key": "ké", "vector": [2, 3]}\n',
                   (ProviderError, FormatError)),
}
BYTE_EDITS = st.lists(st.tuples(st.sampled_from(["flip", "insert", "delete", "truncate"]),
                                st.integers(0, 10**6), st.integers(0, 255)), min_size=1, max_size=3)


def edit_bytes(data: bytes, edits) -> bytes:
    """`data` after each (kind, position, byte) edit in turn; positions wrap around."""
    for kind, pos, byte in edits:
        pos %= len(data) + 1
        if kind == "flip" and pos < len(data):
            data = data[:pos] + bytes([data[pos] ^ (1 << byte % 8)]) + data[pos + 1 :]
        elif kind == "insert":
            data = data[:pos] + bytes([byte]) + data[pos:]
        elif kind == "delete":
            data = data[:pos] + data[pos + 1 :]
        elif kind == "truncate":
            data = data[:pos]
    return data


@pytest.mark.parametrize("reader", sorted(VALID_FILES))
@settings(max_examples=100)
@given(edits=BYTE_EDITS)
def test_byte_edits_load_or_raise_the_readers_error(tmp_path_factory, reader, edits):
    load, name, text, error = VALID_FILES[reader]
    path = tmp_path_factory.getbasetemp() / name
    path.write_bytes(edit_bytes(text.encode(), edits))
    try:
        load(path)
    except error:
        pass


class TestNotUtf8:
    """A byte that is not UTF-8 is a FormatError naming the file and its line."""

    @staticmethod
    def poison(path, lineno):
        lines = path.read_bytes().splitlines(keepends=True)
        lines[lineno - 1] = b"\xff" + lines[lineno - 1]
        path.write_bytes(b"".join(lines))
        return path

    def test_prices(self, tmp_path):
        """Line 400 lies past the first read buffer, so its number is counted from the bytes."""
        rows = [f"2020-01-{d:02d},S{s},10,11,10.5" for s in range(20) for d in range(1, 26)]
        path = self.poison(write_prices(tmp_path, rows), 400)
        with pytest.raises(FormatError, match=r"prices\.csv:400: not UTF-8"):
            D.load_prices(path)

    def test_documents(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text("".join(json.dumps({"symbol": s, "date": "d", "texts": ["x"]}) + "\n"
                                for s in "ABC"))
        with pytest.raises(FormatError, match=r"docs\.jsonl:2: bad document line"):
            D.load_documents(self.poison(path, 2))

    def test_embeddings(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("\n".join(TestLoadEmbeddingsTornLine.LINES) + "\n")
        with pytest.raises(FormatError, match=r"e\.jsonl:2: bad embedding line"):
            D.load_embeddings(self.poison(path, 2))

    def test_graph(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("A\tin\tS1\nB\tin\tS1\nC\tin\tS2\n")
        with pytest.raises(FormatError, match=r"graph\.tsv:3: not UTF-8"):
            D.load_graph(self.poison(path, 3))


@pytest.mark.parametrize("texts", ["hello", {"a": "b"}, ["a", None], ["a", 1], [["a"]], None])
def test_document_texts_must_be_a_list_of_strings(tmp_path, texts):
    path = tmp_path / "docs.jsonl"
    rows = [{"symbol": "A", "date": "2020-01-02", "texts": ["ok"]},
            {"symbol": "B", "date": "2020-01-02", "texts": texts}]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(FormatError, match=r"docs\.jsonl:2: bad document line"):
        D.load_documents(path)
