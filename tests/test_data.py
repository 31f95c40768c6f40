import json
import logging
import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from stockfuse import data as D
from stockfuse.container import load_bundle, save_bundle
from stockfuse.errors import (
    ConfigError,
    DataError,
    FormatError,
    MissingEmbeddingError,
    StockfuseError,
)
from stockfuse.synth import synth_dataset


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


class TestComputeLabels:
    def make(self, closes):
        n = len(closes)
        return D.PriceSeries(
            symbol="S",
            dates=[f"2020-01-{i + 1:02d}" for i in range(n)],
            open=np.asarray(closes, dtype=float),
            high=np.asarray(closes, dtype=float),
            close=np.asarray(closes, dtype=float),
        )

    def test_up_at_inno_thresholds(self):
        labels = D.compute_labels(self.make([100.0, 101.2]), -0.01, 0.01)
        assert labels.tolist() == [D.NO_LABEL, D.UP]

    def test_zero_return_flat(self):
        labels = D.compute_labels(self.make([100.0, 100.0]), -0.01, 0.01)
        assert labels.tolist() == [D.NO_LABEL, D.FLAT]

    def test_down_boundary_inclusive(self):
        labels = D.compute_labels(self.make([100.0, 99.0]), -0.01, 0.01)
        assert labels.tolist() == [D.NO_LABEL, D.DOWN]

    def test_up_boundary_inclusive(self):
        labels = D.compute_labels(self.make([100.0, 101.0]), -0.01, 0.01)
        assert labels.tolist() == [D.NO_LABEL, D.UP]

    def test_short_series(self):
        assert D.compute_labels(self.make([100.0]), -0.01, 0.01).tolist() == [D.NO_LABEL]

    def test_bad_thresholds(self):
        with pytest.raises(ConfigError):
            D.compute_labels(self.make([1.0, 2.0]), 0.01, 0.02)


def day(sym, date, texts):
    return D.DocumentDay(symbol=sym, date=date, texts=texts)


class TestAlignDocuments:
    def series(self, n=5):
        closes = np.linspace(10, 11, n)
        return D.PriceSeries(
            symbol="S",
            dates=[f"2020-01-{i + 1:02d}" for i in range(n)],
            open=closes, high=closes, close=closes,
        )

    def test_fill_rule(self):
        table = D.EmbeddingTable(dim=3)
        table.put("S", "2020-01-02", [1.0, 2.0, 3.0])
        table.put("S", "2020-01-04", [4.0, 5.0, 6.0])
        days = [day("S", "2020-01-02", ["a"]), day("S", "2020-01-04", ["b"])]
        matrix, mask = D.align_documents(self.series(), days, table)
        assert mask.tolist() == [0, 1, 0, 1, 0]
        npt.assert_array_equal(matrix[[0, 2, 4]], 0.0)
        npt.assert_array_equal(matrix[1], [1.0, 2.0, 3.0])

    def test_no_documents_at_all(self):
        matrix, mask = D.align_documents(self.series(), [], D.EmbeddingTable(dim=4))
        assert matrix.shape == (5, 4) and not matrix.any() and not mask.any()

    def test_mean_pooled_entry_passthrough(self, rng):
        vectors = rng.normal(size=(3, 6))
        table = D.EmbeddingTable(dim=6)
        table.put("S", "2020-01-03", vectors.mean(axis=0))
        days = [day("S", "2020-01-03", ["x", "y", "z"])]
        matrix, mask = D.align_documents(self.series(), days, table)
        npt.assert_allclose(matrix[2], vectors.mean(axis=0), atol=1e-12)

    def test_missing_embedding_error(self):
        days = [day("S", "2020-01-02", ["a"])]
        with pytest.raises(MissingEmbeddingError, match="2020-01-02"):
            D.align_documents(self.series(), days, D.EmbeddingTable(dim=3))

    def test_non_trading_day_dropped(self, caplog):
        table = D.EmbeddingTable(dim=3)
        table.put("S", "2020-06-01", [1.0, 1.0, 1.0])
        with caplog.at_level(logging.WARNING):
            matrix, mask = D.align_documents(
                self.series(), [day("S", "2020-06-01", ["a"])], table
            )
        assert not mask.any()
        assert "not a trading date" in caplog.text


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
        labels = D.compute_labels(series, -0.01, 0.01)
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
        xs, ys = [], []
        for ser in series:
            labels = D.compute_labels(ser, -0.01, 0.01)
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
        series, *_ = synth_dataset(6, 150, 8, 1.0, 0.5, 0.1, 2, seed=11)
        counts = np.zeros(3, dtype=int)
        for ser in series:
            labels = D.compute_labels(ser, -0.01, 0.01)
            counts += np.bincount(labels[1:], minlength=3)
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
