import json
import logging

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from stockfuse import data as D
from stockfuse.container import load_bundle, save_bundle
from stockfuse.errors import ConfigError, DataError, FormatError, MissingEmbeddingError
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


class TestBuildWindows:
    def build(self, n, ws):
        series = make_series(n)
        docs = np.zeros((n, 2))
        mask = np.zeros(n, dtype=np.int64)
        labels = D.compute_labels(series, -0.01, 0.01)
        return D.build_windows(series, docs, mask, labels, ws)

    def test_sample_count(self):
        assert len(self.build(25, 20)) == 5

    def test_boundary_zero_samples(self, caplog):
        with caplog.at_level(logging.WARNING):
            samples = self.build(20, 20)
        assert samples == []
        assert "skipping" in caplog.text

    def test_overlap_slice_equality(self):
        samples = self.build(30, 10)
        for k in range(len(samples) - 1):
            npt.assert_array_equal(samples[k].indicators[1:], samples[k + 1].indicators[:-1])
            assert samples[k].dates[1:] == samples[k + 1].dates[:-1]

    def test_label_is_day_after_window(self):
        series = make_series(30)
        labels = D.compute_labels(series, -0.01, 0.01)
        samples = self.build(30, 10)
        for s in samples:
            assert s.label == labels[s.start + 10]

    def test_masked_rows_zero_invariant(self):
        series, days, table, graph, _ = synth_dataset(3, 40, 6, 2.0, 0.5, 0.0, 2, seed=9)
        split = D.build_dataset(series, days, table, graph, ws=8, label_spec=(-0.01, 0.01))
        for s in split.train + split.valid + split.test:
            masked = s.doc_embeddings[s.doc_mask == 0]
            assert not masked.any()


class TestChronologicalSplit:
    def samples_on_dates(self, n_dates):
        series = make_series(n_dates + 5)
        labels = D.compute_labels(series, -0.01, 0.01)
        docs = np.zeros((len(series), 2))
        mask = np.zeros(len(series), dtype=np.int64)
        return D.build_windows(series, docs, mask, labels, 5)

    def test_quantile_example(self):
        # 10 distinct label dates at ratios (.8, .1, .1) -> 8 / 1 / 1
        samples = self.samples_on_dates(10)
        assert len({s.label_date for s in samples}) == 10
        split = D.chronological_split(samples, (0.8, 0.1, 0.1))
        assert len({s.label_date for s in split.train}) == 8
        assert len({s.label_date for s in split.valid}) == 1
        assert len({s.label_date for s in split.test}) == 1

    def test_chronology_invariant(self):
        samples = self.samples_on_dates(30)
        split = D.chronological_split(samples, (0.8, 0.1, 0.1))
        assert max(s.label_date for s in split.train) < min(s.label_date for s in split.valid)
        assert max(s.label_date for s in split.valid) < min(s.label_date for s in split.test)

    def test_degenerate_single_date(self):
        samples = self.samples_on_dates(12)
        one_date = [s for s in samples if s.label_date == samples[0].label_date]
        with pytest.raises(ConfigError):
            D.chronological_split(one_date, (0.8, 0.1, 0.1))

    def test_order_invariance(self, rng):
        samples = self.samples_on_dates(25)
        split_a = D.chronological_split(list(samples), (0.8, 0.1, 0.1))
        shuffled = list(samples)
        rng.shuffle(shuffled)
        split_b = D.chronological_split(shuffled, (0.8, 0.1, 0.1))
        for part in ("train", "valid", "test"):
            ids_a = {(s.symbol, s.start) for s in split_a.part(part)}
            ids_b = {(s.symbol, s.start) for s in split_b.part(part)}
            assert ids_a == ids_b

    def test_bad_ratios(self):
        with pytest.raises(ConfigError):
            D.chronological_split(self.samples_on_dates(10), (0.5, 0.5, 0.5))


class TestBatchIter:
    def test_batch_sizes(self):
        batches = list(D.batch_iter(list(range(10)), 4, seed=1))
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_same_seed_same_epoch_identical(self):
        a = list(D.batch_iter(list(range(20)), 6, seed=3, epoch=5))
        b = list(D.batch_iter(list(range(20)), 6, seed=3, epoch=5))
        assert a == b

    def test_epochs_differ(self):
        a = [x for b in D.batch_iter(list(range(40)), 8, seed=3, epoch=0) for x in b]
        b = [x for b in D.batch_iter(list(range(40)), 8, seed=3, epoch=1) for x in b]
        assert a != b

    @given(st.integers(1, 50), st.integers(1, 12))
    def test_partition_property(self, n, bs):
        items = list(range(n))
        batches = list(D.batch_iter(items, bs, seed=0, epoch=2))
        flat = [x for b in batches for x in b]
        assert sorted(flat) == items
        assert all(len(b) == bs for b in batches[:-1])


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
        for part in ("train", "valid", "test"):
            orig, new = split.part(part), loaded.part(part)
            assert len(orig) == len(new)
            for a, b in zip(orig, new):
                assert (a.symbol, a.start, a.label) == (b.symbol, b.start, b.label)
                npt.assert_array_equal(a.indicators, b.indicators)
                npt.assert_array_equal(a.doc_embeddings, b.doc_embeddings)
        npt.assert_array_equal(split.panel.features, loaded.panel.features)

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
    split.train = []
    D.save_split(tmp_path / "s.sfb", split, graph)
    _, meta = load_bundle(tmp_path / "s.sfb")
    assert meta["ws"] == 10
    loaded, _ = D.load_split(tmp_path / "s.sfb")
    assert loaded.train == []
    for part in ("valid", "test"):
        orig, new = split.part(part), loaded.part(part)
        assert len(new) == len(orig) > 0
        for a, b in zip(orig, new):
            assert a.dates == b.dates
            npt.assert_array_equal(a.indicators, b.indicators)
            npt.assert_array_equal(a.doc_embeddings, b.doc_embeddings)


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
