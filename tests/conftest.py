import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import settings

import stockfuse.autodiff as ad
from stockfuse.errors import NumericError

settings.register_profile("ci", deadline=None, derandomize=True, max_examples=25)
settings.load_profile("ci")


_node = ad.node


@functools.wraps(_node)
def _finite_node(values, parents, backward):
    """`ad.node` that raises NumericError on a non-finite forward value."""
    out = _node(values, parents, backward)
    if not np.all(np.isfinite(values)):
        raise NumericError("non-finite values produced by a forward op")
    return out


@pytest.fixture(autouse=True)
def debug_checks(monkeypatch):
    """NaN/Inf-check every forward op in tests.

    Every op, autodiff's own included, calls `node` through the module
    global, so patching `ad.node` reaches them all. A test that must see
    non-finite values sets `ad.node` back to `ad.node.__wrapped__`.
    """
    monkeypatch.setattr(ad, "node", _finite_node)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _nan_outside_windows(split, graph, part: str):
    """`split` with a NaN high price on a row no window covers but the model reads.

    The row is a neighbour's of the part's first window, on that window's
    last date: the graph encoder reads it whenever a batch holds that
    window. Every window of the neighbour that covers the date is dropped
    from every part, so only the graph encoder reads the row. Returns the
    new split and the poisoned (stock, date).
    """
    first = getattr(split, part)[0]
    stock, date = int(first.stock_index), int(first.start) + split.ws - 1
    neighbors = graph.neighbor_mask(split.panel.symbols)[stock]
    other = int(np.flatnonzero(neighbors & (np.arange(len(neighbors)) != stock))[0])

    def uncovered(refs):
        covers = (refs.stock_index == other) & (refs.start <= date) & (date < refs.start + split.ws)
        return refs[~covers]

    high = split.panel.high.copy()
    high[other, date] = np.nan
    panel = dataclasses.replace(split.panel, high=high)
    parts = {name: uncovered(getattr(split, name)) for name in ("train", "valid", "test")}
    assert getattr(split, part)[0] == parts[part][0]  # the reading window stays
    return dataclasses.replace(split, panel=panel, **parts), (other, date)


@pytest.fixture
def nan_outside_windows():
    """Poison one indicator row outside every window; see `_nan_outside_windows`."""
    return _nan_outside_windows
