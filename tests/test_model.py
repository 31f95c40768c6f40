import re

import numpy as np
import numpy.testing as npt
import pytest

from perfbench.trace import Tracer, instrumented
from stockfuse.config import VARIANTS, TrainConfig
from stockfuse.data import build_dataset
from stockfuse.errors import DataError
from stockfuse import autodiff as ad
from stockfuse import fusion as fusion_module
from stockfuse import model as model_module
from stockfuse.model import PackedPanel, TrimodalModel, glorot
from stockfuse.predictor import cross_entropy_loss
from stockfuse.synth import synth_dataset

import reference as ref


def random_packed(rng, n_stocks=3, n_dates=9, dim=5):
    """A date-major panel of random features; no loader involved."""
    rows = n_stocks * n_dates
    neighbors = rng.random((n_stocks, n_stocks)) < 0.5
    np.fill_diagonal(neighbors, True)
    return PackedPanel(
        symbols=[f"S{i}" for i in range(n_stocks)],
        n_stocks=n_stocks,
        n_dates=n_dates,
        ind=1.0 + 0.05 * rng.normal(size=(rows, 3)),
        doc=rng.normal(size=(rows, dim)),
        mask=(rng.random((rows, 1)) < 0.7).astype(np.float64),
        neighbors=neighbors,
        close=np.ones((n_stocks, n_dates)),
        calendar=[f"d{t}" for t in range(n_dates)],
    )


@pytest.mark.parametrize("gat_layers", [1, 2])
@pytest.mark.parametrize("fusion_layers", [1, 2])
@pytest.mark.parametrize("variant", VARIANTS)
def test_forward_batch_matches_forward_sample(variant, fusion_layers, gat_layers):
    rng = np.random.default_rng(fusion_layers * 10 + gat_layers)
    packed = random_packed(rng)
    cfg = TrainConfig(
        d=4, ws=4, heads=2, head_dim=3, gat_heads=2, gat_layers=gat_layers,
        fusion_layers=fusion_layers, seed=7,
    )
    model = TrimodalModel(cfg, doc_dim=5, variant=variant)
    stock_idx = np.array([0, 2, 1, 2, 0])
    start = np.array([0, 1, 3, 5, 5])
    batched = model.forward_batch(packed, stock_idx, start).values
    for b, (s, t0) in enumerate(zip(stock_idx, start)):
        single = ref.forward_sample(model, packed, int(s), int(t0))[0].values
        npt.assert_allclose(batched[b : b + 1], single, rtol=0, atol=1e-12)


def tiny_batch(n_windows=64):
    series, days, table, graph, _ = synth_dataset(6, 60, 64, 4.0, 0.2, 0.1, 2, seed=3)
    split = build_dataset(series, days, table, graph, ws=20, label_spec=(-0.01, 0.01))
    packed = PackedPanel.from_panel(split.panel, graph)
    return packed, split.train[:n_windows]


def test_seed17_gate_weights_get_gradient():
    """With a ReLU on the single last time unit, seed 17 starts dead everywhere."""
    packed, batch = tiny_batch()
    model = TrimodalModel(TrainConfig(seed=17), doc_dim=64)
    model.params.zero_grads()
    loss, _ = model.loss_batch(packed, batch)
    loss.backward()
    for name in ("fuse1.gate.wa", "fuse2.gate.wa"):
        grad = model.params[name].tensor.grad
        assert grad is not None and np.any(grad != 0), name


@pytest.mark.parametrize("variant", VARIANTS)
def test_initial_logits_vary_across_windows_for_seeds_0_to_99(variant):
    """No variant starts as a constant classifier: drop_indicators did, for
    every seed, while its stage 2 attended to all-zero graph rows."""
    packed, batch = tiny_batch(16)
    constant = []
    for seed in range(100):
        model = TrimodalModel(TrainConfig(seed=seed), doc_dim=64, variant=variant)
        logits = model.forward_batch(packed, batch.stock_index, batch.start).values
        if np.all(logits == logits[0]):
            constant.append(seed)
    assert constant == []


@pytest.mark.parametrize("variant", ["full", "ca_fusion"])
def test_diagnostics_return_unstable_stable_gate_per_stage(variant):
    packed = random_packed(np.random.default_rng(2))
    cfg = TrainConfig(d=4, ws=4, heads=2, gat_heads=1, seed=1)
    model = TrimodalModel(cfg, doc_dim=5, variant=variant)
    logits, diag = model.forward_batch(packed, [0, 1], [0, 2], diagnostics=True)
    npt.assert_array_equal(logits.values, model.forward_batch(packed, [0, 1], [0, 2]).values)
    assert sorted(diag) == ["stage1", "stage2"]
    for unstable, stable, gate in diag.values():
        assert unstable.shape == (8, 8) and stable.shape == gate.shape == (8, 4)
        if variant == "ca_fusion":
            npt.assert_array_equal(gate.values, 1.0)
        else:
            assert np.all((gate.values > 0) & (gate.values < 1))


@pytest.mark.parametrize("fusion_layers", [1, 2])
@pytest.mark.parametrize("variant", ["full", "ca_fusion", "glu_fusion", "drop_indicators"])
def test_diagnostics_match_per_window_fusion(variant, fusion_layers):
    """(unstable, stable, gate) per stage equal the per-window reference
    values, including the unstable feature the stage op recomputes off tape;
    drop_indicators runs stage 1 only."""
    packed = random_packed(np.random.default_rng(fusion_layers))
    cfg = TrainConfig(d=4, ws=4, heads=2, head_dim=3, gat_heads=2, fusion_layers=fusion_layers,
                      seed=5)
    model = TrimodalModel(cfg, doc_dim=5, variant=variant)
    stock_idx, start = np.array([0, 2, 1, 2]), np.array([0, 1, 3, 5])
    _, diag = model.forward_batch(packed, stock_idx, start, diagnostics=True)
    stages = ["stage1"] if variant == "drop_indicators" else ["stage1", "stage2"]
    assert sorted(diag) == stages
    t = cfg.ws
    for b, (s, t0) in enumerate(zip(stock_idx, start)):
        _, want = ref.forward_sample(model, packed, int(s), int(t0))
        assert sorted(want) == stages
        for name, want_stage in want.items():
            for got, w in zip(diag[name], want_stage):
                npt.assert_allclose(got.values[b * t : (b + 1) * t], w.values, rtol=0, atol=1e-12)


def test_model_grad_check_every_parameter():
    """Finite differences over every weight of a tiny float64 model, GAT
    with two layers over a graph of two sectors and one isolated stock."""
    rng = np.random.default_rng(11)
    packed = random_packed(rng, n_stocks=5, n_dates=8, dim=3)
    sector = np.array([0, 1, 0, 1, 2])  # stock 4 is alone
    packed.neighbors = sector[:, None] == sector[None, :]
    cfg = TrainConfig(d=4, ws=4, heads=2, head_dim=2, gat_heads=2, gat_layers=2, seed=0)
    model = TrimodalModel(cfg, doc_dim=3)
    for p in model.params:  # nonzero biases keep every ReLU input off its kink
        p.tensor.values = p.values + 0.1 * rng.normal(size=p.values.shape)
        if p.name.startswith("gat."):  # scores that vary, so attention weights matter
            p.tensor.values *= 3.0
    stock_idx, start = np.array([0, 4, 1, 3, 2]), np.array([0, 1, 2, 4, 3])
    labels = np.array([0, 1, 2, 1, 0])

    def loss():
        return cross_entropy_loss(model.forward_batch(packed, stock_idx, start), labels)

    params = list(model.params)
    assert ref.grad_check(loss, params, eps=1e-6) < 1e-8
    with_grad = {p.name for p in params if p.tensor.grad is not None and np.any(p.tensor.grad)}
    assert with_grad == set(model.params.names())  # ind.*, gat.* and all the rest


@pytest.mark.parametrize("variant,count,entries", [
    ("full", 38, 110_034),
    ("glu_fusion", 34, 77_266),
    ("ca_fusion", 34, 101_714),
    ("drop_graph", 29, 64_594),
    ("drop_docs", 29, 68_882),
    ("drop_indicators", 21, 51_858),
])
def test_every_held_parameter_gets_a_gradient(variant, count, entries):
    """A variant holds only the parameters it reads (`count` of them, of
    `entries` entries, at the defaults): after one backward of the default
    model, every one has a nonzero gradient."""
    packed, batch = tiny_batch()
    model = TrimodalModel(TrainConfig(seed=0), doc_dim=64, variant=variant)
    assert (len(model.params), sum(p.values.size for p in model.params)) == (count, entries)
    loss, _ = model.loss_batch(packed, batch)
    loss.backward()
    with_grad = {p.name for p in model.params if np.any(p.tensor.grad)}
    assert with_grad == set(model.params.names())


# Two batches over random_packed(n_stocks=3, n_dates=9) with ws = 4: every
# stock at starts 1..4 (12 windows, 48 window rows from a slab of 21 rows, so
# the stages read calendar rows through the window index), and two windows
# far apart (8 window rows from a slab of 27, so the windows are gathered).
BATCH_FORMS = {
    "source rows": (np.repeat([0, 1, 2], 4), np.tile([1, 2, 3, 4], 3)),
    "gathered": (np.array([0, 2]), np.array([0, 5])),
}


def record_stage_forms(monkeypatch):
    """Patch the model's stage op to log each call's (query, kv) form."""
    forms = []
    orig = model_module.block_cross_attention

    def block_cross_attention(*args, query_index=None, kv_index=None, **kwargs):
        forms.append(tuple("window" if i is None else "source" for i in (query_index, kv_index)))
        return orig(*args, query_index=query_index, kv_index=kv_index, **kwargs)

    monkeypatch.setattr(model_module, "block_cross_attention", block_cross_attention)
    return forms


@pytest.mark.parametrize("form", sorted(BATCH_FORMS))
@pytest.mark.parametrize("fusion_layers", [1, 2])
@pytest.mark.parametrize("variant", VARIANTS)
def test_both_batch_forms_match_forward_sample(variant, fusion_layers, form):
    """Logits and every stage's (unstable, stable, gate) equal the per-window
    reference at 1e-12 in float64, whichever form the batch takes."""
    packed = random_packed(np.random.default_rng(30 + fusion_layers))
    cfg = TrainConfig(d=4, ws=4, heads=2, head_dim=3, gat_heads=2, fusion_layers=fusion_layers,
                      seed=3)
    model = TrimodalModel(cfg, doc_dim=5, variant=variant)
    stock_idx, start = BATCH_FORMS[form]
    logits, diag = model.forward_batch(packed, stock_idx, start, diagnostics=True)
    t = cfg.ws
    for b, (s, t0) in enumerate(zip(stock_idx, start)):
        want_logits, want = ref.forward_sample(model, packed, int(s), int(t0))
        npt.assert_allclose(logits.values[b : b + 1], want_logits.values, rtol=0, atol=1e-12)
        assert sorted(diag) == sorted(want)
        for name, want_stage in want.items():
            for got, w in zip(diag[name], want_stage):
                npt.assert_allclose(got.values[b * t : (b + 1) * t], w.values, rtol=0, atol=1e-12)


@pytest.mark.parametrize("tile_rows", [None, 8])
@pytest.mark.parametrize("form", sorted(BATCH_FORMS))
@pytest.mark.parametrize("fusion_layers", [1, 2])
@pytest.mark.parametrize("variant", VARIANTS)
def test_diagnostics_off_the_tape_equal_the_taped_call(monkeypatch, variant, fusion_layers, form,
                                                      tile_rows):
    """`dump-features` reads the diagnostics under no_grad, where the stage op
    keeps no window-row gate and `_fuse_blocks` recomputes it: the logits and
    every stage's (unstable, stable, gate) equal the taped call's, with one
    tile or with tiles of 2 windows."""
    if tile_rows:
        monkeypatch.setattr(fusion_module, "TILE_ROWS", tile_rows)
    packed = random_packed(np.random.default_rng(40 + fusion_layers))
    cfg = TrainConfig(d=4, ws=4, heads=2, head_dim=3, gat_heads=2, fusion_layers=fusion_layers,
                      seed=3)
    model = TrimodalModel(cfg, doc_dim=5, variant=variant)
    stock_idx, start = BATCH_FORMS[form]
    want_logits, want = model.forward_batch(packed, stock_idx, start, diagnostics=True)
    with ad.no_grad():
        logits, diag = model.forward_batch(packed, stock_idx, start, diagnostics=True)
    npt.assert_array_equal(logits.values, want_logits.values)
    assert sorted(diag) == sorted(want) != []
    for name, want_stage in want.items():
        for got, w in zip(diag[name], want_stage):
            npt.assert_array_equal(got.values, w.values, err_msg=name)


@pytest.mark.parametrize("variant", VARIANTS)
def test_batch_form_follows_the_shape_rule(monkeypatch, variant):
    """Overlapping windows read calendar rows through the index (stage 1's
    query too, and stage 2's when no stage 1 runs); far-apart windows are
    gathered. Layers after the first read window rows as their query."""
    packed = random_packed(np.random.default_rng(5))
    cfg = TrainConfig(d=4, ws=4, heads=2, head_dim=3, gat_heads=2, fusion_layers=2, seed=3)
    model = TrimodalModel(cfg, doc_dim=5, variant=variant)
    forms = record_stage_forms(monkeypatch)
    model.forward_batch(packed, *BATCH_FORMS["gathered"])
    n_calls = len(forms)
    assert forms == [("window", "window")] * n_calls
    forms.clear()
    model.forward_batch(packed, *BATCH_FORMS["source rows"])
    first = ("source", "source")
    later = ("window", "source")
    want = [first, later] + [later, later] * (n_calls // 2 - 1)
    assert n_calls == (2 if variant in ("drop_docs", "drop_graph", "drop_indicators") else 4)
    assert forms == want


@pytest.mark.parametrize("stock_idx,start", [
    (np.array([0, 1, 2, 3, 4, 0, 1, 2]), np.array([1, 1, 1, 1, 1, 2, 2, 2])),
    (np.array([0, 1, 1, 2, 0, 3, 4, 2]), np.array([1, 2, 2, 2, 2, 1, 1, 1])),  # (1, 2) twice
])
def test_model_grad_check_through_source_rows(monkeypatch, stock_idx, start):
    """Finite differences over every weight of the grad-check model above
    with two fusion layers, when the stages read calendar rows through the
    window index. Distinct windows sum their gradients into source rows one
    index column at a time; a repeated window takes the sorting scatter."""
    rng = np.random.default_rng(11)
    packed = random_packed(rng, n_stocks=5, n_dates=8, dim=3)
    sector = np.array([0, 1, 0, 1, 2])
    packed.neighbors = sector[:, None] == sector[None, :]
    cfg = TrainConfig(d=4, ws=4, heads=2, head_dim=2, gat_heads=2, gat_layers=2,
                      fusion_layers=2, seed=0)
    model = TrimodalModel(cfg, doc_dim=3)
    for p in model.params:
        p.tensor.values = p.values + 0.1 * rng.normal(size=p.values.shape)
        if p.name.startswith("gat."):
            p.tensor.values *= 3.0
    labels = np.arange(len(start)) % 3
    forms = record_stage_forms(monkeypatch)

    def loss():
        return cross_entropy_loss(model.forward_batch(packed, stock_idx, start), labels)

    params = list(model.params)
    assert ref.grad_check(loss, params, eps=1e-6) < 1e-8
    assert forms[0] == ("source", "source")
    with_grad = {p.name for p in params if p.tensor.grad is not None and np.any(p.tensor.grad)}
    assert with_grad == set(model.params.names())


def test_packed_panel_rejects_nonfinite_indicators(nan_outside_windows):
    """A non-finite indicator value raises DataError naming its row, even on
    a row that only the graph encoder reads."""
    series, days, table, graph, _ = synth_dataset(6, 60, 8, 4.0, 0.2, 0.1, 2, seed=3)
    split = build_dataset(series, days, table, graph, ws=10, label_spec=(-0.01, 0.01))
    PackedPanel.from_panel(split.panel, graph)
    poisoned, (stock, date) = nan_outside_windows(split, graph, "test")
    symbol, day = split.panel.symbols[stock], split.panel.calendar[date]
    with pytest.raises(DataError, match=f"{symbol} on {day} is not finite"):
        PackedPanel.from_panel(poisoned.panel, graph, np.float32)


def test_predict_part_batch_size_does_not_change_predictions(monkeypatch):
    """Batches of 7 consecutive test windows, against one batch of all 30:
    each batch's logits equal the whole batch's rows at 1e-12, and so do the
    predicted classes. The test part is date-major over 6 stocks, so a batch
    of 7 spans two starts and reads calendar rows; the last one holds 2
    windows of one start and is gathered."""
    series, days, table, graph, _ = synth_dataset(6, 60, 8, 4.0, 0.2, 0.1, 2, seed=3)
    split = build_dataset(series, days, table, graph, ws=10, label_spec=(-0.01, 0.01))
    packed = PackedPanel.from_panel(split.panel, graph)
    test = split.test
    model = TrimodalModel(TrainConfig(d=8, ws=10, seed=0), doc_dim=8)
    rng = np.random.default_rng(0)
    for p in model.params:  # nonzero biases, so the logits vary across windows
        p.tensor.values = p.values + 0.3 * rng.normal(size=p.values.shape)
    with ad.no_grad():
        whole = model.forward_batch(packed, test.stock_index, test.start).values
        assert np.ptp(whole, axis=0).min() > 1e-6  # each window's own logits
        forms = record_stage_forms(monkeypatch)
        for b in range(0, len(test), 7):
            part = test[b : b + 7]
            logits = model.forward_batch(packed, part.stock_index, part.start).values
            npt.assert_allclose(logits, whole[b : b + 7], rtol=0, atol=1e-12)
    assert forms[0] == ("source", "source") and forms[-1] == ("window", "window")
    for batch_size in (7, 4096):
        npt.assert_array_equal(model.predict_part(packed, test, batch_size), whole.argmax(axis=1))


BIASES = (".b", ".ba", ".bb")
MULTI_HEAD_CFG = TrainConfig(d=4, ws=4, heads=2, head_dim=3, gat_heads=2, gat_layers=2, seed=7)


def stream_draw(cfg, name, shape):
    """The glorot draws of weight `name` from its own stream, seeded by
    (seed, name): one block per head, in head order, side by side."""
    if re.fullmatch(r"fuse\d\.w[qkv]", name):
        n_heads = cfg.heads
    else:
        n_heads = cfg.gat_heads if name.startswith("gat.") else 1
    rows, cols = shape
    rng = np.random.default_rng([cfg.seed, *name.encode()])
    blocks = [glorot(rng, (rows, cols // n_heads), cfg.dtype) for _ in range(n_heads)]
    return np.concatenate(blocks, axis=1)


def test_multi_head_weights_are_the_per_head_draws_side_by_side():
    """Each weight holds the glorot draws of its own stream; a projection
    holds its heads' blocks, drawn in head order from that stream and
    concatenated by columns."""
    model = TrimodalModel(MULTI_HEAD_CFG, doc_dim=5)
    weights = [p for p in model.params if not p.name.endswith(BIASES)]
    assert len(weights) == 25
    for p in weights:
        npt.assert_array_equal(
            p.values, stream_draw(MULTI_HEAD_CFG, p.name, p.values.shape), err_msg=p.name
        )
    assert model.params["gat.l1.w"].values.shape == (4, 8)
    assert model.params["gat.l1.a"].values.shape == (8, 2)
    assert model.params["fuse2.wv"].values.shape == (4, 6)
    assert not [name for name in model.params.names() if re.search(r"\.h\d+\.", name)]


def test_default_model_parameter_count():
    params = TrimodalModel(TrainConfig(), doc_dim=64).params
    assert len(params) == 38
    assert sum(p.values.size for p in params) == 110_034


@pytest.mark.parametrize("variant", VARIANTS)
def test_held_parameters_start_as_drawn(variant):
    """A held weight is its own stream's draw, so it equals the same-named
    weight of a same-seed `full` model bit for bit; glu_fusion's glu maps are
    the only weights `full` lacks. Every held bias starts at zero."""
    model = TrimodalModel(MULTI_HEAD_CFG, doc_dim=5, variant=variant)
    full = TrimodalModel(MULTI_HEAD_CFG, doc_dim=5)
    own = [name for name in model.params.names() if name not in full.params.names()]
    assert own == (["fuse1.glu.w", "fuse2.glu.w"] if variant == "glu_fusion" else [])
    for p in model.params:
        if p.name.endswith(BIASES):
            assert not np.any(p.values), p.name
        elif p.name in own:
            npt.assert_array_equal(
                p.values, stream_draw(MULTI_HEAD_CFG, p.name, p.values.shape), err_msg=p.name
            )
        else:
            npt.assert_array_equal(p.values, full.params[p.name].values, err_msg=p.name)


def test_gat_depth_changes_no_other_initial_weight():
    """A second GAT layer only adds its own weights: every parameter of the
    one-layer `full` model starts the same in the two-layer one."""
    one = TrimodalModel(MULTI_HEAD_CFG.replace(gat_layers=1), doc_dim=5)
    two = TrimodalModel(MULTI_HEAD_CFG, doc_dim=5)
    assert set(two.params.names()) - set(one.params.names()) == {"gat.l1.w", "gat.l1.a"}
    for p in one.params:
        npt.assert_array_equal(p.values, two.params[p.name].values, err_msg=p.name)


def tape_nodes(root):
    """Every node reachable from `root` through the tape, `root` included."""
    stack, seen = [root], {}
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


@pytest.fixture(scope="module")
def contract_batch():
    series, days, table, graph, _ = synth_dataset(12, 70, 16, 4.0, 0.2, 0.1, 3, seed=9)
    split = build_dataset(series, days, table, graph, ws=10, label_spec=(-0.01, 0.01))
    rng = np.random.default_rng(0)
    batch = split.train[np.sort(rng.choice(len(split.train), size=96, replace=False))]
    return split.panel, graph, batch


@pytest.mark.parametrize("variant", VARIANTS)
def test_float32_numerics_contract(contract_batch, variant):
    """float32 tracks float64 on the same weights: logits and every parameter
    gradient within 1e-4 of their scale, and no tape node leaves float32."""
    panel, graph, batch = contract_batch
    cfg = TrainConfig(d=16, ws=10, heads=2, head_dim=12, gat_heads=2, seed=4)
    rng = np.random.default_rng(1)
    runs = {}
    for dtype, precision in ((np.float64, "float64"), (np.float32, "float32")):
        model = TrimodalModel(cfg.replace(precision=precision), doc_dim=16, variant=variant)
        for p in model.params:
            if "float64" in runs:  # the float64 weights, rounded once
                p.tensor.values = runs["float64"][0].params[p.name].values.astype(dtype)
            else:  # nonzero biases, so no variant starts with all-zero logits
                p.tensor.values = p.values + 0.1 * rng.normal(size=p.values.shape)
        loss, logits = model.loss_batch(PackedPanel.from_panel(panel, graph, dtype), batch)
        loss.backward()
        runs[precision] = model, logits, loss
    model64, logits64, _ = runs["float64"]
    model32, logits32, loss32 = runs["float32"]
    for node in tape_nodes(loss32):
        assert node.values.dtype == np.float32, node
        assert node.grad is None or node.grad.dtype == np.float32, node
    scale = np.abs(logits64.values).max()
    assert scale > 0 and np.abs(logits32.values - logits64.values).max() <= 1e-4 * scale
    for p32, p64 in zip(model32.params, model64.params):
        g32, g64 = p32.tensor.grad, p64.tensor.grad
        assert (g32 is None) == (g64 is None), p32.name
        if g64 is not None:
            assert g32.dtype == np.float32, p32.name
            err, scale = np.abs(g32 - g64).max(), np.abs(g64).max()
            assert err <= 1e-4 * scale, (p32.name, err, scale)


def full_contract_model(panel, graph):
    cfg = TrainConfig(d=16, ws=10, heads=2, head_dim=12, gat_heads=2, seed=4)
    return TrimodalModel(cfg, doc_dim=16), PackedPanel.from_panel(panel, graph)


def full_loss_ops(contract_batch, batch_rows=slice(None)):
    """(op nodes, leaves) of one `full` loss_batch on the contract batch's rows."""
    panel, graph, batch = contract_batch
    model, packed = full_contract_model(panel, graph)
    loss, _ = model.loss_batch(packed, batch[batch_rows])
    nodes = tape_nodes(loss)
    ops = [node for node in nodes if node._backward is not None]
    assert len(nodes) - len(ops) == len(model.params)  # every parameter is a leaf
    return ops


def test_full_loss_tape_size(contract_batch):
    """One `full` loss_batch on the contract batch, whose 960 window rows
    come from a calendar slab of fewer rows, so the stages read it through
    the window index: 40 op nodes, and every parameter is a leaf.

    The time reduction of both branches is one node. As two chains of 7
    generic ops plus a concat it made the tape 14 nodes longer, so a change
    to this count should be a deliberate one. The GAT reads the raw
    indicator rows through the fold the indicator encoder uses, built once
    per forward; folding again inside the GAT would add 13 nodes. Stage 1
    reads raw indicator rows through the same fold as one r x d map, which
    costs three nodes (the map [W; c], F P and F W_b) and saves the gather
    of encoded indicator rows that the d-wide query needed: 38 -> 40. The
    time reduction reads the indicator branch as the same rows through the
    same map node, so the encoder's d-wide affine node is gone: 40 -> 39.
    The GAT's first layer reads the same rows [ind, 1] through that map
    too, folded into its weight as one tape matmul F W_1, where it had kept
    (W, c) off the tape in a hand-written gradient: 39 -> 40.
    """
    assert len(full_loss_ops(contract_batch)) == 40


def test_full_loss_tape_size_of_gathered_windows(contract_batch):
    """4 windows (40 rows from a slab of at least 120) are gathered first:
    one gather node more per key/value modality than the source-row form,
    so 42 (41 before the GAT folded the map into its first weight, 42
    before the time reduction read the indicator rows through the shared
    map, 40 before stage 1 read the lifted query, for the reasons above)."""
    assert len(full_loss_ops(contract_batch, slice(4))) == 42


def traced_full_loss(contract_batch, batch_rows=slice(None)) -> Tracer:
    """Spans of one `full` loss_batch and its backward under the benchmark's tracer."""
    panel, graph, batch = contract_batch
    model, packed = full_contract_model(panel, graph)
    tracer = Tracer()
    with instrumented(tracer):
        loss, _ = model.loss_batch(packed, batch[batch_rows])
        loss.backward()
    return tracer


def test_traced_loss_batch_records_reduce_time_spans(contract_batch):
    """The benchmark's tracer times `model.block_reduce_time` by that name and
    charges its backward through `autodiff.node`, so both spans appear once."""
    tracer = traced_full_loss(contract_batch)
    names = [span.name for span in tracer.spans]
    assert names.count("predictor.reduce_time") == 1
    assert names.count("predictor.reduce_time.bwd") == 1
    recorded = sum(c.value for c in tracer.counts if c.name == "autodiff.tape_nodes")
    assert recorded == 40  # as test_full_loss_tape_size counts, for the reason given there


@pytest.mark.parametrize("gathered", [False, True], ids=["source rows", "gathered"])
def test_traced_loss_batch_records_indicator_and_gather_spans(contract_batch, gathered):
    """The indicator encoder runs once per forward, on the slab's raw rows,
    and its one node is the map [W; c] that the stage query and the time
    reduction share, so `encoders.indicators` and its backward each appear
    once. Gathered windows still go through `autodiff.gather_rows`
    (the document and graph rows), forward and backward, so the benchmark's
    per-step gather metrics stay above 0."""
    tracer = traced_full_loss(contract_batch, slice(4) if gathered else slice(None))
    names = [span.name for span in tracer.spans]
    assert names.count("encoders.indicators") == 1
    assert names.count("encoders.indicators.bwd") == 1
    if gathered:
        assert names.count("autodiff.gather_rows") == 2
        assert names.count("autodiff.gather_rows.bwd") == 2


def test_traced_loss_batch_records_gat_spans(contract_batch):
    """The tracer replaces `model.block_gat_encode` with a wrapper that takes
    (features, neighbours, params) positionally and reads the date count
    from the features' rows. The model calls it so: one span, and two
    backward spans, for the GAT's single layer node and the matmul F W_1
    that folds the indicator map into its weight; the indicator fold and
    the map F are built outside it."""
    tracer = traced_full_loss(contract_batch)
    names = [span.name for span in tracer.spans]
    assert names.count("encoders.gat") == 1
    assert names.count("encoders.gat.bwd") == 2
    panel, graph, batch = contract_batch
    starts = batch.start
    dates = int(starts.max()) + 10 - int(starts.min())  # ws = 10
    edges = sum(c.value for c in tracer.counts if c.name == "encoders.gat.edges")
    assert edges == 2 * dates * np.count_nonzero(graph.neighbor_mask(panel.symbols))
