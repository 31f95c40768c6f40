import re

import numpy as np
import numpy.testing as npt
import pytest

from stockfuse.autodiff import grad_check
from stockfuse.config import VARIANTS, TrainConfig
from stockfuse.data import build_dataset
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
    assert grad_check(loss, params, eps=1e-6) < 1e-8
    with_grad = {p.name for p in params if p.tensor.grad is not None and np.any(p.tensor.grad)}
    assert with_grad == set(model.params.names())  # ind.*, gat.* and all the rest


def test_multi_head_weights_are_the_per_head_draws_side_by_side():
    """Each projection holds the heads' glorot draws, taken in head order (per
    head q, k, v for fusion; w, a for GAT) and concatenated by columns, and
    every other weight is drawn in between as before: the initial model is
    the one that stored every head as its own parameters."""
    cfg = TrainConfig(d=4, ws=4, heads=2, head_dim=3, gat_heads=2, gat_layers=2, seed=7)
    model = TrimodalModel(cfg, doc_dim=5)
    rng = np.random.default_rng(cfg.seed)
    d, dt = cfg.d, cfg.dtype

    def draw(*shapes):
        return [glorot(rng, shape, dt) for shape in shapes]

    def side_by_side(n_heads, *shapes):
        per_head = [draw(*shapes) for _ in range(n_heads)]
        return [np.concatenate(blocks, axis=1) for blocks in zip(*per_head)]

    want = dict(zip(["ind.close.w", "ind.open.w", "ind.high.w", "ind.mix.w", "doc.w"],
                    draw((1, d), (1, d), (1, d), (3 * d, d), (5, d))))
    for li in range(cfg.gat_layers):
        want[f"gat.l{li}.w"], want[f"gat.l{li}.a"] = side_by_side(2, (d, d), (2 * d, 1))
    for si in (1, 2):
        qkv = side_by_side(2, (d, 3), (d, 3), (d, 3))
        want.update(zip([f"fuse{si}.wq", f"fuse{si}.wk", f"fuse{si}.wv"], qkv))
        want[f"fuse{si}.gate.wa"], want[f"fuse{si}.gate.wb"] = draw((6, d), (d, d))
    want["pred.time.l0.w"], = draw((4, 2))
    for name, values in want.items():
        npt.assert_array_equal(model.params[name].values, values, err_msg=name)
    assert model.params["gat.l1.w"].values.shape == (4, 8)
    assert model.params["gat.l1.a"].values.shape == (8, 2)
    assert model.params["fuse2.wv"].values.shape == (4, 6)
    assert not [name for name in model.params.names() if re.search(r"\.h\d+\.", name)]


def test_default_model_parameter_count():
    params = TrimodalModel(TrainConfig(), doc_dim=64).params
    assert len(params) == 38
    assert sum(p.values.size for p in params) == 110_034


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
