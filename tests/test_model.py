import numpy as np
import numpy.testing as npt
import pytest

from stockfuse.autodiff import grad_check
from stockfuse.config import VARIANTS, TrainConfig
from stockfuse.data import build_dataset
from stockfuse.model import PackedPanel, TrimodalModel
from stockfuse.predictor import cross_entropy_loss
from stockfuse.synth import synth_dataset


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
        single = model.forward_sample(packed, int(s), int(t0)).values
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


def test_initial_logits_vary_across_windows_for_seeds_0_to_99():
    packed, batch = tiny_batch(16)
    constant = []
    for seed in range(100):
        model = TrimodalModel(TrainConfig(seed=seed), doc_dim=64)
        logits = model.forward_batch(
            packed, [s.stock_index for s in batch], [s.start for s in batch]
        ).values
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
