import numpy as np
import numpy.testing as npt
import pytest

from stockfuse import autodiff as ad
from stockfuse.autodiff import Parameter, Tensor
from stockfuse.errors import ShapeError
from stockfuse.predictor import (
    PredictorParams,
    aggregate_features,
    block_reduce_time,
    cross_entropy_loss,
    feature_mlp_widths,
    time_mlp_widths,
)
from stockfuse.training import adam_step

import reference as ref


def P(name, values):
    return Parameter(name, Tensor(np.asarray(values, dtype=np.float64), requires_grad=True))


def make_params(t, d, rng=None, zero_bias=False):
    rng = rng or np.random.default_rng(0)
    time_layers, feat_layers = [], []
    t_in = t
    for i, t_out in enumerate(time_mlp_widths(t)):
        w = rng.normal(size=(t_in, t_out)) * 0.5
        b = np.zeros((1, t_out)) if zero_bias else rng.normal(size=(1, t_out)) * 0.1
        time_layers.append((P(f"tw{i}", w), P(f"tb{i}", b)))
        t_in = t_out
    f_in = 2 * d
    for i, f_out in enumerate(feature_mlp_widths(d)):
        w = rng.normal(size=(f_in, f_out)) * 0.5
        b = np.zeros((1, f_out)) if zero_bias else rng.normal(size=(1, f_out)) * 0.1
        feat_layers.append((P(f"fw{i}", w), P(f"fb{i}", b)))
        f_in = f_out
    return PredictorParams(time_layers=time_layers, feat_layers=feat_layers)


def test_width_schedules():
    assert time_mlp_widths(20) == (10, 5, 1)
    assert time_mlp_widths(4) == (2, 1, 1)
    assert feature_mlp_widths(64) == (64, 32, 3)
    assert feature_mlp_widths(3) == (3, 2, 3)


def test_width_clamp_warns(caplog):
    import logging

    with caplog.at_level(logging.WARNING):
        assert time_mlp_widths(2) == (1, 1, 1)
    assert "clamp" in caplog.text


def both_branches(fused, ind, params, t):
    """The time reduction of both branches side by side, B x 2d, with the
    indicator branch given as d-wide constant rows read through the identity."""
    return block_reduce_time(fused, ind, Tensor(np.eye(ind.cols)), params, t)


class TestAggregateTime:
    def test_zero_inputs_zero_biases(self):
        params = make_params(6, 3, zero_bias=True)
        h = both_branches(Tensor(np.zeros((12, 3))), Tensor(np.zeros((12, 3))), params, 6)
        npt.assert_array_equal(h.values, np.zeros((2, 6)))

    def test_hand_oracle_t4_d1(self):
        # widths 4 -> 2 -> 1 -> 1
        params = PredictorParams(
            time_layers=[
                (P("w1", [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.5]]), P("b1", [[0.1, -0.2]])),
                (P("w2", [[2.0], [-1.0]]), P("b2", [[0.3]])),
                (P("w3", [[1.5]]), P("b3", [[-0.05]])),
            ],
            feat_layers=[],
        )
        x = np.array([[0.5], [-1.0], [2.0], [0.25]])  # t=4, d=1
        v = x.T  # 1 x 4
        h1 = np.maximum(v @ params.time_layers[0][0].values + [[0.1, -0.2]], 0)
        h2 = np.maximum(h1 @ params.time_layers[1][0].values + [[0.3]], 0)
        h3 = np.maximum(h2 @ params.time_layers[2][0].values + [[-0.05]], 0)
        out = both_branches(Tensor(x), Tensor(np.zeros((4, 1))), params, 4)
        npt.assert_allclose(out.values[0, 0], h3[0, 0], atol=1e-12)

    def test_last_time_layer_is_linear(self):
        # inputs and weights make the last pre-activation negative; a ReLU
        # there would output 0 and pass no gradient back
        params = PredictorParams(
            time_layers=[
                (P("w1", [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.5]]), P("b1", [[0.0, 0.0]])),
                (P("w2", [[0.5], [0.5]]), P("b2", [[0.0]])),
                (P("w3", [[-2.0]]), P("b3", [[0.0]])),
            ],
            feat_layers=[],
        )
        x = Tensor(np.array([[1.0], [2.0], [0.0], [2.0]]), requires_grad=True)
        out = both_branches(x, Tensor(np.zeros((4, 1))), params, 4)
        npt.assert_allclose(out.values, [[-4.0, 0.0]], atol=1e-15)
        ad.sum_all(out).backward()
        npt.assert_allclose(params.time_layers[2][0].tensor.grad, [[2.0]], atol=1e-15)
        assert np.all(x.grad != 0)
        per_window = ref.aggregate_time(Tensor(x.values), Tensor(np.zeros((4, 1))), params)
        npt.assert_allclose(per_window.values, [[-4.0, 0.0]], atol=1e-15)

    def test_swapped_branches_permute_halves(self, rng):
        params = make_params(5, 3, rng)
        a = Tensor(rng.normal(size=(5, 3)))
        b = Tensor(rng.normal(size=(5, 3)))
        h_ab = ref.aggregate_time(a, b, params).values
        h_ba = ref.aggregate_time(b, a, params).values
        npt.assert_allclose(h_ab[:, :3], h_ba[:, 3:], atol=1e-14)
        npt.assert_allclose(h_ab[:, 3:], h_ba[:, :3], atol=1e-14)

    def test_window_length_checked(self, rng):
        params = make_params(5, 3, rng)
        x = Tensor(np.zeros((6, 3)))
        with pytest.raises(ShapeError):
            both_branches(x, x, params, 6)

    def test_rows_not_whole_windows(self, rng):
        params = make_params(5, 3, rng)
        x = Tensor(np.zeros((12, 3)))
        with pytest.raises(ShapeError, match="12 rows"):
            both_branches(x, x, params, 5)

    def test_branch_shapes_must_agree(self, rng):
        params = make_params(5, 3, rng)
        fused = Tensor(np.zeros((10, 3)))
        for z, f in (((10, 2), (3, 3)), ((5, 4), (4, 3)), ((10, 4), (4, 2)), ((10, 4), (3, 3))):
            with pytest.raises(ShapeError, match="differ"):
                block_reduce_time(fused, Tensor(np.zeros(z)), Tensor(np.zeros(f)), params, 5)
        block_reduce_time(fused, Tensor(np.zeros((10, 4))), Tensor(np.zeros((4, 3))), params, 5)

    def test_constant_zero_branch_gets_no_gradient(self, rng):
        """The indicator branch of `drop_indicators` is one zero column read
        through a constant zero map: the map gets no gradient, and the time
        weights still get the zero branch's share, as in the per-window
        reference fed d-wide zeros."""
        t, d, B = 5, 3, 4
        params = make_params(t, d, rng)
        time_params = [p for pair in params.time_layers for p in pair]
        fused = P("fused", rng.normal(size=(B * t, d)))
        zero_map = Tensor(np.zeros((1, d)))
        zero_rows = Tensor(np.zeros((B * t, 1)))
        out = block_reduce_time(fused.tensor, zero_rows, zero_map, params, t)
        ad.sum_all(out).backward()
        assert zero_map.grad is None
        got = [p.tensor.grad.copy() for p in (fused, *time_params)]
        for p in (fused, *time_params):
            p.zero_grad()
        for b in range(B):
            win = ad.slice_rows(fused.tensor, b * t, (b + 1) * t)
            h = ref.aggregate_time(win, Tensor(np.zeros((t, d))), params)
            npt.assert_allclose(out.values[b], h.values[0], rtol=0, atol=1e-12)
            ad.sum_all(h).backward()
        for g, p in zip(got, (fused, *time_params)):
            npt.assert_allclose(g, p.tensor.grad, rtol=0, atol=1e-12)

    def test_zero_map_branch_equals_d_wide_zero_rows(self, rng):
        """`drop_indicators`' r = 1 zero rows through a zero 1 x d map give
        the output and the bias and weight gradients of d-wide zero rows,
        bit for bit."""
        t, d, B = 20, 4, 3
        params = make_params(t, d, rng)
        time_params = [p for pair in params.time_layers for p in pair]
        fused = Tensor(rng.normal(size=(B * t, d)))
        upstream = Tensor(rng.normal(size=(B, 2 * d)))
        runs = []
        forms = ((np.zeros((B * t, 1)), np.zeros((1, d))), (np.zeros((B * t, d)), np.eye(d)))
        for z, f in forms:
            for p in time_params:
                p.zero_grad()
            out = block_reduce_time(fused, Tensor(z), Tensor(f), params, t)
            ad.sum_all(ad.mul(out, upstream)).backward()
            runs.append([out.values] + [p.tensor.grad.copy() for p in time_params])
        assert all(np.any(g) for g in runs[0][2::2])  # every bias gets a gradient
        for got, want in zip(*runs):
            npt.assert_array_equal(got, want)

    def test_grad_check_through_the_map(self, rng):
        """Finite differences over the map F, the fused rows and every time
        and feature parameter."""
        t, d, r, B = 5, 3, 4, 2
        params = make_params(t, d, rng)
        fused = Tensor(rng.normal(size=(B * t, d)), requires_grad=True)
        z = Tensor(rng.normal(size=(B * t, r)))
        f_map = P("F", rng.normal(size=(r, d)))

        def f():
            h = block_reduce_time(fused, z, f_map.tensor, params, t)
            return cross_entropy_loss(aggregate_features(h, params), [0, 2])

        extras = [f_map, Parameter("fused_in", fused)]
        assert ref.grad_check(f, ref.params_of(params) + extras, eps=1e-6) < 1e-6
        assert np.any(f_map.tensor.grad)

    def test_float32_stays_float32(self, rng):
        t, d, B = 20, 4, 3
        params = make_params(t, d, rng)
        for p in ref.params_of(params):
            p.tensor.values = p.values.astype(np.float32)
        fused = Tensor(rng.normal(size=(B * t, d)).astype(np.float32), requires_grad=True)
        z = Tensor(rng.normal(size=(B * t, 4)).astype(np.float32))
        f_map = Tensor(rng.normal(size=(4, d)).astype(np.float32), requires_grad=True)
        out = block_reduce_time(fused, z, f_map, params, t)
        assert out.values.dtype == np.float32
        ad.sum_all(ad.mul(out, out)).backward()
        for x in (fused, f_map, *(p.tensor for pair in params.time_layers for p in pair)):
            assert x.grad is not None and x.grad.dtype == np.float32


class TestAggregateFeatures:
    def test_zero_input_uniform_softmax(self):
        params = make_params(4, 2, zero_bias=True)
        logits = aggregate_features(Tensor(np.zeros((1, 4))), params)
        npt.assert_array_equal(logits.values, np.zeros((1, 3)))
        soft = np.exp(ad.log_softmax_rows(logits).values)
        npt.assert_allclose(soft, np.full((1, 3), 1 / 3), atol=1e-15)

    def test_hand_oracle_d2(self, rng):
        params = make_params(4, 2, rng)
        h = rng.normal(size=(1, 4))
        x = np.maximum(h @ params.feat_layers[0][0].values + params.feat_layers[0][1].values, 0)
        x = np.maximum(x @ params.feat_layers[1][0].values + params.feat_layers[1][1].values, 0)
        expected = x @ params.feat_layers[2][0].values + params.feat_layers[2][1].values
        out = aggregate_features(Tensor(h), params)
        npt.assert_allclose(out.values, expected, atol=1e-13)


class TestCrossEntropy:
    def test_confident_correct(self):
        loss = cross_entropy_loss(Tensor([[10.0, -10.0, -10.0]]), [0])
        assert loss.item() < 1e-4

    def test_uniform_logits_ln3(self):
        loss = cross_entropy_loss(Tensor(np.zeros((4, 3))), [0, 1, 2, 0])
        npt.assert_allclose(loss.item(), np.log(3.0), atol=1e-12)

    def test_per_sample_oracle(self, rng):
        logits = rng.normal(size=(5, 3)) * 3
        labels = rng.integers(0, 3, size=5)
        expected = 0.0
        for i in range(5):
            p = np.exp(logits[i] - logits[i].max())
            p /= p.sum()
            expected -= np.log(p[labels[i]])
        expected /= 5
        loss = cross_entropy_loss(Tensor(logits), labels)
        npt.assert_allclose(loss.item(), expected, atol=1e-10)

    def test_loss_strictly_positive(self, rng):
        logits = rng.normal(size=(3, 3)) * 5
        labels = rng.integers(0, 3, size=3)
        assert cross_entropy_loss(Tensor(logits), labels).item() > 0

    def test_softmax_is_probability_vector(self, rng):
        soft = np.exp(ad.log_softmax_rows(Tensor(rng.normal(size=(8, 3)) * 10)).values)
        npt.assert_allclose(soft.sum(axis=1), 1.0, atol=1e-6)

    def test_label_validation(self):
        with pytest.raises(ShapeError):
            cross_entropy_loss(Tensor(np.zeros((2, 3))), [0, 3])

    def test_gradients(self, rng):
        params = make_params(4, 2, rng)
        fused = Tensor(rng.normal(size=(4, 2)))
        ind = Tensor(rng.normal(size=(4, 2)))
        labels = [1]

        def f():
            h = both_branches(fused, ind, params, 4)
            return cross_entropy_loss(aggregate_features(h, params), labels)

        assert ref.grad_check(f, ref.params_of(params), eps=1e-5) < 1e-4


def test_block_reduce_time_matches_per_window(rng):
    """Both branches, the fused rows' and the map's gradients and all six
    time-parameter gradients, against the per-window reference fed the
    indicator branch's d-wide rows Z F.

    t = 5 and 20 give uneven ceil widths; t = 2 and 3 the clamped ones; the
    map is r = 1, 4 (wider than d) and 3 (as wide) rows.
    """
    for t in (2, 3, 4, 5, 20):
        for r in (1, 3, 4):
            check_block_reduce_time(rng, t, r)


def check_block_reduce_time(rng, t, r):
    d, B = 3, 4
    params = make_params(t, d, rng)
    time_params = [p for pair in params.time_layers for p in pair]
    fused = P("fused", rng.normal(size=(B * t, d)))
    z = rng.normal(size=(B * t, r))
    f_map = P("F", rng.normal(size=(r, d)))
    upstream = rng.normal(size=(B, 2 * d))

    def grads():
        return [p.tensor.grad.copy() for p in (fused, f_map, *time_params)]

    batched = block_reduce_time(fused.tensor, Tensor(z), f_map.tensor, params, t)
    assert batched.shape == (B, 2 * d)
    ad.sum_all(ad.mul(batched, Tensor(upstream))).backward()
    got = grads()
    for p in (fused, f_map, *time_params):
        p.zero_grad()
    for b in range(B):  # the per-window references accumulate over the windows
        lo, hi = b * t, (b + 1) * t
        ind = ad.matmul(Tensor(z[lo:hi]), f_map.tensor)  # the d-wide rows Z F
        h = ref.aggregate_time(ad.slice_rows(fused.tensor, lo, hi), ind, params)
        npt.assert_allclose(batched.values[b], h.values[0], rtol=0, atol=1e-12)
        ad.sum_all(ad.mul(h, Tensor(upstream[b : b + 1]))).backward()
    assert len(got) == 8
    for g, want in zip(got, grads()):
        npt.assert_allclose(g, want, rtol=0, atol=1e-12)


def test_loss_decreases_over_ten_steps():
    """Ten Adam steps at lr 1e-3 cut the loss on a fixed tiny batch (>= 4/5 seeds)."""
    wins = 0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        params = make_params(4, 3, rng)
        fused = rng.normal(size=(4 * 6, 3))
        ind = rng.normal(size=(4 * 6, 3))
        labels = rng.integers(0, 3, size=6)

        def loss_fn():
            h = both_branches(Tensor(fused), Tensor(ind), params, 4)
            return cross_entropy_loss(aggregate_features(h, params), labels)

        first = loss_fn().item()
        for step in range(1, 11):
            for p in ref.params_of(params):
                p.zero_grad()
            loss = loss_fn()
            loss.backward()
            adam_step(ref.params_of(params), 1e-3, step)
        wins += loss_fn().item() < first
    assert wins >= 4
