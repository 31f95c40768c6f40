import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from stockfuse import autodiff as ad
from stockfuse import fusion
from stockfuse.autodiff import Parameter, Tensor
from stockfuse.errors import ShapeError
from stockfuse.fusion import (
    CrossAttnParams,
    FusionStageParams,
    GateParams,
    block_cross_attention,
    block_unstable,
)

import reference as ref


def P(name, values):
    return Parameter(name, Tensor(np.asarray(values, dtype=np.float64), requires_grad=True))


def make_attn(d, heads=2, head_dim=None, rng=None, scale=1.0):
    """Per-head (q, k, v) draws in head order, each projection stored d x heads*head_dim."""
    rng = rng or np.random.default_rng(0)
    k = head_dim or d
    draws = [[rng.normal(size=(d, k)) * scale for _ in range(3)] for _ in range(heads)]
    wq, wk, wv = (np.concatenate(blocks, axis=1) for blocks in zip(*draws))
    return CrossAttnParams(P("wq", wq), P("wk", wk), P("wv", wv), n_heads=heads)


def make_gate(d, heads=2, head_dim=None, rng=None):
    rng = rng or np.random.default_rng(1)
    k = head_dim or d
    return GateParams(
        w_a=P("wa", rng.normal(size=(heads * k, d)) * 0.3),
        b_a=P("ba", rng.normal(size=(1, d)) * 0.1),
        w_b=P("wb", rng.normal(size=(d, d)) * 0.3),
        b_b=P("bb", rng.normal(size=(1, d)) * 0.1),
    )


def make_stage(d, heads=2, rng=None, head_dim=None, glu=False, gated=True):
    """Stage weights of width d' = heads * head_dim, holding what its mode
    reads: with `glu` a glu map in place of the attention, and without
    `gated` no gate w_b, b_b (ca_fusion). Every weight is drawn either way."""
    rng = rng or np.random.default_rng(2)
    stage = FusionStageParams(
        attn=make_attn(d, heads, head_dim=head_dim, rng=rng),
        gate=make_gate(d, heads, head_dim=head_dim, rng=rng),
    )
    if glu:
        stage.glu = P("glu", rng.normal(size=(d, stage.attn.out_dim)) * 0.5)
        stage.attn = None
    return stage if gated else ungated(stage)


def ungated(stage):
    """The stage without its gate's w_b and b_b: the ca_fusion form."""
    return dataclasses.replace(stage, gate=dataclasses.replace(stage.gate, w_b=None, b_b=None))


def loop_attention_oracle(query, kv, params):
    """Forms each head's scores, averages, softmaxes once, applies, concatenates.

    Head h is the column block h*dh .. (h+1)*dh of each stored projection.
    """
    m = params.n_heads
    d_prime = params.out_dim
    dh = d_prime // m
    t = query.shape[0]
    total = np.zeros((t, kv.shape[0]))
    values = []
    for h in range(m):
        cols = slice(h * dh, (h + 1) * dh)
        q = query @ params.wq.values[:, cols]
        k = kv @ params.wk.values[:, cols]
        values.append(kv @ params.wv.values[:, cols])
        total += (q @ k.T) / np.sqrt(d_prime)
    total /= m
    shifted = total - total.max(axis=1, keepdims=True)
    attn = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    return np.concatenate([attn @ v for v in values], axis=1)


def stable_and_ungated(stage, q, kv, block):
    """The block stage op's gated output and its ungated output h_a, as values."""
    stable, _, _ = block_cross_attention(q, kv, stage, block)
    h_a, _, _ = block_cross_attention(q, kv, ungated(stage), block)
    return stable.values, h_a.values


class TestCrossAttention:
    def test_single_step_softmax(self, rng):
        stage = make_stage(3, heads=2, rng=rng)
        query = Tensor(rng.normal(size=(1, 3)))
        kv = Tensor(rng.normal(size=(1, 3)))
        _, _, attn = block_cross_attention(query, kv, stage, block=1)
        npt.assert_allclose(attn, [[[1.0]]])
        expected = kv.values @ stage.attn.wv.values
        npt.assert_allclose(block_unstable(kv, stage, attn).values, expected, atol=1e-12)

    def test_zero_kv_zero_output(self, rng):
        stage = make_stage(4, rng=rng)
        query, kv = Tensor(rng.normal(size=(5, 4))), Tensor(np.zeros((5, 4)))
        _, _, attn = block_cross_attention(query, kv, stage, block=5)
        npt.assert_array_equal(block_unstable(kv, stage, attn).values, np.zeros((5, 8)))

    def test_loop_oracle(self, rng):
        stage = make_stage(2, heads=2, rng=rng)
        query = rng.normal(size=(3, 2))
        kv = Tensor(rng.normal(size=(3, 2)))
        _, _, attn = block_cross_attention(Tensor(query), kv, stage, block=3)
        out = block_unstable(kv, stage, attn)
        assert out.shape == (3, 4)
        npt.assert_allclose(
            out.values, loop_attention_oracle(query, kv.values, stage.attn), atol=1e-10
        )

    def test_attention_rows_sum_to_one(self, rng):
        stage = make_stage(6, heads=3, rng=rng)
        query, kv = (Tensor(rng.normal(size=(7, 6)) * 5) for _ in range(2))
        _, _, attn = block_cross_attention(query, kv, stage, block=7)
        npt.assert_allclose(attn.sum(axis=2), 1.0, atol=1e-6)

    def test_shape_mismatch(self, rng):
        stage = make_stage(4, rng=rng)
        query = Tensor(np.zeros((3, 4)))
        with pytest.raises(ShapeError):
            block_cross_attention(query, Tensor(np.zeros((4, 4))), stage, block=1)


class TestGatedSelection:
    def test_closed_gate(self, rng):
        stage = make_stage(3, rng=rng)
        stage.gate.w_b.tensor.values = np.zeros((3, 3))  # the gate reads the query: cut it off
        stage.gate.b_b.tensor.values = np.full((1, 3), -40.0)  # every gate strongly shut
        q, kv = (Tensor(rng.normal(size=(4, 3))) for _ in range(2))
        stable, h_a = stable_and_ungated(stage, q, kv, 4)
        assert np.linalg.norm(stable) < 1e-6 * np.linalg.norm(h_a)

    def test_neutral_gate(self, rng):
        stage = make_stage(3, rng=rng)
        stage.gate.w_b.tensor.values = np.zeros((3, 3))
        stage.gate.b_b.tensor.values = np.zeros((1, 3))
        q, kv = (Tensor(rng.normal(size=(4, 3))) for _ in range(2))
        stable, h_a = stable_and_ungated(stage, q, kv, 4)
        npt.assert_allclose(stable, h_a / 2.0, atol=1e-12)

    def test_elementwise_oracle(self, rng):
        stage = make_stage(5, rng=rng)
        q, kv = (Tensor(rng.normal(size=(3, 5))) for _ in range(2))
        stable, h_a = stable_and_ungated(stage, q, kv, 3)
        h_b = 1.0 / (1.0 + np.exp(-(q.values @ stage.gate.w_b.values + stage.gate.b_b.values)))
        expected = np.empty_like(h_a)
        for i in range(3):
            for j in range(5):
                expected[i, j] = h_a[i, j] * h_b[i, j]
        npt.assert_allclose(stable, expected, atol=1e-12)


class TestFuseStage:
    def test_gate_values_strictly_inside_unit_interval(self, rng):
        stage = make_stage(4, rng=rng)
        q, kv = (Tensor(rng.normal(size=(6, 4)) * 10) for _ in range(2))
        _, gate, _ = block_cross_attention(q, kv, stage, block=6)
        assert np.all(gate.values > 0.0)
        assert np.all(gate.values < 1.0)

    def test_gate_monotonicity(self, rng):
        stage = make_stage(3, rng=rng)
        guide = Tensor(rng.normal(size=(2, 3)))
        _, gate1, _ = block_cross_attention(guide, Tensor(rng.normal(size=(2, 3))), stage, block=2)
        # increase one guide pre-activation coordinate via the bias
        stage.gate.b_b.tensor.values = stage.gate.b_b.values + np.array([[0.7, 0.0, 0.0]])
        _, gate2, _ = block_cross_attention(guide, Tensor(rng.normal(size=(2, 3))), stage, block=2)
        assert np.all(gate2.values[:, 0] > gate1.values[:, 0])

    def test_saturated_gate_passes_h_a(self, rng):
        stage = make_stage(3, rng=rng)
        stage.gate.w_b.tensor.values = np.zeros((3, 3))
        stage.gate.b_b.tensor.values = np.full((1, 3), 50.0)
        q, kv = (Tensor(rng.normal(size=(4, 3))) for _ in range(2))
        stable, h_a = stable_and_ungated(stage, q, kv, 4)
        npt.assert_allclose(stable, h_a, atol=1e-4)


class TestTrimodal:
    """The reference variant wiring, on which every batched-vs-per-window pin rests."""

    def test_zero_modalities_degenerate(self, rng):
        d = 3
        s1, s2 = make_stage(d, rng=rng), make_stage(d, rng=rng)
        v_i = Tensor(rng.normal(size=(5, d)), requires_grad=True)
        zeros = Tensor(np.zeros((5, d)))
        fused, _ = ref.fuse_trimodal(v_i, zeros, zeros, s1, s2)
        assert np.all(np.isfinite(fused.values))
        ad.sum_all(ad.mul(fused, fused)).backward()
        assert v_i.grad is not None and np.abs(v_i.grad).sum() > 0

    def test_stage2_kv_swap_changes_output(self, rng):
        d = 4
        s1, s2 = make_stage(d, rng=rng), make_stage(d, rng=rng)
        v_i = Tensor(rng.normal(size=(6, d)))
        v_d = Tensor(rng.normal(size=(6, d)))
        v_g = Tensor(rng.normal(size=(6, d)))
        out_a = ref.fuse_trimodal(v_i, v_d, v_g, s1, s2)[0].values
        out_b = ref.fuse_trimodal(v_i, v_g, v_d, s1, s2)[0].values
        assert np.abs(out_a - out_b).max() > 1e-6

    def test_chain_gradient_check(self, rng):
        d, t = 3, 4
        s1, s2 = make_stage(d, rng=rng), make_stage(d, rng=rng)
        v_i = Tensor(rng.normal(size=(t, d)))
        v_d = Tensor(rng.normal(size=(t, d)))
        v_g = Tensor(rng.normal(size=(t, d)))

        def f():
            fused, _ = ref.fuse_trimodal(v_i, v_d, v_g, s1, s2)
            return ad.sum_all(ad.mul(fused, fused))

        assert ref.grad_check(f, ref.params_of([s1, s2]), eps=1e-5) < 1e-4

    def test_stable_output_chains_to_a_fourth_modality(self, rng):
        d = 3
        s1, s2, s3 = (make_stage(d, rng=rng) for _ in range(3))
        v = [Tensor(rng.normal(size=(5, d))) for _ in range(4)]
        fused, _ = ref.fuse_trimodal(v[0], v[1], v[2], s1, s2)
        _, chained, _ = ref.fuse_stage(fused, v[3], s3)
        assert chained.shape == (5, d)

    def test_shape_contract_over_ranges(self, rng):
        for t, d in ((2, 2), (5, 3), (9, 6)):
            s1, s2 = make_stage(d, rng=rng), make_stage(d, rng=rng)
            fused, stages = ref.fuse_trimodal(
                Tensor(rng.normal(size=(t, d))),
                Tensor(rng.normal(size=(t, d))),
                Tensor(rng.normal(size=(t, d))),
                s1, s2,
            )
            assert stages["stage1"][1].shape == (t, d)
            assert fused.shape == (t, d)
            assert stages["stage1"][0].shape == (t, 2 * d)

    def test_variant_wiring(self, rng):
        d = 3
        rng_local = np.random.default_rng(9)
        s1, s2 = make_stage(d, rng=rng_local), make_stage(d, rng=rng_local)
        v_i = Tensor(rng.normal(size=(4, d)))
        v_d = Tensor(rng.normal(size=(4, d)))
        v_g = Tensor(rng.normal(size=(4, d)))
        # drop_docs: stage 2 alone, with the indicators as its query
        fused, stages = ref.fuse_trimodal(v_i, None, v_g, s1, s2, variant="drop_docs")
        assert list(stages) == ["stage2"]
        npt.assert_array_equal(fused.values, ref.fuse_stage(v_i, v_g, s2)[1].values)
        fused, stages = ref.fuse_trimodal(v_i, v_d, None, s1, s2, variant="drop_graph")
        assert list(stages) == ["stage1"]
        npt.assert_array_equal(fused.values, stages["stage1"][1].values)
        # drop_indicators: stage 1 alone, with the documents as query and kv
        fused, stages = ref.fuse_trimodal(v_i, v_d, None, s1, s2, variant="drop_indicators")
        assert list(stages) == ["stage1"]
        npt.assert_array_equal(fused.values, ref.fuse_stage(v_d, v_d, s1)[1].values)

    def test_ca_variant_ignores_gate(self, rng):
        d = 3
        s1, s2 = make_stage(d, rng=rng), make_stage(d, rng=rng)
        v = [Tensor(rng.normal(size=(4, d))) for _ in range(3)]
        _, stages = ref.fuse_trimodal(*v, s1, s2, variant="ca_fusion")
        unstable, stable, _ = stages["stage1"]
        h_a = unstable.values @ s1.gate.w_a.values + s1.gate.b_a.values
        npt.assert_allclose(stable.values, h_a, atol=1e-12)

    def test_glu_variant_linear_path(self, rng):
        d = 3
        s1 = make_stage(d, rng=rng)
        s2 = make_stage(d, rng=rng)
        s1.glu = P("glu1", rng.normal(size=(d, 2 * d)))
        s2.glu = P("glu2", rng.normal(size=(d, 2 * d)))
        v = [Tensor(rng.normal(size=(4, d))) for _ in range(3)]
        _, stages = ref.fuse_trimodal(*v, s1, s2, variant="glu_fusion")
        npt.assert_allclose(stages["stage1"][0].values, v[1].values @ s1.glu.values, atol=1e-12)


# The batched stage op against the per-window reference. Each mode is
# (variant for the reference stage, whether the stage has a glu map, whether
# it has the gate's w_b and b_b).
MODES = {
    "gated": ("full", False, True),
    "ca": ("ca_fusion", False, False),
    "glu": ("glu_fusion", True, True),
}


def wired_inputs(rng, rows, d, wiring):
    """(query, kv) tensors; "separate" is the stage-2 wiring, "shared" is drop_indicators'."""
    x = Tensor(rng.normal(size=(rows, d)), requires_grad=True)
    if wiring == "shared":
        return x, x
    return x, Tensor(rng.normal(size=(rows, d)), requires_grad=True)


def per_window_stage(query, kv, stage, variant, t):
    """The reference stage on each window slice, re-stacked."""
    n_blocks = kv.rows // t
    return ad.concat_rows([
        ref.fuse_stage(
            *(ad.slice_rows(x, b * t, (b + 1) * t) for x in (query, kv)), stage, variant=variant
        )[1]
        for b in range(n_blocks)
    ])


def run_with_grads(forward, inputs, params, upstream):
    """Output values and the grads of every input and parameter (None if unread)."""
    for p in params:
        p.zero_grad()
    fresh = {}
    tensors = [fresh.setdefault(id(x), Tensor(x.values, requires_grad=True)) for x in inputs]
    out = forward(*tensors)
    ad.sum_all(ad.mul(out, Tensor(upstream))).backward()
    return out.values, [x.grad for x in tensors] + [p.tensor.grad for p in params]


def assert_same_grads(got, want, atol=1e-12):
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert g.shape == w.shape
            npt.assert_allclose(g, w, rtol=0, atol=atol)


class TestBlockCrossAttention:
    """The whole gated stage as one node, against the per-window reference stage."""

    @given(
        st.integers(1, 5), st.integers(1, 6), st.integers(1, 4), st.integers(1, 3),
        st.integers(1, 5), st.sampled_from(sorted(MODES)), st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_per_window_composition(self, n_blocks, t, d, heads, head_dim, mode, seed):
        rng = np.random.default_rng(seed)
        variant, glu, gated = MODES[mode]
        stage = make_stage(d, heads, rng, head_dim=head_dim, glu=glu, gated=gated)
        q, kv = (Tensor(rng.normal(size=(n_blocks * t, d))) for _ in range(2))
        stable, _, _ = block_cross_attention(q, kv, stage, t)
        want = per_window_stage(q, kv, stage, variant, t)
        npt.assert_allclose(stable.values, want.values, rtol=0, atol=1e-10)

    def test_block_gradients(self, rng):
        stage = make_stage(3, rng=rng, head_dim=3)
        q, kv = (Tensor(rng.normal(size=(6, 3)), requires_grad=True) for _ in range(2))
        extras = [Parameter("q_in", q), Parameter("kv_in", kv)]

        def f():
            out, _, _ = block_cross_attention(q, kv, stage, block=3)
            return ad.sum_all(ad.mul(out, out))

        assert ref.grad_check(f, ref.params_of(stage) + extras, eps=1e-5) < 1e-4

    @pytest.mark.parametrize(
        "d,heads,head_dim",
        # d' > d for the first four, then d' = d and d' < d
        [(3, 2, None), (4, 3, 2), (3, 1, 5), (2, 2, 3), (4, 2, 2), (5, 1, 3)],
    )
    def test_gradients_match_per_window_composition(self, d, heads, head_dim):
        """Output and every input and parameter gradient, in each mode and wiring."""
        n_blocks, t = 3, 4
        for mode, (variant, glu, gated) in MODES.items():
            for wiring in ("separate", "shared"):
                rng = np.random.default_rng(d * 100 + heads * 10 + (head_dim or 0))
                stage = make_stage(d, heads, rng, head_dim=head_dim, glu=glu, gated=gated)
                inputs = wired_inputs(rng, n_blocks * t, d, wiring)
                upstream = rng.normal(size=(n_blocks * t, d))
                params = ref.params_of(stage)
                fused_out, fused_grads = run_with_grads(
                    lambda q, kv: block_cross_attention(q, kv, stage, t)[0],
                    inputs, params, upstream,
                )
                ref_out, ref_grads = run_with_grads(
                    lambda q, kv: per_window_stage(q, kv, stage, variant, t),
                    inputs, params, upstream,
                )
                npt.assert_allclose(fused_out, ref_out, rtol=0, atol=1e-12, err_msg=mode)
                assert_same_grads(fused_grads, ref_grads)

    def test_shared_query_and_kv_gradients(self, rng):
        stage = make_stage(3, rng=rng, head_dim=2)
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        extras = [Parameter("x_in", x)]

        def f():  # x is query and kv at once
            out, _, _ = block_cross_attention(x, x, stage, block=3)
            return ad.sum_all(ad.mul(out, out))

        assert ref.grad_check(f, ref.params_of(stage) + extras, eps=1e-5) < 1e-4

    def test_unstable_recomputed_from_attention(self, rng):
        d, t = 3, 4
        for glu in (False, True):
            stage = make_stage(d, rng=rng, head_dim=2, glu=glu)
            q, kv = (Tensor(rng.normal(size=(2 * t, d))) for _ in range(2))
            _, _, attn = block_cross_attention(q, kv, stage, t)
            unstable = block_unstable(kv, stage, attn)
            for b in range(2):
                rows = slice(b * t, (b + 1) * t)
                want, _, _ = ref.fuse_stage(
                    Tensor(q.values[rows]), Tensor(kv.values[rows]),
                    stage, variant="glu_fusion" if glu else "full",
                )
                npt.assert_allclose(unstable.values[rows], want.values, rtol=0, atol=1e-12)
                if not glu:
                    npt.assert_allclose(attn[b].sum(axis=1), 1.0, rtol=0, atol=1e-12)
            assert (attn is None) == glu

    @pytest.mark.parametrize("d,heads,head_dim", [(3, 1, 4), (4, 2, 3), (2, 3, 2), (5, 2, 5)])
    def test_matches_per_head_loop_oracle(self, d, heads, head_dim):
        """Every head sliced from its column block, scored, averaged and applied."""
        rng = np.random.default_rng(d * 100 + heads * 10 + head_dim)
        n_blocks, t = 3, 4
        stage = make_stage(d, heads, rng, head_dim=head_dim)
        q, kv = (Tensor(rng.normal(size=(n_blocks * t, d))) for _ in range(2))
        for gated in (True, False):
            stable, _, _ = block_cross_attention(q, kv, stage if gated else ungated(stage), t)
            for b in range(n_blocks):
                rows = slice(b * t, (b + 1) * t)
                unstable = loop_attention_oracle(q.values[rows], kv.values[rows], stage.attn)
                want = unstable @ stage.gate.w_a.values + stage.gate.b_a.values
                if gated:
                    pre = q.values[rows] @ stage.gate.w_b.values + stage.gate.b_b.values
                    want = want / (1.0 + np.exp(-pre))
                npt.assert_allclose(stable.values[rows], want, rtol=0, atol=1e-12)

    def test_indivisible_rows_rejected(self, rng):
        stage = make_stage(3, rng=rng, head_dim=3)
        x = Tensor(np.zeros((7, 3)))
        with pytest.raises(ShapeError):
            block_cross_attention(x, x, stage, block=3)
        with pytest.raises(ShapeError, match="widths differ"):
            block_cross_attention(Tensor(np.zeros((6, 2))), Tensor(np.zeros((6, 3))), stage, block=3)


class TestBlockGatedSelection:
    """The gate half of the stage op against the gate composed from tape ops."""

    @pytest.mark.parametrize("gated", [True, False])
    def test_matches_composed_ops(self, rng, gated):
        d, t, n_blocks = 4, 3, 3
        stage = make_stage(d, rng=rng, head_dim=d, gated=gated)
        inputs = tuple(
            Tensor(rng.normal(size=(n_blocks * t, d)) * s, requires_grad=True) for s in (1, 1)
        )
        upstream = rng.normal(size=(n_blocks * t, d))
        params = ref.params_of(stage)
        gate_p = stage.gate

        def composed(q, kv):
            unstable = ad.concat_rows([
                ref.cross_attention(ad.slice_rows(q, b * t, (b + 1) * t),
                                    ad.slice_rows(kv, b * t, (b + 1) * t), stage.attn)
                for b in range(n_blocks)
            ])
            h_a = ad.add(ad.matmul(unstable, gate_p.w_a.tensor), gate_p.b_a.tensor)
            if not gated:
                return h_a
            pre = ad.add(ad.matmul(q, gate_p.w_b.tensor), gate_p.b_b.tensor)
            return ad.mul(h_a, ad.sigmoid(pre))

        fused_out, fused_grads = run_with_grads(
            lambda q, kv: block_cross_attention(q, kv, stage, t)[0],
            inputs, params, upstream,
        )
        ref_out, ref_grads = run_with_grads(composed, inputs, params, upstream)
        npt.assert_allclose(fused_out, ref_out, rtol=0, atol=1e-12)
        assert_same_grads(fused_grads, ref_grads)

    def test_gate_values(self, rng):
        stage = make_stage(3, rng=rng, head_dim=3)
        q, kv = (Tensor(rng.normal(size=(6, 3))) for _ in range(2))
        _, gate, _ = block_cross_attention(q, kv, stage, block=3)
        pre = q.values @ stage.gate.w_b.values + stage.gate.b_b.values
        npt.assert_allclose(gate.values, 1.0 / (1.0 + np.exp(-pre)), rtol=0, atol=1e-15)
        assert not gate.requires_grad
        _, none, _ = block_cross_attention(q, kv, ungated(stage), block=3)
        assert none is None
        stage.gate.b_b.tensor.values = np.full((1, 3), -800.0)  # exp underflows: closed exactly
        stable, gate, _ = block_cross_attention(q, kv, stage, block=3)
        npt.assert_array_equal(gate.values, 0.0)
        npt.assert_array_equal(stable.values, 0.0)

    def test_grad_check(self, rng):
        """The glu_fusion form: a linear map of kv, then the gate on the query."""
        stage = make_stage(3, rng=rng, head_dim=2, glu=True)
        q, kv = (Tensor(rng.normal(size=(4, 3)), requires_grad=True) for _ in range(2))
        extras = [Parameter("q_in", q), Parameter("kv_in", kv)]

        def f():
            stable, _, _ = block_cross_attention(q, kv, stage, block=2)
            return ad.sum_all(ad.mul(stable, stable))

        assert ref.grad_check(f, ref.params_of(stage) + extras, eps=1e-5) < 1e-4

    def test_row_mismatch_rejected(self, rng):
        stage = make_stage(3, rng=rng, head_dim=3)
        with pytest.raises(ShapeError):
            block_cross_attention(Tensor(np.zeros((5, 3))), Tensor(np.zeros((4, 3))), stage, block=2)


def window_index(rng, n_source, n_windows, t, repeat=False):
    """A B x t index of windows over a date-major calendar of n_source rows
    (3 stocks), distinct windows unless `repeat`, which doubles window 0."""
    n_stocks = 3
    n_dates = n_source // n_stocks
    starts = rng.integers(0, n_dates - t + 1, size=n_windows)
    stocks = rng.permutation(np.arange(n_windows) % n_stocks)
    idx = (starts[:, None] + np.arange(t)) * n_stocks + stocks[:, None]
    idx = np.unique(idx, axis=0)
    if repeat:
        idx = np.concatenate([idx, idx[:1]])
    assert ad.distinct_columns(idx) != repeat
    return idx


class TestSourceRows:
    """Operands given as source rows plus a window index, against the same
    stage on windows gathered first."""

    @pytest.mark.parametrize("repeat", [False, True])
    @pytest.mark.parametrize("query_form", ["source", "window", "shared"])
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_matches_gathered_windows(self, mode, query_form, repeat):
        """Output, gate, attention, and the gradient of every source row and
        parameter. "window" is stage 2's wiring, "shared" drop_indicators'."""
        _, glu, gated = MODES[mode]
        rng = np.random.default_rng(len(mode) * 10 + len(query_form) + repeat)
        d, t, n_source = 3, 4, 24
        stage = make_stage(d, 2, rng, head_dim=2, glu=glu, gated=gated)
        idx = window_index(rng, n_source, 6, t, repeat)
        rows = idx.size
        kv = Tensor(rng.normal(size=(n_source, d)), requires_grad=True)
        if query_form == "window":
            q, q_idx = Tensor(rng.normal(size=(rows, d)), requires_grad=True), None
        else:
            q = kv if query_form == "shared" else Tensor(rng.normal(size=(n_source, d)),
                                                         requires_grad=True)
            q_idx = idx
        upstream = rng.normal(size=(rows, d))
        params = ref.params_of(stage)
        inputs = (q, kv) if q is not kv else (kv,)

        def from_source(*xs):
            qs, kvs = (xs[0], xs[0]) if len(xs) == 1 else xs
            return block_cross_attention(qs, kvs, stage, t, query_index=q_idx, kv_index=idx)[0]

        def gathered_first(*xs):
            qs, kvs = (xs[0], xs[0]) if len(xs) == 1 else xs
            q_w = qs if q_idx is None else ad.gather_rows(qs, idx)
            return block_cross_attention(q_w, ad.gather_rows(kvs, idx), stage, t)[0]

        got, got_grads = run_with_grads(from_source, inputs, params, upstream)
        want, want_grads = run_with_grads(gathered_first, inputs, params, upstream)
        npt.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert_same_grads(got_grads, want_grads)
        q_w = q.values if q_idx is None else q.values[idx.reshape(-1)]
        _, gate, attn = block_cross_attention(q, kv, stage, t, query_index=q_idx, kv_index=idx)
        _, want_gate, want_attn = block_cross_attention(
            Tensor(q_w), Tensor(kv.values[idx.reshape(-1)]), stage, t
        )
        for a, b in ((gate, want_gate), (attn, want_attn)):
            assert (a is None) == (b is None)
            if a is not None:
                npt.assert_allclose(getattr(a, "values", a), getattr(b, "values", b),
                                    rtol=0, atol=1e-12)
        unstable = block_unstable(kv, stage, attn, idx)
        want_unstable = block_unstable(Tensor(kv.values[idx.reshape(-1)]), stage, attn)
        npt.assert_allclose(unstable.values, want_unstable.values, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("repeat", [False, True])
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_grad_check(self, mode, repeat):
        """Finite differences over the source rows of query and kv and every
        stage parameter."""
        _, glu, gated = MODES[mode]
        rng = np.random.default_rng(7 + repeat)
        stage = make_stage(3, 2, rng, head_dim=2, glu=glu, gated=gated)
        idx = window_index(rng, 15, 4, 3, repeat)
        q, kv = (Tensor(rng.normal(size=(15, 3)), requires_grad=True) for _ in range(2))
        extras = [Parameter("q_in", q), Parameter("kv_in", kv)]

        def f():
            out, _, _ = block_cross_attention(q, kv, stage, 3, query_index=idx, kv_index=idx)
            return ad.sum_all(ad.mul(out, out))

        assert ref.grad_check(f, ref.params_of(stage) + extras, eps=1e-5) < 1e-4

    def test_bad_index_rejected(self, rng):
        stage = make_stage(3, rng=rng, head_dim=3)
        src = Tensor(np.zeros((6, 3)))
        good = np.array([[0, 1], [2, 3]])
        with pytest.raises(ShapeError, match="kv index out of range"):
            block_cross_attention(src, src, stage, 2, query_index=good,
                                  kv_index=np.array([[0, 1], [2, 6]]))
        with pytest.raises(ShapeError, match="query index .* is not 2 windows of 2"):
            block_cross_attention(src, src, stage, 2, query_index=good.reshape(1, 4),
                                  kv_index=good)
        with pytest.raises(ShapeError, match="query has 6 window rows, expected 4"):
            block_cross_attention(src, src, stage, 2, kv_index=good)


QUERY_FORMS = {  # (query index, kv index): stage 1's two forms and stage 2's
    "source": (True, True),
    "window query": (False, True),
    "gathered": (False, False),
}


class TestQueryMap:
    """A query read through an r x d map F, against the unmapped op on z F."""

    @pytest.mark.parametrize("repeat", [False, True])
    @pytest.mark.parametrize("form", sorted(QUERY_FORMS))
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_matches_unmapped_op_on_mapped_rows(self, mode, form, repeat):
        """Output, gate, attention and the gradient of z, kv, F and every stage
        parameter. The query's source rows and index differ from the kv's, so
        a gradient scattered through the wrong index shows."""
        _, glu, gated = MODES[mode]
        rng = np.random.default_rng(len(mode) * 10 + len(form) + repeat)
        d, r, t = 3, 4, 4
        stage = make_stage(d, 2, rng, head_dim=2, glu=glu, gated=gated)
        kv_idx = window_index(rng, 24, 6, t, repeat)
        rows = kv_idx.size
        with_q_idx, with_kv_idx = QUERY_FORMS[form]
        q_idx = rng.permutation(30)[:rows].reshape(kv_idx.shape) if with_q_idx else None
        if repeat and with_q_idx:
            q_idx[-1] = q_idx[0]
        z = Tensor(rng.normal(size=(30 if with_q_idx else rows, r)), requires_grad=True)
        kv = Tensor(rng.normal(size=(24, d)), requires_grad=True)
        if not with_kv_idx:
            kv, kv_idx = Tensor(kv.values[kv_idx.reshape(-1)], requires_grad=True), None
        f_map = P("F", rng.normal(size=(r, d)))
        upstream = rng.normal(size=(rows, d))
        params = ref.params_of(stage) + [f_map]

        def run(mapped):
            kept = {}

            def forward(zs, kvs):
                if mapped:
                    out, *kept["gate, attn"] = block_cross_attention(
                        zs, kvs, stage, t, q_idx, kv_idx, query_map=f_map.tensor)
                else:
                    out, *kept["gate, attn"] = block_cross_attention(
                        ad.matmul(zs, f_map.tensor), kvs, stage, t, q_idx, kv_idx)
                return out

            out, grads = run_with_grads(forward, (z, kv), params, upstream)
            return out, grads, *kept["gate, attn"]

        got, got_grads, gate, attn = run(mapped=True)
        want, want_grads, want_gate, want_attn = run(mapped=False)
        npt.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert_same_grads(got_grads, want_grads)
        assert f_map.tensor.grad is not None
        for a, b in ((gate, want_gate), (attn, want_attn)):
            assert (a is None) == (b is None)
            if a is not None:
                npt.assert_allclose(getattr(a, "values", a), getattr(b, "values", b),
                                    rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_grad_check(self, mode):
        """Finite differences over F, the query rows, the kv source rows and
        every stage parameter, with the query read through its own index."""
        _, glu, gated = MODES[mode]
        rng = np.random.default_rng(17)
        stage = make_stage(3, 2, rng, head_dim=2, glu=glu, gated=gated)
        kv_idx = window_index(rng, 15, 4, 3)
        q_idx = rng.permutation(kv_idx.size).reshape(kv_idx.shape)
        z = Tensor(rng.normal(size=(kv_idx.size, 4)), requires_grad=True)
        kv = Tensor(rng.normal(size=(15, 3)), requires_grad=True)
        f_map = P("F", rng.normal(size=(4, 3)))
        extras = [f_map, Parameter("z_in", z), Parameter("kv_in", kv)]

        def f():
            out, _, _ = block_cross_attention(z, kv, stage, 3, q_idx, kv_idx,
                                              query_map=f_map.tensor)
            return ad.sum_all(ad.mul(out, out))

        assert ref.grad_check(f, ref.params_of(stage) + extras, eps=1e-5) < 1e-4

    def test_map_of_wrong_shape_rejected(self, rng):
        stage = make_stage(3, rng=rng, head_dim=3)
        z, kv = Tensor(np.zeros((4, 4))), Tensor(np.zeros((4, 3)))
        block_cross_attention(z, kv, stage, 2, query_map=Tensor(np.zeros((4, 3))))
        for shape in ((3, 3), (5, 3), (4, 4), (4, 2)):
            with pytest.raises(ShapeError, match="query map"):
                block_cross_attention(z, kv, stage, 2, query_map=Tensor(np.zeros(shape)))
        with pytest.raises(ShapeError, match="widths differ"):
            block_cross_attention(z, kv, stage, 2)


# Tile boundaries: with TILE_ROWS set to TILE windows of T rows, batches of
# 1, TILE - 1, TILE, TILE + 1 and 2 * TILE + 1 windows, against one tile.
T, TILE = 4, 3
TILED_BATCHES = [(1, False)] + [(n, rep) for n in (2, 3, 4, 7) for rep in (False, True)]


def tiled_stage_inputs(rng, n_windows, repeat, query):
    """(query, kv, query_index, kv_index, query_map) of one batch; the query is
    source rows ("source"), window rows ("window"), 4-wide source rows read
    through a map ("mapped"), or window rows with a window-row kv ("gathered").
    With `repeat` the last window repeats the first."""
    d, n_stocks, n_dates = 3, 3, 9
    pick = rng.permutation(n_stocks * (n_dates - T + 1))[:n_windows]
    stocks, starts = pick % n_stocks, pick // n_stocks
    idx = (starts[:, None] + np.arange(T)) * n_stocks + stocks[:, None]
    if repeat:
        idx[-1] = idx[0]
    n_source, rows = n_stocks * n_dates, n_windows * T
    kv = Tensor(rng.normal(size=(n_source, d)), requires_grad=True)
    kv_idx, q_idx, f_map = idx, idx, None
    if query == "mapped":
        q = Tensor(rng.normal(size=(n_source, 4)), requires_grad=True)
        f_map = P("F", rng.normal(size=(4, d)))
    elif query == "source":
        q = Tensor(rng.normal(size=(n_source, d)), requires_grad=True)
    else:
        q, q_idx = Tensor(rng.normal(size=(rows, d)), requires_grad=True), None
        if query == "gathered":
            kv, kv_idx = Tensor(kv.values[idx.reshape(-1)], requires_grad=True), None
    return q, kv, q_idx, kv_idx, f_map


def stage_run(monkeypatch, tile_rows, stage, inputs, upstream):
    """Taped output, gate, attention and gradients, and the output, gate and
    attention of the same call off the tape with `diagnostics`, with
    TILE_ROWS = `tile_rows`. Off the tape without `diagnostics` the output
    is the same and no gate or attention is kept."""
    monkeypatch.setattr(fusion, "TILE_ROWS", tile_rows)
    q, kv, q_idx, kv_idx, f_map = inputs
    params = ref.params_of(stage) + ([f_map] if f_map else [])
    kept = {}

    def forward(qs, kvs):
        out, kept["gate"], kept["attn"] = block_cross_attention(
            qs, kvs, stage, T, q_idx, kv_idx, f_map and f_map.tensor
        )
        return out

    out, grads = run_with_grads(forward, (q, kv), params, upstream)
    with ad.no_grad():
        untaped = block_cross_attention(q, kv, stage, T, q_idx, kv_idx, f_map and f_map.tensor)
        diag = block_cross_attention(q, kv, stage, T, q_idx, kv_idx, f_map and f_map.tensor,
                                     diagnostics=True)
    assert untaped[1:] == (None, None)
    npt.assert_array_equal(untaped[0].values, diag[0].values)
    return [out, kept["gate"], kept["attn"], diag[0].values, *diag[1:]], grads


class TestTiles:
    @pytest.mark.parametrize("n_windows,repeat", TILED_BATCHES)
    @pytest.mark.parametrize("query", ["source", "window", "mapped", "gathered"])
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_tiles_match_one_tile(self, monkeypatch, mode, query, n_windows, repeat):
        """Output, gate and attention, on and off the tape, and every gradient."""
        _, glu, gated = MODES[mode]
        rng = np.random.default_rng(n_windows * 10 + repeat)
        stage = make_stage(3, 2, rng, head_dim=2, glu=glu, gated=gated)
        inputs = tiled_stage_inputs(rng, n_windows, repeat, query)
        upstream = rng.normal(size=(n_windows * T, 3))
        tiled, tiled_grads = stage_run(monkeypatch, TILE * T, stage, inputs, upstream)
        whole, whole_grads = stage_run(monkeypatch, 10**9, stage, inputs, upstream)
        for got, want in zip(tiled, whole):
            assert (got is None) == (want is None)
            if want is not None:
                npt.assert_allclose(getattr(got, "values", got), getattr(want, "values", want),
                                    rtol=0, atol=1e-12)
        assert_same_grads(tiled_grads, whole_grads)

    def test_grad_check_across_a_tile_boundary(self, monkeypatch):
        """Finite differences with 2 * TILE + 1 windows over 3 tiles, a
        repeated window and a mapped query."""
        monkeypatch.setattr(fusion, "TILE_ROWS", TILE * T)
        rng = np.random.default_rng(3)
        stage = make_stage(3, 2, rng, head_dim=2)
        q, kv, q_idx, kv_idx, f_map = tiled_stage_inputs(rng, 2 * TILE + 1, True, "mapped")
        extras = [f_map, Parameter("q_in", q), Parameter("kv_in", kv)]

        def f():
            out, _, _ = block_cross_attention(q, kv, stage, T, q_idx, kv_idx, f_map.tensor)
            return ad.sum_all(ad.mul(out, out))

        assert ref.grad_check(f, ref.params_of(stage) + extras, eps=1e-5) < 1e-4

    @pytest.mark.parametrize("query", ["source", "window", "mapped", "gathered"])
    def test_block_gate_is_the_taped_gate(self, monkeypatch, query):
        """The gate and attention the block op keeps off the tape for diagnostics
        equal those the taped op keeps, over 3 tiles with a repeated window."""
        monkeypatch.setattr(fusion, "TILE_ROWS", TILE * T)
        rng = np.random.default_rng(5)
        stage = make_stage(3, 2, rng, head_dim=2)
        q, kv, q_idx, kv_idx, f_map = tiled_stage_inputs(rng, 2 * TILE + 1, True, query)
        f = f_map and f_map.tensor
        _, gate, attn = block_cross_attention(q, kv, stage, T, q_idx, kv_idx, f)
        with ad.no_grad():
            _, kept_gate, kept_attn = block_cross_attention(q, kv, stage, T, q_idx, kv_idx, f,
                                                            diagnostics=True)
        npt.assert_array_equal(kept_gate.values, gate.values)
        npt.assert_array_equal(kept_attn, attn)


# b_a on the value rows and the key-major scores, over the tile boundaries:
# one tile, 28 rows in tiles of 2 windows (TILE_ROWS 10 is no multiple of
# T or of the rows), and tiles of 3 windows with a last partial tile of 1
BOUNDARY_TILES = {"one tile": 10**9, "rows not a multiple": 10, "last partial": 3 * T}


class TestValueRowBias:
    """The stage adds b_a once to the value rows y N: every attention row
    sums to 1, so A (y N + b_a) = A y N + b_a, and a gather commutes with
    adding b_a to every row. b_a's gradient is then the column sum of the
    value rows' gradient, which equals that of the pre-gate output's."""

    @pytest.mark.parametrize("tiles", sorted(BOUNDARY_TILES))
    @pytest.mark.parametrize("form", ["window rows", "source rows"])
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_bias_gradient_is_the_column_sum_of_the_upstream_gradient(
        self, monkeypatch, mode, form, tiles
    ):
        """In every mode (glu among them), with the kv as window or source rows."""
        monkeypatch.setattr(fusion, "TILE_ROWS", BOUNDARY_TILES[tiles])
        variant, glu, gated = MODES[mode]
        rng = np.random.default_rng(len(mode) + len(form))
        stage = make_stage(3, 2, rng, head_dim=2, glu=glu, gated=gated)
        query = "source" if form == "source rows" else "gathered"
        q, kv, q_idx, kv_idx, _ = tiled_stage_inputs(rng, 7, True, query)
        upstream = rng.normal(size=(7 * T, 3))
        out, gate, _ = block_cross_attention(q, kv, stage, T, q_idx, kv_idx)
        ad.sum_all(ad.mul(out, Tensor(upstream))).backward()
        d_h = upstream * gate.values if gated else upstream  # the pre-gate output's gradient
        npt.assert_allclose(stage.gate.b_a.tensor.grad, d_h.sum(axis=0, keepdims=True),
                            rtol=0, atol=1e-12)
        q_w = q.values if q_idx is None else q.values[q_idx.reshape(-1)]
        kv_w = kv.values if kv_idx is None else kv.values[kv_idx.reshape(-1)]
        want = per_window_stage(Tensor(q_w), Tensor(kv_w), stage, variant, T)
        npt.assert_allclose(out.values, want.values, rtol=0, atol=1e-12)


class TestKeyMajorScores:
    """The stage op stores each tile's scores key-major; the attention it
    returns for diagnostics is the B x t x t query-major view."""

    @pytest.mark.parametrize("tiles", sorted(BOUNDARY_TILES))
    @pytest.mark.parametrize("query", ["source", "window", "mapped", "gathered"])
    def test_diagnostics_attention_is_the_reference_softmax(self, monkeypatch, query, tiles):
        monkeypatch.setattr(fusion, "TILE_ROWS", BOUNDARY_TILES[tiles])
        rng = np.random.default_rng(11)
        stage = make_stage(3, 2, rng, head_dim=2)
        q, kv, q_idx, kv_idx, f_map = tiled_stage_inputs(rng, 7, True, query)
        with ad.no_grad():
            _, _, attn = block_cross_attention(q, kv, stage, T, q_idx, kv_idx,
                                               f_map and f_map.tensor, diagnostics=True)
        assert attn.shape == (7, T, T)
        npt.assert_allclose(attn.sum(axis=2), 1.0, rtol=0, atol=1e-12)
        x = q.values if f_map is None else q.values @ f_map.values
        x_w = x if q_idx is None else x[q_idx.reshape(-1)]
        kv_w = kv.values if kv_idx is None else kv.values[kv_idx.reshape(-1)]
        a = stage.attn
        for b in range(7):
            rows = slice(b * T, (b + 1) * T)
            q_h = ad.matmul(Tensor(x_w[rows]), a.wq.tensor)
            k_h = ad.matmul(Tensor(kv_w[rows]), a.wk.tensor)
            scores = ad.scale(ad.matmul(q_h, ad.transpose(k_h)), a.score_scale)
            npt.assert_allclose(attn[b], ref.softmax_rows(scores).values, rtol=0, atol=1e-12)
