import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from stockfuse import autodiff as ad
from stockfuse.autodiff import Parameter, Tensor, grad_check
from stockfuse.errors import ShapeError
from stockfuse.fusion import (
    CrossAttnParams,
    FusionStageParams,
    GateParams,
    attention_matrix,
    block_cross_attention,
    block_unstable,
    cross_attention,
    fuse_stage,
    fuse_trimodal,
    gated_selection,
)


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


def make_stage(d, heads=2, rng=None, head_dim=None, glu=False):
    """Stage weights of width d' = heads * head_dim, with a glu map if asked."""
    rng = rng or np.random.default_rng(2)
    stage = FusionStageParams(
        attn=make_attn(d, heads, head_dim=head_dim, rng=rng),
        gate=make_gate(d, heads, head_dim=head_dim, rng=rng),
    )
    if glu:
        stage.glu = P("glu", rng.normal(size=(d, stage.attn.out_dim)) * 0.5)
    return stage


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


class TestCrossAttention:
    def test_single_step_softmax(self, rng):
        params = make_attn(3, heads=2, rng=rng)
        query = rng.normal(size=(1, 3))
        kv = rng.normal(size=(1, 3))
        out = cross_attention(Tensor(query), Tensor(kv), params)
        npt.assert_allclose(attention_matrix(Tensor(query), Tensor(kv), params), [[1.0]])
        expected = kv @ params.wv.values
        npt.assert_allclose(out.values, expected, atol=1e-12)

    def test_zero_kv_zero_output(self, rng):
        params = make_attn(4, rng=rng)
        query = rng.normal(size=(5, 4))
        out = cross_attention(Tensor(query), Tensor(np.zeros((5, 4))), params)
        npt.assert_array_equal(out.values, np.zeros((5, 8)))

    def test_loop_oracle(self, rng):
        params = make_attn(2, heads=2, rng=rng)
        query = rng.normal(size=(3, 2))
        kv = rng.normal(size=(3, 2))
        out = cross_attention(Tensor(query), Tensor(kv), params)
        assert out.shape == (3, 4)
        npt.assert_allclose(out.values, loop_attention_oracle(query, kv, params), atol=1e-10)

    def test_attention_rows_sum_to_one(self, rng):
        params = make_attn(6, heads=3, rng=rng)
        attn = attention_matrix(
            Tensor(rng.normal(size=(7, 6)) * 5), Tensor(rng.normal(size=(7, 6)) * 5), params
        )
        npt.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-6)

    def test_shape_mismatch(self, rng):
        params = make_attn(4, rng=rng)
        with pytest.raises(ShapeError):
            cross_attention(Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 4))), params)


class TestGatedSelection:
    def test_closed_gate(self, rng):
        params = make_gate(3, rng=rng)
        unstable = Tensor(rng.normal(size=(4, 6)))
        guide = Tensor(np.full((4, 3), -60.0) @ np.sign(params.w_b.values.T))
        # drive every gate pre-activation strongly negative instead:
        params.b_b.tensor.values = np.full((1, 3), -40.0)
        out = gated_selection(unstable, Tensor(np.zeros((4, 3))), params)
        h_a = unstable.values @ params.w_a.values + params.b_a.values
        assert np.linalg.norm(out.values) < 1e-6 * np.linalg.norm(h_a)

    def test_neutral_gate(self, rng):
        params = make_gate(3, rng=rng)
        params.b_b.tensor.values = np.zeros((1, 3))
        unstable = Tensor(rng.normal(size=(4, 6)))
        out = gated_selection(unstable, Tensor(np.zeros((4, 3))), params)
        h_a = unstable.values @ params.w_a.values + params.b_a.values
        npt.assert_allclose(out.values, h_a / 2.0, atol=1e-12)

    def test_elementwise_oracle(self, rng):
        params = make_gate(5, rng=rng)
        unstable = rng.normal(size=(3, 10))
        guide = rng.normal(size=(3, 5))
        out = gated_selection(Tensor(unstable), Tensor(guide), params)
        h_a = unstable @ params.w_a.values + params.b_a.values
        h_b = 1.0 / (1.0 + np.exp(-(guide @ params.w_b.values + params.b_b.values)))
        expected = np.empty_like(h_a)
        for i in range(3):
            for j in range(5):
                expected[i, j] = h_a[i, j] * h_b[i, j]
        npt.assert_allclose(out.values, expected, atol=1e-12)


class TestFuseStage:
    def test_gate_values_strictly_inside_unit_interval(self, rng):
        stage = make_stage(4, rng=rng)
        out = fuse_stage(
            Tensor(rng.normal(size=(6, 4)) * 10),
            Tensor(rng.normal(size=(6, 4)) * 10),
            Tensor(rng.normal(size=(6, 4)) * 10),
            stage,
        )
        assert np.all(out.gate_values.values > 0.0)
        assert np.all(out.gate_values.values < 1.0)

    def test_gate_monotonicity(self, rng):
        stage = make_stage(3, rng=rng)
        guide = rng.normal(size=(2, 3))
        out1 = fuse_stage(Tensor(guide), Tensor(rng.normal(size=(2, 3))), Tensor(guide), stage)
        # increase one guide pre-activation coordinate via the bias
        stage.gate.b_b.tensor.values = stage.gate.b_b.values + np.array([[0.7, 0.0, 0.0]])
        out2 = fuse_stage(Tensor(guide), Tensor(rng.normal(size=(2, 3))), Tensor(guide), stage)
        assert np.all(out2.gate_values.values[:, 0] > out1.gate_values.values[:, 0])

    def test_saturated_gate_passes_h_a(self, rng):
        stage = make_stage(3, rng=rng)
        stage.gate.b_b.tensor.values = np.full((1, 3), 50.0)
        unstable_in = Tensor(rng.normal(size=(4, 3)))
        out = fuse_stage(unstable_in, Tensor(rng.normal(size=(4, 3))), Tensor(np.zeros((4, 3))), stage)
        h_a = out.unstable.values @ stage.gate.w_a.values + stage.gate.b_a.values
        npt.assert_allclose(out.stable.values, h_a, atol=1e-4)


class TestTrimodal:
    def test_zero_modalities_degenerate(self, rng):
        d = 3
        s1, s2 = make_stage(d, rng=rng), make_stage(d, rng=rng)
        v_i = Tensor(rng.normal(size=(5, d)), requires_grad=True)
        zeros = Tensor(np.zeros((5, d)))
        out = fuse_trimodal(v_i, zeros, zeros, s1, s2)
        assert np.all(np.isfinite(out.fused_all.values))
        ad.sum_all(ad.mul(out.fused_all, out.fused_all)).backward()
        assert v_i.grad is not None and np.abs(v_i.grad).sum() > 0

    def test_stage2_kv_swap_changes_output(self, rng):
        d = 4
        s1, s2 = make_stage(d, rng=rng), make_stage(d, rng=rng)
        v_i = Tensor(rng.normal(size=(6, d)))
        v_d = Tensor(rng.normal(size=(6, d)))
        v_g = Tensor(rng.normal(size=(6, d)))
        out_a = fuse_trimodal(v_i, v_d, v_g, s1, s2).fused_all.values
        out_b = fuse_trimodal(v_i, v_g, v_d, s1, s2).fused_all.values
        assert np.abs(out_a - out_b).max() > 1e-6

    def test_chain_gradient_check(self, rng):
        d, t = 3, 4
        s1, s2 = make_stage(d, rng=rng), make_stage(d, rng=rng)
        v_i = Tensor(rng.normal(size=(t, d)))
        v_d = Tensor(rng.normal(size=(t, d)))
        v_g = Tensor(rng.normal(size=(t, d)))

        def f():
            out = fuse_trimodal(v_i, v_d, v_g, s1, s2)
            return ad.sum_all(ad.mul(out.fused_all, out.fused_all))

        params = s1.all() + s2.all()
        assert grad_check(f, params, eps=1e-5) < 1e-4

    def test_stable_output_chains_to_a_fourth_modality(self, rng):
        d = 3
        s1, s2, s3 = (make_stage(d, rng=rng) for _ in range(3))
        v = [Tensor(rng.normal(size=(5, d))) for _ in range(4)]
        out = fuse_trimodal(v[0], v[1], v[2], s1, s2)
        chained = fuse_stage(out.fused_all, v[3], out.fused_all, s3)
        assert chained.stable.shape == (5, d)

    def test_shape_contract_over_ranges(self, rng):
        for t, d in ((2, 2), (5, 3), (9, 6)):
            s1, s2 = make_stage(d, rng=rng), make_stage(d, rng=rng)
            out = fuse_trimodal(
                Tensor(rng.normal(size=(t, d))),
                Tensor(rng.normal(size=(t, d))),
                Tensor(rng.normal(size=(t, d))),
                s1, s2,
            )
            assert out.fused_docs.shape == (t, d)
            assert out.fused_all.shape == (t, d)
            assert out.stages[0].unstable.shape == (t, 2 * d)

    def test_variant_wiring(self, rng):
        d = 3
        rng_local = np.random.default_rng(9)
        s1, s2 = make_stage(d, rng=rng_local), make_stage(d, rng=rng_local)
        v_i = Tensor(rng.normal(size=(4, d)))
        v_d = Tensor(rng.normal(size=(4, d)))
        v_g = Tensor(rng.normal(size=(4, d)))
        drop_docs = fuse_trimodal(v_i, v_d, v_g, s1, s2, variant="drop_docs")
        npt.assert_array_equal(drop_docs.fused_docs.values, v_i.values)
        drop_graph = fuse_trimodal(v_i, v_d, v_g, s1, s2, variant="drop_graph")
        npt.assert_array_equal(drop_graph.fused_all.values, drop_graph.fused_docs.values)
        assert len(drop_graph.stages) == 1

    def test_ca_variant_ignores_gate(self, rng):
        d = 3
        s1, s2 = make_stage(d, rng=rng), make_stage(d, rng=rng)
        v = [Tensor(rng.normal(size=(4, d))) for _ in range(3)]
        out = fuse_trimodal(*v, s1, s2, variant="ca_fusion")
        h_a = out.stages[0].unstable.values @ s1.gate.w_a.values + s1.gate.b_a.values
        npt.assert_allclose(out.fused_docs.values, h_a, atol=1e-12)

    def test_glu_variant_linear_path(self, rng):
        d = 3
        s1 = make_stage(d, rng=rng)
        s2 = make_stage(d, rng=rng)
        s1.glu = P("glu1", rng.normal(size=(d, 2 * d)))
        s2.glu = P("glu2", rng.normal(size=(d, 2 * d)))
        v = [Tensor(rng.normal(size=(4, d))) for _ in range(3)]
        out = fuse_trimodal(*v, s1, s2, variant="glu_fusion")
        npt.assert_allclose(
            out.stages[0].unstable.values, v[1].values @ s1.glu.values, atol=1e-12
        )


# The batched stage op against the per-window reference. Each mode is
# (variant for fuse_stage, whether the stage has a glu map, gated).
MODES = {
    "gated": ("full", False, True),
    "ca": ("ca_fusion", False, False),
    "glu": ("glu_fusion", True, True),
}


def wired_inputs(rng, rows, d, wiring):
    """(query, kv, guide) tensors; "guide" is the stage-2 wiring, "kv" shares query and kv."""
    if wiring == "guide":
        q = Tensor(rng.normal(size=(rows, d)), requires_grad=True)
        return q, Tensor(rng.normal(size=(rows, d)), requires_grad=True), q
    x = Tensor(rng.normal(size=(rows, d)), requires_grad=True)
    return x, x, Tensor(rng.normal(size=(rows, d)) * 2, requires_grad=True)


def per_window_stage(query, kv, guide, stage, variant, t):
    """fuse_stage on each window slice, re-stacked: the reference."""
    n_blocks = kv.rows // t
    return ad.concat_rows([
        fuse_stage(
            *(ad.slice_rows(x, b * t, (b + 1) * t) for x in (query, kv, guide)),
            stage, variant=variant,
        ).stable
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
    """The whole gated stage as one node, against per-window fuse_stage."""

    @given(
        st.integers(1, 5), st.integers(1, 6), st.integers(1, 4), st.integers(1, 3),
        st.integers(1, 5), st.sampled_from(sorted(MODES)), st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_per_window_composition(self, n_blocks, t, d, heads, head_dim, mode, seed):
        rng = np.random.default_rng(seed)
        variant, glu, gated = MODES[mode]
        stage = make_stage(d, heads, rng, head_dim=head_dim, glu=glu)
        q, kv, g = (Tensor(rng.normal(size=(n_blocks * t, d))) for _ in range(3))
        stable, _, _ = block_cross_attention(q, kv, g, stage, t, gated=gated)
        want = per_window_stage(q, kv, g, stage, variant, t)
        npt.assert_allclose(stable.values, want.values, rtol=0, atol=1e-10)

    def test_block_gradients(self, rng):
        stage = make_stage(3, rng=rng, head_dim=3)
        q, kv, g = (Tensor(rng.normal(size=(6, 3)), requires_grad=True) for _ in range(3))
        extras = [Parameter("q_in", q), Parameter("kv_in", kv), Parameter("g_in", g)]

        def f():
            out, _, _ = block_cross_attention(q, kv, g, stage, block=3)
            return ad.sum_all(ad.mul(out, out))

        assert grad_check(f, stage.all() + extras, eps=1e-5) < 1e-4

    @pytest.mark.parametrize(
        "d,heads,head_dim",
        # d' > d for the first four, then d' = d and d' < d
        [(3, 2, None), (4, 3, 2), (3, 1, 5), (2, 2, 3), (4, 2, 2), (5, 1, 3)],
    )
    def test_gradients_match_per_window_composition(self, d, heads, head_dim):
        """Output and every input and parameter gradient, in each mode and wiring."""
        n_blocks, t = 3, 4
        for mode, (variant, glu, gated) in MODES.items():
            for wiring in ("guide", "kv"):
                rng = np.random.default_rng(d * 100 + heads * 10 + (head_dim or 0))
                stage = make_stage(d, heads, rng, head_dim=head_dim, glu=glu)
                inputs = wired_inputs(rng, n_blocks * t, d, wiring)
                upstream = rng.normal(size=(n_blocks * t, d))
                params = stage.all(variant)
                fused_out, fused_grads = run_with_grads(
                    lambda q, kv, g: block_cross_attention(q, kv, g, stage, t, gated)[0],
                    inputs, params, upstream,
                )
                ref_out, ref_grads = run_with_grads(
                    lambda q, kv, g: per_window_stage(q, kv, g, stage, variant, t),
                    inputs, params, upstream,
                )
                npt.assert_allclose(fused_out, ref_out, rtol=0, atol=1e-12, err_msg=mode)
                assert_same_grads(fused_grads, ref_grads)

    def test_shared_query_and_kv_gradients(self, rng):
        stage = make_stage(3, rng=rng, head_dim=2)
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        extras = [Parameter("x_in", x)]

        def f():  # x is query, kv and guide at once
            out, _, _ = block_cross_attention(x, x, x, stage, block=3)
            return ad.sum_all(ad.mul(out, out))

        assert grad_check(f, stage.all() + extras, eps=1e-5) < 1e-4

    def test_unstable_recomputed_from_attention(self, rng):
        d, t = 3, 4
        for glu in (False, True):
            stage = make_stage(d, rng=rng, head_dim=2, glu=glu)
            q, kv = (Tensor(rng.normal(size=(2 * t, d))) for _ in range(2))
            _, _, attn = block_cross_attention(q, kv, q, stage, t)
            unstable = block_unstable(kv, stage, attn)
            for b in range(2):
                rows = slice(b * t, (b + 1) * t)
                want = fuse_stage(
                    Tensor(q.values[rows]), Tensor(kv.values[rows]), Tensor(q.values[rows]),
                    stage, variant="glu_fusion" if glu else "full",
                ).unstable
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
        q, kv, g = (Tensor(rng.normal(size=(n_blocks * t, d))) for _ in range(3))
        for gated in (True, False):
            stable, _, _ = block_cross_attention(q, kv, g, stage, t, gated=gated)
            for b in range(n_blocks):
                rows = slice(b * t, (b + 1) * t)
                unstable = loop_attention_oracle(q.values[rows], kv.values[rows], stage.attn)
                want = unstable @ stage.gate.w_a.values + stage.gate.b_a.values
                if gated:
                    pre = g.values[rows] @ stage.gate.w_b.values + stage.gate.b_b.values
                    want = want / (1.0 + np.exp(-pre))
                npt.assert_allclose(stable.values[rows], want, rtol=0, atol=1e-12)

    def test_indivisible_rows_rejected(self, rng):
        stage = make_stage(3, rng=rng, head_dim=3)
        x = Tensor(np.zeros((7, 3)))
        with pytest.raises(ShapeError):
            block_cross_attention(x, x, x, stage, block=3)
        with pytest.raises(ShapeError, match="widths differ"):
            block_cross_attention(Tensor(np.zeros((6, 2))), Tensor(np.zeros((6, 3))),
                                  Tensor(np.zeros((6, 3))), stage, block=3)


class TestBlockGatedSelection:
    """The gate half of the stage op against the per-window gated_selection."""

    @pytest.mark.parametrize("gated", [True, False])
    def test_matches_composed_ops(self, rng, gated):
        d, t, n_blocks = 4, 3, 3
        stage = make_stage(d, rng=rng, head_dim=d)
        inputs = tuple(
            Tensor(rng.normal(size=(n_blocks * t, d)) * s, requires_grad=True) for s in (1, 1, 3)
        )
        upstream = rng.normal(size=(n_blocks * t, d))
        params = stage.all()

        def composed(q, kv, g):
            unstable = ad.concat_rows([
                cross_attention(ad.slice_rows(q, b * t, (b + 1) * t),
                                ad.slice_rows(kv, b * t, (b + 1) * t), stage.attn)
                for b in range(n_blocks)
            ])
            if gated:
                return gated_selection(unstable, g, stage.gate)
            return ad.add(ad.matmul(unstable, stage.gate.w_a.tensor), stage.gate.b_a.tensor)

        fused_out, fused_grads = run_with_grads(
            lambda q, kv, g: block_cross_attention(q, kv, g, stage, t, gated)[0],
            inputs, params, upstream,
        )
        ref_out, ref_grads = run_with_grads(composed, inputs, params, upstream)
        npt.assert_allclose(fused_out, ref_out, rtol=0, atol=1e-12)
        # the ca_fusion form reads neither guide nor Wb, bb: their grads stay None
        assert_same_grads(fused_grads, ref_grads)

    def test_gate_values(self, rng):
        stage = make_stage(3, rng=rng, head_dim=3)
        q, kv, guide = (Tensor(rng.normal(size=(6, 3))) for _ in range(3))
        _, gate, _ = block_cross_attention(q, kv, guide, stage, block=3)
        pre = guide.values @ stage.gate.w_b.values + stage.gate.b_b.values
        npt.assert_allclose(gate.values, 1.0 / (1.0 + np.exp(-pre)), rtol=0, atol=1e-15)
        assert not gate.requires_grad
        _, none, _ = block_cross_attention(q, kv, guide, stage, block=3, gated=False)
        assert none is None
        stage.gate.b_b.tensor.values = np.full((1, 3), -800.0)  # exp underflows: closed exactly
        stable, gate, _ = block_cross_attention(q, kv, guide, stage, block=3)
        npt.assert_array_equal(gate.values, 0.0)
        npt.assert_array_equal(stable.values, 0.0)

    def test_grad_check(self, rng):
        """The glu_fusion form: a linear map of kv, then the gate."""
        stage = make_stage(3, rng=rng, head_dim=2, glu=True)
        kv, guide = (Tensor(rng.normal(size=(4, 3)), requires_grad=True) for _ in range(2))
        extras = [Parameter("kv_in", kv), Parameter("g_in", guide)]

        def f():
            stable, _, _ = block_cross_attention(kv, kv, guide, stage, block=2)
            return ad.sum_all(ad.mul(stable, stable))

        assert grad_check(f, stage.all("glu_fusion") + extras, eps=1e-5) < 1e-4

    def test_row_mismatch_rejected(self, rng):
        stage = make_stage(3, rng=rng, head_dim=3)
        x = Tensor(np.zeros((4, 3)))
        with pytest.raises(ShapeError):
            block_cross_attention(x, x, Tensor(np.zeros((5, 3))), stage, block=2)
