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
    block_gated_selection,
    cross_attention,
    fuse_stage,
    fuse_trimodal,
    gated_selection,
)


def P(name, values):
    return Parameter(name, Tensor(np.asarray(values, dtype=np.float64), requires_grad=True))


def make_attn(d, heads=2, head_dim=None, rng=None, scale=1.0):
    rng = rng or np.random.default_rng(0)
    k = head_dim or d
    return CrossAttnParams(
        heads=[
            (P(f"wq{m}", rng.normal(size=(d, k)) * scale),
             P(f"wk{m}", rng.normal(size=(d, k)) * scale),
             P(f"wv{m}", rng.normal(size=(d, k)) * scale))
            for m in range(heads)
        ]
    )


def make_gate(d, heads=2, head_dim=None, rng=None):
    rng = rng or np.random.default_rng(1)
    k = head_dim or d
    return GateParams(
        w_a=P("wa", rng.normal(size=(heads * k, d)) * 0.3),
        b_a=P("ba", rng.normal(size=(1, d)) * 0.1),
        w_b=P("wb", rng.normal(size=(d, d)) * 0.3),
        b_b=P("bb", rng.normal(size=(1, d)) * 0.1),
    )


def make_stage(d, heads=2, rng=None):
    rng = rng or np.random.default_rng(2)
    return FusionStageParams(attn=make_attn(d, heads, rng=rng), gate=make_gate(d, heads, rng=rng))


def loop_attention_oracle(query, kv, params):
    """Forms each head's scores, averages, softmaxes once, applies, concatenates."""
    m = params.n_heads
    d_prime = params.out_dim
    t = query.shape[0]
    total = np.zeros((t, kv.shape[0]))
    values = []
    for wq, wk, wv in params.heads:
        q = query @ wq.values
        k = kv @ wk.values
        values.append(kv @ wv.values)
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
        expected = np.concatenate([kv @ wv.values for _, _, wv in params.heads], axis=1)
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


class TestBlockCrossAttention:
    @given(
        st.integers(1, 5), st.integers(1, 6), st.integers(1, 4), st.integers(1, 3),
        st.integers(0, 10_000),
    )
    @settings(max_examples=20)
    def test_matches_per_window_composition(self, n_blocks, t, d, heads, seed):
        rng = np.random.default_rng(seed)
        params = make_attn(d, heads=heads, rng=rng)
        query = rng.normal(size=(n_blocks * t, d))
        kv = rng.normal(size=(n_blocks * t, d))
        fused = block_cross_attention(Tensor(query), Tensor(kv), params, block=t)
        for b in range(n_blocks):
            single = cross_attention(
                Tensor(query[b * t : (b + 1) * t]), Tensor(kv[b * t : (b + 1) * t]), params
            )
            npt.assert_allclose(fused.values[b * t : (b + 1) * t], single.values, atol=1e-10)

    def test_block_gradients(self, rng):
        params = make_attn(3, heads=2, rng=rng)
        query = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        kv = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        extras = [Parameter("q_in", query), Parameter("kv_in", kv)]

        def f():
            out = block_cross_attention(query, kv, params, block=3)
            return ad.sum_all(ad.mul(out, out))

        assert grad_check(f, params.all() + extras, eps=1e-5) < 1e-4

    @pytest.mark.parametrize("d,heads,head_dim", [(3, 2, None), (4, 3, 2), (3, 1, 5), (2, 2, 3)])
    def test_gradients_match_per_window_composition(self, d, heads, head_dim):
        rng = np.random.default_rng(d * 100 + heads * 10 + (head_dim or 0))
        n_blocks, t = 3, 4
        params = make_attn(d, heads=heads, head_dim=head_dim, rng=rng, scale=0.7)
        query = rng.normal(size=(n_blocks * t, d))
        kv = rng.normal(size=(n_blocks * t, d))
        upstream = rng.normal(size=(n_blocks * t, params.out_dim))

        def grads(forward):
            for p in params.all():
                p.zero_grad()
            q_in = Tensor(query, requires_grad=True)
            kv_in = Tensor(kv, requires_grad=True)
            out = forward(q_in, kv_in)
            ad.sum_all(ad.mul(out, Tensor(upstream))).backward()
            return out.values, [q_in.grad, kv_in.grad] + [p.tensor.grad for p in params.all()]

        def per_window(q_in, kv_in):
            return ad.concat_rows([
                cross_attention(
                    ad.slice_rows(q_in, b * t, (b + 1) * t),
                    ad.slice_rows(kv_in, b * t, (b + 1) * t),
                    params,
                )
                for b in range(n_blocks)
            ])

        fused_out, fused_grads = grads(lambda q, kv: block_cross_attention(q, kv, params, t))
        ref_out, ref_grads = grads(per_window)
        npt.assert_allclose(fused_out, ref_out, rtol=0, atol=1e-13)
        for got, want in zip(fused_grads, ref_grads):
            assert got.shape == want.shape
            npt.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_shared_query_and_kv_gradients(self, rng):
        params = make_attn(3, heads=2, head_dim=2, rng=rng)
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        extras = [Parameter("x_in", x)]

        def f():
            out = block_cross_attention(x, x, params, block=3)
            return ad.sum_all(ad.mul(out, out))

        assert grad_check(f, params.all() + extras, eps=1e-5) < 1e-4

    def test_indivisible_rows_rejected(self, rng):
        params = make_attn(3, rng=rng)
        with pytest.raises(ShapeError):
            block_cross_attention(Tensor(np.zeros((7, 3))), Tensor(np.zeros((7, 3))), params, block=3)


class TestBlockGatedSelection:
    @pytest.mark.parametrize("gated", [True, False])
    def test_matches_composed_ops(self, rng, gated):
        d, heads, rows = 4, 2, 9
        params = make_gate(d, heads=heads, rng=rng)
        unstable = rng.normal(size=(rows, heads * d))
        guide = rng.normal(size=(rows, d)) * 3

        def grads(forward):
            for p in params.all():
                p.zero_grad()
            u_in = Tensor(unstable, requires_grad=True)
            g_in = Tensor(guide, requires_grad=True)
            out = forward(u_in, g_in)
            ad.sum_all(ad.mul(out, out)).backward()
            return out.values, [u_in.grad, g_in.grad] + [p.tensor.grad for p in params.all()]

        def composed(u_in, g_in):
            if gated:
                return gated_selection(u_in, g_in, params)
            return ad.add(ad.matmul(u_in, params.w_a.tensor), params.b_a.tensor)

        fused_out, fused_grads = grads(
            lambda u, g: block_gated_selection(u, g, params, gated=gated)[0]
        )
        ref_out, ref_grads = grads(composed)
        npt.assert_array_equal(fused_out, ref_out)
        for got, want in zip(fused_grads, ref_grads):
            if want is None:  # the ca_fusion form reads neither guide nor Wb, bb
                assert got is None
            else:
                npt.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_gate_values(self, rng):
        params = make_gate(3, rng=rng)
        unstable = Tensor(rng.normal(size=(5, 6)))
        guide = Tensor(rng.normal(size=(5, 3)))
        _, gate = block_gated_selection(unstable, guide, params)
        pre = guide.values @ params.w_b.values + params.b_b.values
        npt.assert_allclose(gate.values, 1.0 / (1.0 + np.exp(-pre)), rtol=0, atol=1e-15)
        assert not gate.requires_grad
        _, ones = block_gated_selection(unstable, guide, params, gated=False)
        npt.assert_array_equal(ones.values, np.ones((5, 3)))

    def test_grad_check(self, rng):
        params = make_gate(3, rng=rng)
        unstable = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        guide = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        extras = [Parameter("u_in", unstable), Parameter("g_in", guide)]

        def f():
            stable, _ = block_gated_selection(unstable, guide, params)
            return ad.sum_all(ad.mul(stable, stable))

        assert grad_check(f, params.all() + extras, eps=1e-5) < 1e-4

    def test_row_mismatch_rejected(self, rng):
        params = make_gate(3, rng=rng)
        with pytest.raises(ShapeError):
            block_gated_selection(Tensor(np.zeros((4, 6))), Tensor(np.zeros((5, 3))), params)
