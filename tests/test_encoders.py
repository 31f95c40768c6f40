import numpy as np
import numpy.testing as npt
import pytest

from stockfuse import autodiff as ad
from stockfuse.autodiff import Parameter, Tensor, grad_check
from stockfuse.data import build_graph
from stockfuse.encoders import (
    DocEncoderParams,
    GatParams,
    IndicatorEncoderParams,
    LEAKY_SLOPE,
    _GatEdges,
    block_gat_encode,
    encode_documents,
    encode_indicators,
)
from stockfuse.errors import DataError, ShapeError

import reference as ref


def P(name, values):
    return Parameter(name, Tensor(np.asarray(values, dtype=np.float64), requires_grad=True))


def make_indicator_params(d, rng=None, zero_bias=False):
    rng = rng or np.random.default_rng(0)
    b = lambda: np.zeros((1, d)) if zero_bias else rng.normal(size=(1, d)) * 0.1
    return IndicatorEncoderParams(
        w_close=P("wc", rng.normal(size=(1, d))), b_close=P("bc", b()),
        w_open=P("wo", rng.normal(size=(1, d))), b_open=P("bo", b()),
        w_high=P("wh", rng.normal(size=(1, d))), b_high=P("bh", b()),
        w_mix=P("wm", rng.normal(size=(3 * d, d))), b_mix=P("bm", b()),
    )


def make_gat_params(d, heads=2, layers=1, rng=None):
    """Per-head draws in head order, stored side by side: W d x K*d, a 2d x K."""
    rng = rng or np.random.default_rng(1)
    layer_params = []
    for li in range(layers):
        draws = [(rng.normal(size=(d, d)) * 0.5, rng.normal(size=(2 * d, 1)) * 0.5)
                 for _ in range(heads)]
        w, a = (np.concatenate(blocks, axis=1) for blocks in zip(*draws))
        layer_params.append((P(f"w{li}", w), P(f"a{li}", a)))
    return GatParams(layers=layer_params)


def head_slices(layer):
    """Each head's (W d x d, a 2d x 1) values, sliced from the layer's columns."""
    w, a = layer
    d = w.values.shape[0]
    return [(w.values[:, k * d : (k + 1) * d], a.values[:, k : k + 1])
            for k in range(a.values.shape[1])]


class TestIndicatorEncoder:
    def test_zero_input_zero_bias(self):
        params = make_indicator_params(4, zero_bias=True)
        out = encode_indicators(Tensor(np.zeros((3, 3))), params)
        npt.assert_array_equal(out.values, np.zeros((3, 4)))

    def test_hand_computation(self):
        d = 2
        params = IndicatorEncoderParams(
            w_close=P("wc", [[1.0, 2.0]]), b_close=P("bc", [[0.1, 0.2]]),
            w_open=P("wo", [[3.0, 4.0]]), b_open=P("bo", [[0.0, 0.0]]),
            w_high=P("wh", [[-1.0, 0.5]]), b_high=P("bh", [[0.5, -0.5]]),
            w_mix=P("wm", np.arange(12, dtype=float).reshape(6, 2) / 10.0),
            b_mix=P("bm", [[1.0, -1.0]]),
        )
        x = np.array([[2.0, 3.0, 4.0]])  # close, open, high
        lifted = np.concatenate(
            [
                x[:, 0:1] @ params.w_close.values + params.b_close.values,
                x[:, 1:2] @ params.w_open.values + params.b_open.values,
                x[:, 2:3] @ params.w_high.values + params.b_high.values,
            ],
            axis=1,
        )
        expected = lifted @ params.w_mix.values + params.b_mix.values
        out = encode_indicators(Tensor(x), params)
        npt.assert_allclose(out.values, expected, atol=1e-14)

    def test_homogeneity(self, rng):
        params = make_indicator_params(5, rng, zero_bias=True)
        x = rng.normal(size=(6, 3))
        one = encode_indicators(Tensor(x), params).values
        two = encode_indicators(Tensor(2.0 * x), params).values
        npt.assert_allclose(two, 2.0 * one, atol=1e-12)

    def test_nonfinite_rejected(self):
        params = make_indicator_params(2)
        bad = np.array([[1.0, np.nan, 2.0]])
        with pytest.raises(DataError):
            encode_indicators(Tensor(bad), params)

    def test_output_shape(self, rng):
        params = make_indicator_params(7, rng)
        assert encode_indicators(Tensor(rng.normal(size=(9, 3))), params).shape == (9, 7)

    def test_gradients(self, rng):
        params = make_indicator_params(3, rng)
        x = Tensor(rng.normal(size=(4, 3)))

        def f():
            out = encode_indicators(x, params)
            return ad.sum_all(ad.mul(out, out))

        assert grad_check(f, ref.params_of(params), eps=1e-5) < 1e-4


def composed_indicators(x: Tensor, params: IndicatorEncoderParams) -> Tensor:
    """The encoder as separate tape ops: slice, lift, concat, project."""
    lifted = [
        ad.add(ad.matmul(ref.slice_cols(x, col, col + 1), w.tensor), b.tensor)
        for col, (w, b) in enumerate(
            [(params.w_close, params.b_close), (params.w_open, params.b_open),
             (params.w_high, params.b_high)]
        )
    ]
    return ad.add(ad.matmul(ad.concat_cols(lifted), params.w_mix.tensor), params.b_mix.tensor)


class TestFoldedIndicatorEncoder:
    def outputs_and_grads(self, encode, x, params, g):
        for p in (x, *ref.params_of(params)):
            p.zero_grad()
        out = encode(x.tensor, params)
        ad.sum_all(ad.mul(out, Tensor(g))).backward()
        return [out.values] + [p.tensor.grad.copy() for p in (x, *ref.params_of(params))]

    @pytest.mark.parametrize("d", [1, 4, 9])
    def test_matches_composed_ops(self, rng, d):
        params = make_indicator_params(d, rng)
        x = P("x", rng.normal(size=(11, 3)) * 3.0)
        g = rng.normal(size=(11, d))
        folded = self.outputs_and_grads(encode_indicators, x, params, g)
        composed = self.outputs_and_grads(composed_indicators, x, params, g)
        assert len(folded) == 10  # output, input gradient, eight parameter gradients
        for got, want in zip(folded, composed):
            npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_rows_meet_only_the_folded_map(self, rng):
        d = 5
        params = make_indicator_params(d, rng)
        out = encode_indicators(Tensor(rng.normal(size=(4, 3))), params)
        # the rows meet one 3 x d map and one 1 x d shift, never a 3d-wide lift
        assert sorted(p.shape for p in out._parents) == [(1, d), (3, d)]
        stack, seen = list(out._parents), set()
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._parents)
        assert {id(p.tensor) for p in ref.params_of(params)} <= seen  # the fold reaches all eight

    def test_width_checked(self, rng):
        with pytest.raises(ShapeError, match="t x 3"):
            encode_indicators(Tensor(rng.normal(size=(4, 2))), make_indicator_params(3, rng))

    def test_float32_stays_float32(self, rng):
        params = make_indicator_params(3, rng)
        for p in ref.params_of(params):
            p.tensor.values = p.values.astype(np.float32)
        out = encode_indicators(Tensor(rng.normal(size=(5, 3)).astype(np.float32)), params)
        assert out.values.dtype == np.float32
        ad.sum_all(out).backward()
        for p in ref.params_of(params):
            assert p.tensor.grad.dtype == np.float32


class TestDocEncoder:
    def make(self, dim, d, rng):
        return DocEncoderParams(
            w=P("w", rng.normal(size=(dim, d))), b=P("b", rng.normal(size=(1, d)))
        )

    def test_all_masked_zero_output(self, rng):
        params = self.make(6, 4, rng)
        out = encode_documents(Tensor(np.zeros((5, 6))), np.zeros(5), params)
        npt.assert_array_equal(out.values, np.zeros((5, 4)))

    def test_bias_suppressed_on_masked_rows(self, rng):
        params = self.make(6, 4, rng)
        assert np.abs(params.b.values).sum() > 0
        doc = np.vstack([rng.normal(size=(1, 6)), np.zeros((1, 6))])
        out = encode_documents(Tensor(doc), np.array([1, 0]), params)
        assert np.abs(out.values[0]).sum() > 0
        npt.assert_array_equal(out.values[1], np.zeros(4))

    def test_full_mask_affine_oracle(self, rng):
        params = self.make(8, 3, rng)
        doc = rng.normal(size=(5, 8))
        expected = doc @ params.w.values + params.b.values
        out = encode_documents(Tensor(doc), np.ones(5), params)
        npt.assert_allclose(out.values, expected, atol=1e-13)

    def test_mask_length_mismatch(self, rng):
        params = self.make(4, 2, rng)
        with pytest.raises(ShapeError):
            encode_documents(Tensor(np.zeros((3, 4))), np.zeros(5), params)

    def test_gradients(self, rng):
        params = self.make(5, 3, rng)
        doc = rng.normal(size=(4, 5))
        doc[2] = 0.0
        mask = np.array([1, 1, 0, 1])

        def f():
            out = encode_documents(Tensor(doc), mask, params)
            return ad.sum_all(ad.mul(out, out))

        assert grad_check(f, ref.params_of(params), eps=1e-5) < 1e-4


def dense_gat_oracle(h, neighbors, params):
    """Brute-force per-entry attention, heads averaged, ELU."""
    x = h.copy()
    for layer in params.layers:
        heads = []
        for w, a in head_slices(layer):
            hw = x @ w
            d = w.shape[0]
            n = x.shape[0]
            alpha = np.zeros((n, n))
            for i in range(n):
                scores = []
                for j in range(n):
                    if not neighbors[i, j]:
                        continue
                    s = float((hw[i] @ a[:d] + hw[j] @ a[d:]).item())
                    scores.append((j, s if s > 0 else LEAKY_SLOPE * s))
                mx = max(s for _, s in scores)
                zsum = sum(np.exp(s - mx) for _, s in scores)
                for j, s in scores:
                    alpha[i, j] = np.exp(s - mx) / zsum
            heads.append(alpha @ hw)
        avg = np.mean(heads, axis=0)
        x = np.where(avg > 0, avg, np.expm1(np.minimum(avg, 0)))
    return x


class TestGraphEncoder:
    def test_single_isolated_node(self, rng):
        params = make_gat_params(3, heads=2)
        h = rng.normal(size=(1, 3))
        out = block_gat_encode(Tensor(h), np.array([[True]]), params)
        expected = np.mean([h @ w for w, _ in head_slices(params.layers[0])], axis=0)
        expected = np.where(expected > 0, expected, np.expm1(expected))
        npt.assert_allclose(out.values, expected, atol=1e-12)

    def test_identical_nodes_identical_outputs(self, rng):
        params = make_gat_params(4)
        row = rng.normal(size=4)
        h = np.vstack([row, row])
        out = block_gat_encode(Tensor(h), np.ones((2, 2), dtype=bool), params)
        npt.assert_allclose(out.values[0], out.values[1], atol=1e-12)

    def test_dense_oracle_four_nodes(self, rng):
        params = make_gat_params(5, heads=2)
        h = rng.normal(size=(4, 5))
        neighbors = np.array(
            [
                [1, 1, 0, 0],
                [1, 1, 1, 0],
                [0, 1, 1, 1],
                [0, 0, 1, 1],
            ],
            dtype=bool,
        )
        out = block_gat_encode(Tensor(h), neighbors, params)
        npt.assert_allclose(out.values, dense_gat_oracle(h, neighbors, params), atol=1e-10)

    def test_attention_rows_sum_to_one(self, rng):
        """The reference's per-head attention: rows sum to one, zero off the mask."""
        params = make_gat_params(4, heads=3)
        h = rng.normal(size=(6, 4)) * 3
        neighbors = np.eye(6, dtype=bool) | (rng.random((6, 6)) < 0.4)
        neighbors |= neighbors.T
        alphas = []
        ref.gat_encode(Tensor(h), neighbors, params, alphas)
        assert len(alphas) == 3
        for alpha in alphas:
            npt.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-6)
            assert np.all(alpha[~neighbors] == 0)

    def test_permutation_equivariance(self, rng):
        params = make_gat_params(4)
        h = rng.normal(size=(5, 4))
        neighbors = np.eye(5, dtype=bool) | (rng.random((5, 5)) < 0.5)
        neighbors |= neighbors.T
        out = block_gat_encode(Tensor(h), neighbors, params).values
        perm = rng.permutation(5)
        out_p = block_gat_encode(
            Tensor(h[perm]), neighbors[np.ix_(perm, perm)], params
        ).values
        npt.assert_allclose(out_p, out[perm], atol=1e-12)

    def test_two_layer_stack(self, rng):
        params = make_gat_params(3, heads=2, layers=2)
        h = rng.normal(size=(4, 3))
        neighbors = np.ones((4, 4), dtype=bool)
        out = block_gat_encode(Tensor(h), neighbors, params)
        npt.assert_allclose(out.values, dense_gat_oracle(h, neighbors, params), atol=1e-10)

    def test_gradients(self, rng):
        params = make_gat_params(3, heads=2)
        h = Tensor(rng.normal(size=(4, 3)))
        neighbors = np.eye(4, dtype=bool)
        neighbors[0, 1] = neighbors[1, 0] = True

        def f():
            out = block_gat_encode(h, neighbors, params)
            return ad.sum_all(ad.mul(out, out))

        assert grad_check(f, ref.params_of(params), eps=1e-5) < 1e-4


class TestBlockGat:
    def test_matches_per_timestamp_loop(self, rng):
        params = make_gat_params(4, heads=2, layers=2)
        n, T = 5, 7
        h = rng.normal(size=(T * n, 4))
        neighbors = np.eye(n, dtype=bool) | (rng.random((n, n)) < 0.4)
        neighbors |= neighbors.T
        fused = block_gat_encode(Tensor(h), neighbors, params)
        for tau in range(T):
            single = ref.gat_encode(Tensor(h[tau * n : (tau + 1) * n]), neighbors, params)
            npt.assert_allclose(
                fused.values[tau * n : (tau + 1) * n], single.values, atol=1e-12
            )

    def test_block_gradients(self, rng):
        params = make_gat_params(3, heads=2)
        h = Tensor(rng.normal(size=(6, 3)))  # 2 timestamps x 3 nodes
        neighbors = np.ones((3, 3), dtype=bool)

        def f():
            out = block_gat_encode(h, neighbors, params)
            return ad.sum_all(ad.mul(out, out))

        assert grad_check(f, ref.params_of(params), eps=1e-5) < 1e-4

    @staticmethod
    def loop_and_block(h, neighbors, params, g):
        """Output and gradients (input first) of block_gat_encode and of the per-timestamp loop."""
        n = neighbors.shape[0]
        x = P("x", h)
        results = []
        for per_timestamp in (False, True):
            for p in (x, *ref.params_of(params)):
                p.zero_grad()
            if per_timestamp:
                out = ad.concat_rows([
                    ref.gat_encode(ad.slice_rows(x.tensor, i, i + n), neighbors, params)
                    for i in range(0, h.shape[0], n)
                ])
            else:
                out = block_gat_encode(x.tensor, neighbors, params)
            ad.sum_all(ad.mul(out, Tensor(g))).backward()
            grads = [p.tensor.grad.copy() for p in (x, *ref.params_of(params))]
            results.append([out.values] + grads)
        return results

    def assert_matches_loop(self, rng, neighbors, params, T=3, tol=1e-12):
        n, d = neighbors.shape[0], params.layers[0][0].values.shape[0]
        h = rng.normal(size=(T * n, d))
        block, loop = self.loop_and_block(h, neighbors, params, rng.normal(size=(T * n, d)))
        for got, want in zip(block, loop):
            npt.assert_allclose(got, want, rtol=tol, atol=tol)

    def test_input_gradient(self, rng):
        params = make_gat_params(3, heads=2, layers=2)
        x = P("x", rng.normal(size=(6, 3)))  # 2 timestamps x 3 nodes
        neighbors = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=bool)

        def f():
            out = block_gat_encode(x.tensor, neighbors, params)
            return ad.sum_all(ad.mul(out, out))

        assert grad_check(f, [x, *ref.params_of(params)], eps=1e-5) < 1e-4

    def test_asymmetric_mask(self, rng):
        neighbors = np.eye(6, dtype=bool) | (rng.random((6, 6)) < 0.3)
        assert (neighbors != neighbors.T).any()
        self.assert_matches_loop(rng, neighbors, make_gat_params(4, heads=2, layers=2))

    def test_node_whose_only_neighbour_is_itself(self, rng):
        neighbors = np.ones((5, 5), dtype=bool)
        neighbors[2, :] = neighbors[:, 2] = False
        neighbors[2, 2] = True
        params = make_gat_params(4, heads=2)
        self.assert_matches_loop(rng, neighbors, params)
        h = rng.normal(size=(10, 4))
        out = block_gat_encode(Tensor(h), neighbors, params).values
        # attention weight 1 on itself: heads averaged over h W, then ELU
        pre = np.mean([h[[2, 7]] @ w for w, _ in head_slices(params.layers[0])], axis=0)
        npt.assert_allclose(out[[2, 7]], np.where(pre > 0, pre, np.expm1(pre)), atol=1e-12)

    def test_node_no_row_attends_to(self, rng):
        # column 0 is empty: node 0 is no row's neighbour, so as a source it
        # has no edges and its score-vector gradient segment is empty
        neighbors = np.ones((5, 5), dtype=bool)
        neighbors[:, 0] = False
        self.assert_matches_loop(rng, neighbors, make_gat_params(4, heads=2, layers=2))

    def test_three_heads_two_layers(self, rng):
        neighbors = np.eye(7, dtype=bool) | (rng.random((7, 7)) < 0.4)
        self.assert_matches_loop(rng, neighbors, make_gat_params(5, heads=3, layers=2), T=4)

    def test_float32_stays_float32(self, rng):
        params = make_gat_params(4, heads=2, layers=2)
        for p in ref.params_of(params):
            p.tensor.values = p.values.astype(np.float32)
        x = Parameter("x", Tensor(rng.normal(size=(10, 4)).astype(np.float32), requires_grad=True))
        neighbors = np.eye(5, dtype=bool) | (rng.random((5, 5)) < 0.4)
        out = block_gat_encode(x.tensor, neighbors, params)
        assert out.values.dtype == np.float32
        ad.sum_all(ad.mul(out, out)).backward()
        for p in (x, *ref.params_of(params)):
            assert p.tensor.grad.dtype == np.float32, p.name

    def test_row_without_neighbour_rejected(self, rng):
        neighbors = np.eye(4, dtype=bool)
        neighbors[1, 1] = False
        with pytest.raises(ShapeError, match="without a neighbour"):
            block_gat_encode(Tensor(rng.normal(size=(8, 3))), neighbors, make_gat_params(3))

    def test_two_hundred_nodes_ten_sectors(self, rng):
        symbols = [f"S{i:03d}" for i in range(200)]
        graph = build_graph(
            [(s, "sector", f"sec{k}") for s, k in zip(symbols, rng.integers(0, 10, 200))],
            stocks=symbols,
        )
        neighbors = graph.neighbor_mask(symbols)
        assert 0.05 < neighbors.mean() < 0.2
        self.assert_matches_loop(rng, neighbors, make_gat_params(8, heads=2), T=2)


def sector_mask(sectors, links=()):
    """Neighbour mask of stocks by sector (None: no sector) plus stock-stock links."""
    symbols = [f"S{i:03d}" for i in range(len(sectors))]
    edges = [(s, "sector", f"sec{k}") for s, k in zip(symbols, sectors) if k is not None]
    edges += [(symbols[a], "peer", symbols[b]) for a, b in links]
    return build_graph(edges, stocks=symbols).neighbor_mask(symbols)


def block_of(edges, nodes):
    """Block index of each node in the aggregation layout."""
    slot = np.arange(edges.n) if edges.node_slot is None else edges.node_slot
    return {int(i) // edges.m for i in slot[nodes]}


class TestComponentBlocks:
    """block_gat_encode against the per-timestamp loop on graphs whose
    connected components it packs into blocks; output and every gradient."""

    def check(self, rng, neighbors, T=3):
        params = make_gat_params(4, heads=2, layers=2, rng=rng)
        TestBlockGat().assert_matches_loop(rng, neighbors, params, T=T, tol=1e-12)
        return _GatEdges.from_mask(neighbors)

    def test_unequal_components_share_a_block(self, rng):
        # sectors of 4 and 2 plus two isolated stocks, interleaved: a block
        # for the 4, and the 2 and both singletons packed into a second one
        neighbors = sector_mask([0, 1, None, 0, 0, 1, None, 0])
        edges = self.check(rng, neighbors)
        assert (edges.m, edges.n_blocks) == (4, 2)
        assert block_of(edges, [0, 3, 4, 7]) != block_of(edges, [1, 2, 5, 6])
        assert len(block_of(edges, [1, 2, 5, 6])) == 1

    def test_stock_edge_merges_two_sectors(self, rng):
        sectors = [0, 1, 2, 0, 1, 3, 0, 1, 2, 3]
        assert _GatEdges.from_mask(sector_mask(sectors)).m == 3
        neighbors = sector_mask(sectors, links=[(0, 1)])  # S000 (sector 0) - S001 (sector 1)
        edges = self.check(rng, neighbors)
        assert (edges.m, edges.n_blocks) == (6, 2)
        assert len(block_of(edges, [0, 1, 3, 4, 6, 7])) == 1

    def test_directed_edge_joins_components(self, rng):
        neighbors = np.eye(9, dtype=bool)
        neighbors[np.ix_([0, 3, 6], [0, 3, 6])] = True
        neighbors[np.ix_([1, 4, 5], [1, 4, 5])] = True
        neighbors[1, 2] = True  # 1 attends to 2, which attends to no other node
        edges = self.check(rng, neighbors)
        assert edges.m == 4
        assert len(block_of(edges, [1, 2, 4, 5])) == 1

    def test_one_component_is_one_dense_block(self, rng):
        edges = self.check(rng, sector_mask([0] * 12))
        assert (edges.m, edges.n_blocks, edges.slot_node) == (12, 1, None)

    def test_large_component_with_singletons(self, rng):
        # blocks of 150 would need 2 * 150^2 > 200^2 entries: one block of all
        sectors = [None] * 200
        for i in rng.permutation(200)[:150]:
            sectors[i] = 0
        edges = self.check(rng, sector_mask(sectors), T=2)
        assert (edges.m, edges.n_blocks, edges.slot_node) == (200, 1, None)

    def test_padded_blocks_over_two_hundred_nodes(self, rng):
        edges = self.check(rng, sector_mask(list(rng.integers(0, 10, 200))), T=2)
        assert edges.n_blocks * edges.m > 200 and edges.n_blocks * edges.m**2 < 200**2
