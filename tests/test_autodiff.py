import numpy as np
import numpy.testing as npt
import pytest

from stockfuse import autodiff as ad
from stockfuse.autodiff import Parameter, Tensor, grad_check
from stockfuse.errors import NumericError, ShapeError

import reference as ref


def tensor_param(name, values):
    return Parameter(name, Tensor(np.asarray(values, dtype=np.float64), requires_grad=True))


class TestMatmul:
    def test_identity(self, rng):
        a = rng.normal(size=(3, 3))
        out = ad.matmul(Tensor(np.eye(3)), Tensor(a))
        npt.assert_array_equal(out.values, a)

    def test_hand_product(self):
        out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0], [1.0]]))
        npt.assert_array_equal(out.values, [[2.0], [4.0]])

    def test_triple_loop_oracle(self, rng):
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        expected = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    expected[i, j] += a[i, k] * b[k, j]
        out = ad.matmul(Tensor(a), Tensor(b))
        npt.assert_allclose(out.values, expected, atol=1e-12)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


class TestSoftmax:
    """The reference path's row softmax."""

    def test_zero_row_uniform(self):
        out = ref.softmax_rows(Tensor(np.zeros((1, 4))))
        npt.assert_allclose(out.values, [[0.25, 0.25, 0.25, 0.25]], atol=1e-15)

    def test_analytic_row(self):
        out = ref.softmax_rows(Tensor([[0.0, np.log(2.0)]]))
        npt.assert_allclose(out.values, [[1 / 3, 2 / 3]], atol=1e-15)

    def test_exp_sum_oracle(self, rng):
        x = rng.normal(size=(6, 6))
        expected = np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)
        out = ref.softmax_rows(Tensor(x))
        npt.assert_allclose(out.values, expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(25))
    def test_rows_sum_to_one_over_wide_range(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-50.0, 50.0, size=(rng.integers(1, 8), rng.integers(1, 9)))
        out = ref.softmax_rows(Tensor(x))
        npt.assert_allclose(out.values.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(out.values >= 0)

    def test_extreme_inputs_stay_finite(self):
        out = ref.softmax_rows(Tensor([[1000.0, -1000.0, 0.0]]))
        assert np.all(np.isfinite(out.values))


def test_forward_ops_deterministic(rng):
    x = rng.normal(size=(5, 4))
    first = ref.elu(ref.softmax_rows(ad.matmul(Tensor(x), Tensor(x.T)))).values
    second = ref.elu(ref.softmax_rows(ad.matmul(Tensor(x), Tensor(x.T)))).values
    assert np.array_equal(first, second)


def test_debug_mode_flags_nonfinite():
    with pytest.raises(NumericError), np.errstate(over="ignore"):
        ad.scale(Tensor([[1e308]]), 1e308)


def test_no_grad_blocks_tape():
    p = tensor_param("w", [[1.0, 2.0]])
    with ad.no_grad():
        out = ad.sum_all(ad.mul(p.tensor, p.tensor))
    assert not out.requires_grad and out._backward is None


def test_grad_accumulates_on_reuse():
    p = tensor_param("w", [[3.0]])
    out = ad.add(ad.mul(p.tensor, p.tensor), p.tensor)  # w^2 + w
    out.backward()
    npt.assert_allclose(p.tensor.grad, [[7.0]])

    # add passes its upstream gradient on unchanged, so the two operands of
    # one add must not end up sharing that array as their gradient
    x = tensor_param("x", [[1.0, -2.0]])
    ad.sum_all(ad.scale(ad.add(x.tensor, x.tensor), 3.0)).backward()
    npt.assert_array_equal(x.tensor.grad, [[6.0, 6.0]])

    x.zero_grad()
    y = tensor_param("y", [[0.5, 4.0]])
    left = ad.add(x.tensor, y.tensor)  # x read by two adds, one of them a sum with itself
    right = ad.add(ad.scale(x.tensor, 2.0), x.tensor)
    ad.sum_all(ad.mul(ad.add(left, right), Tensor([[1.0, 10.0]]))).backward()
    npt.assert_array_equal(x.tensor.grad, [[4.0, 40.0]])
    npt.assert_array_equal(y.tensor.grad, [[1.0, 10.0]])


class TestGradCheck:
    def test_quadratic(self):
        w = tensor_param("w", [[1.0, 2.0]])
        err = grad_check(lambda: ad.sum_all(ad.mul(w.tensor, w.tensor)), [w], eps=1e-5)
        npt.assert_allclose(w.tensor.grad, [[2.0, 4.0]])
        assert err < 1e-8

    def test_eps_domain(self):
        w = tensor_param("w", [[1.0]])
        with pytest.raises(ValueError):
            grad_check(lambda: ad.sum_all(w.tensor), [w], eps=1e-2)

    def test_nonfinite_reports_parameter(self):
        # w^2 * 1e308 sits just under the float64 ceiling; the upward
        # perturbation overflows to inf while the base point stays finite
        w = tensor_param("spiky", [[np.sqrt(1.79765)]])

        def f():
            return ad.scale(ad.mul(w.tensor, w.tensor), 1e308)

        ad.set_debug_checks(False)
        with pytest.raises(NumericError, match="spiky"), np.errstate(over="ignore"):
            grad_check(f, [w], eps=1e-4)


# every op's analytic gradient vs central differences, many seeds; the
# reference path's own ops included
def _op_cases(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    c = rng.normal(size=(3, 4))
    row = rng.normal(size=(1, 4))
    col = rng.normal(size=(3, 1))
    idx = rng.integers(0, 3, size=6)
    bias = rng.normal(size=(1, 2))
    tall = rng.normal(size=(6, 4))
    return [
        ("matmul", (a, b), lambda x, y: ad.matmul(x, y)),
        ("affine", (a, b, bias), lambda x, w, c: ad.affine(x, w, c)),
        ("block_transpose", (tall,), lambda x: ad.block_transpose(x, 3)),
        ("add", (a, c), lambda x, y: ad.add(x, y)),
        ("add_row_broadcast", (a, row), lambda x, y: ad.add(x, y)),
        ("add_col_broadcast", (a, col), lambda x, y: ad.add(x, y)),
        ("mul", (a, c), lambda x, y: ad.mul(x, y)),
        ("mul_row_broadcast", (a, row), lambda x, y: ad.mul(x, y)),
        ("scale", (a,), lambda x: ad.scale(x, -1.7)),
        ("transpose", (a,), ad.transpose),
        ("concat_rows", (a, c), lambda x, y: ad.concat_rows([x, y])),
        ("concat_cols", (a, c), lambda x, y: ad.concat_cols([x, y])),
        ("slice_rows", (a,), lambda x: ad.slice_rows(x, 1, 3)),
        ("slice_cols", (a,), lambda x: ref.slice_cols(x, 1, 3)),
        ("gather_rows", (a,), lambda x: ad.gather_rows(x, idx)),
        ("sigmoid", (a,), ad.sigmoid),
        ("relu", (a,), ad.relu),
        ("leaky_relu", (a,), lambda x: ref.leaky_relu(x, 0.2)),
        ("elu", (a,), ref.elu),
        ("softmax_rows", (a,), ref.softmax_rows),
        ("log_softmax_rows", (a,), ad.log_softmax_rows),
        ("sum_all", (a,), ad.sum_all),
    ]


@pytest.mark.parametrize("seed", range(22))
def test_all_ops_match_central_differences(seed):
    rng = np.random.default_rng(100 + seed)
    for name, arrays, op in _op_cases(rng):
        params = [tensor_param(f"{name}{i}", arr) for i, arr in enumerate(arrays)]

        def scalar():
            out = op(*(p.tensor for p in params))
            return ad.sum_all(ad.mul(out, out))

        err = grad_check(scalar, params, eps=1e-5)
        assert err < 1e-4, f"{name} grad mismatch {err:.2e} (seed {seed})"


def test_tensor_rejects_non_2d():
    with pytest.raises(ShapeError):
        Tensor(np.ones(3))


def test_gather_and_scatter_roundtrip(rng):
    p = tensor_param("g", rng.normal(size=(5, 3)))
    idx = np.array([0, 2, 2, 4])
    out = ad.gather_rows(p.tensor, idx)
    ad.sum_all(out).backward()
    expected = np.zeros((5, 3))
    for i in idx:
        expected[i] += 1.0
    npt.assert_array_equal(p.tensor.grad, expected)


class TestGatherWindows:
    """2-D window indices: the per-column backward must equal np.add.at."""

    @staticmethod
    def _grads(idx, n_rows=16, d=3, seed=0):
        rng = np.random.default_rng(seed)
        p = tensor_param("table", rng.normal(size=(n_rows, d)))
        upstream = rng.normal(size=(np.asarray(idx).size, d))
        out = ad.gather_rows(p.tensor, idx)
        npt.assert_array_equal(out.values, p.values[np.asarray(idx).reshape(-1)])
        ad.sum_all(ad.mul(out, Tensor(upstream))).backward()
        expected = np.zeros((n_rows, d))
        np.add.at(expected, np.asarray(idx).reshape(-1), upstream)
        return p.tensor.grad, expected

    def test_distinct_windows(self):
        # date-major layout with 3 stocks: row = (start + j) * 3 + stock
        stock, start = np.array([0, 2, 1, 0]), np.array([0, 0, 1, 1])
        idx = (start[:, None] + np.arange(2)[None, :]) * 3 + stock[:, None]
        grad, expected = self._grads(idx)
        npt.assert_allclose(grad, expected, rtol=0, atol=1e-15)

    def test_duplicate_windows(self):
        stock, start = np.array([1, 1, 2, 1]), np.array([0, 0, 1, 2])
        idx = (start[:, None] + np.arange(3)[None, :]) * 3 + stock[:, None]
        grad, expected = self._grads(idx)
        npt.assert_allclose(grad, expected, rtol=0, atol=1e-15)

    def test_distinct_first_column_with_colliding_later_columns(self):
        idx = np.array([[0, 5], [1, 5], [2, 7]])
        grad, expected = self._grads(idx)
        npt.assert_allclose(grad, expected, rtol=0, atol=1e-15)

    def test_rejects_3d_index(self):
        with pytest.raises(ShapeError):
            ad.gather_rows(Tensor(np.zeros((4, 2))), np.zeros((1, 1, 1), dtype=int))


def _sigmoid_by_mask(x):
    """The masked two-branch formula sigmoid used before sigmoid_values."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sigmoid_bit_identical_to_masked_formula(dtype):
    rng = np.random.default_rng(5)
    x = np.concatenate([
        rng.normal(scale=6.0, size=4000),
        [0.0, -0.0, 40.0, -40.0, 800.0, -800.0, 1e-30, -1e-30],
    ]).astype(dtype).reshape(-1, 8)
    with np.errstate(over="ignore"):
        expected = _sigmoid_by_mask(x)
    out = ad.sigmoid(Tensor(x)).values
    assert out.dtype == dtype
    npt.assert_array_equal(out, expected)
    assert out[x == -800.0].max() == 0.0 and out[x == 800.0].min() == 1.0
