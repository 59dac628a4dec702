import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from probcast import autodiff as ad
from probcast.autodiff import Tensor
from probcast.nn import Adam

from gradcheck import check_gradients

GRAD_TOL = 1e-4


def away_from_kink(rng, shape, margin=0.05):
    x = rng.normal(size=shape)
    return x + np.sign(x) * margin


def assert_same_floats(actual, expected):
    """Same dtype, shape, values (NaN matching NaN) and sign bits, zeros included."""
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def special_values(dtype, rng):
    """±0, ±inf, ±NaN, ± the smallest subnormal and extremes, then random normals."""
    info = np.finfo(dtype)
    tiny = info.smallest_subnormal
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny,
                3 * tiny, -3 * tiny, info.max, -info.max, 1.0, -1.0]
    return np.concatenate([np.array(specials, dtype=dtype),
                           rng.normal(size=40).astype(dtype)])


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ad.tensor_sum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares_gradient(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        ad.tensor_sum(ad.square(x)).backward()
        assert x.grad[0] == pytest.approx(6.0)

    def test_backward_twice_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = ad.tensor_sum(ad.square(x))
        loss.backward()
        with pytest.raises(RuntimeError, match="backward already called"):
            loss.backward()

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            ad.square(x).backward()

    def test_gradients_accumulate_over_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        loss = ad.tensor_sum(ad.add(ad.square(x), ad.square(x)))
        loss.backward()
        assert x.grad[0] == pytest.approx(8.0)


class TestBackwardReleasesGraph:
    """backward drops each interior gradient and link once it is spent."""

    def test_interior_tensors_end_without_grad_or_parents(self):
        rng = np.random.default_rng(2)
        x = Tensor(away_from_kink(rng, (3, 4)), requires_grad=True)
        c = Tensor(rng.normal(size=(3, 4)))
        sq = ad.square(x)
        shifted = ad.add(sq, c)
        act = ad.leaky_relu(shifted)
        loss = ad.tensor_sum(act)
        loss.backward()
        for t in (sq, shifted, act, loss):
            assert t.grad is None
            assert t._parents == ()
        slope = np.where(x.data ** 2 + c.data >= 0, 1.0, 0.3)
        np.testing.assert_array_equal(x.grad, slope * (2.0 * x.data))
        assert c.grad is None

    def test_elementwise_chain_backward_holds_a_frontier(self):
        """Eight rectifiers over an 8 MB array: the backward peaks near two
        gradients, not nine, and leaves only the leaf's gradient behind."""
        x = Tensor(np.random.default_rng(3).normal(size=1 << 20), requires_grad=True)
        nbytes = x.data.nbytes
        tracemalloc.start()
        try:
            h = x
            for _ in range(8):
                h = ad.leaky_relu(h)
            loss = ad.tensor_sum(h)
            del h
            graph, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            loss.backward()
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - graph < 4 * nbytes, f"backward peak +{(peak - graph) / 1e6:.1f} MB"
        assert left < 2 * nbytes, f"{left / 1e6:.1f} MB left after backward"
        neg = 1.0
        for _ in range(8):
            neg = 0.3 * neg  # the vjps' product order
        np.testing.assert_array_equal(x.grad, np.where(x.data >= 0, 1.0, neg))


class TestGraphKeepsWhatVjpsRead:
    """A node links to its parents' nodes, so op outputs go once no name holds them."""

    @staticmethod
    def _block(hold):
        """conv -> batch norm -> rectifier -> dropout -> skip add -> MSE, then backward.

        Returns the parameters' gradients and the op outputs that were still
        alive right after the skip add ran. hold keeps every output named.
        """
        rng = np.random.default_rng(31)
        B, C, H, W, k = 2, 3, 4, 6, 3
        x = Tensor(rng.normal(size=(B, C, H, W)), requires_grad=True)
        params = [Tensor(rng.normal(size=(C, C, k, k)) * 0.4, requires_grad=True),
                  Tensor(rng.normal(size=C), requires_grad=True),
                  Tensor(rng.normal(size=C) + 1.0, requires_grad=True),
                  Tensor(rng.normal(size=C), requires_grad=True)]
        w, b, gamma, beta = params
        held, refs = [], {}

        def step(name, t):
            refs[name] = weakref.ref(t.data)
            if hold:
                held.append(t)
            return t

        h = step("conv", ad.conv2d(x, w, b))
        mean, var = h.data.mean(axis=(0, 2, 3)), h.data.var(axis=(0, 2, 3))
        h = step("norm", ad.batch_norm(h, gamma, beta, mean, var))
        h = step("rectifier", ad.leaky_relu(h))
        h = step("dropout", ad.dropout(h, 0.3, np.random.default_rng(5)))
        y = ad.add(x, h)
        del h
        alive = sorted(name for name, ref in refs.items() if ref() is not None)
        ad.mse_loss(y, rng.normal(size=(B, C, H, W))).backward()
        return [p.grad for p in [x] + params], alive

    def test_op_outputs_freed_once_the_next_op_has_run(self):
        grads, alive = self._block(hold=False)
        assert alive == []
        held_grads, held_alive = self._block(hold=True)
        assert held_alive == ["conv", "dropout", "norm", "rectifier"]
        for g, g_held in zip(grads, held_grads):
            assert_same_floats(g, g_held)

    def test_reassigned_vjp_routes_backward_after_its_tensor_is_gone(self):
        """A span shim sets out._vjp on an op's output; the node keeps the new
        function after the tensor itself is freed."""
        x = Tensor(np.arange(4.0) - 1.5, requires_grad=True)
        y = ad.leaky_relu(x)
        seen = []
        inner = y._vjp

        def wrapped(g):
            seen.append(g.copy())
            return inner(g)

        y._vjp = wrapped
        assert y._vjp is wrapped
        gone = weakref.ref(y.data)
        loss = ad.tensor_sum(ad.add(y, y))
        del y
        assert gone() is None
        loss.backward()
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], np.full(4, 2.0))
        np.testing.assert_array_equal(x.grad, [0.6, 0.6, 2.0, 2.0])


class TestNoGrad:
    def test_ops_record_no_graph_and_backward_raises(self):
        rng = np.random.default_rng(32)
        x = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)

        def loss():
            h = ad.dropout(ad.leaky_relu(ad.conv2d(x, w, b)), 0.2, np.random.default_rng(1))
            return ad.tensor_sum(ad.softmax(ad.add(x, h), axis=1))

        recorded = loss()
        with ad.no_grad():
            bare = loss()
        assert_same_floats(bare.data, recorded.data)
        assert not bare.requires_grad
        assert bare._parents == () and bare._vjp is None and bare.grad is None
        with pytest.raises(RuntimeError, match="no graph"):
            bare.backward()
        with pytest.raises(RuntimeError, match="no graph"):
            bare._vjp = lambda g: (g,)
        assert w.grad is None
        recorded.backward()
        assert w.grad is not None

    def test_recording_resumes_after_the_block(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(KeyError):
            with ad.no_grad():
                raise KeyError("inside")
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert not ad.square(x).requires_grad
        assert ad.square(x).requires_grad
        with ad.no_grad():
            leaf = Tensor(np.ones(2), requires_grad=True)
        assert leaf.requires_grad

    def test_switch_is_per_thread(self):
        x = Tensor(np.ones(3), requires_grad=True)
        seen = []
        other = threading.Thread(target=lambda: seen.append(ad.square(x).requires_grad))
        with ad.no_grad():
            other.start()
            other.join(timeout=10)
            assert not ad.square(x).requires_grad
        assert not other.is_alive()
        assert seen == [True]


class TestLeakyRelu:
    def test_positive_passthrough(self):
        y = ad.leaky_relu(Tensor(np.array([2.0])))
        assert y.data[0] == 2.0

    def test_negative_slope_0p3(self):
        y = ad.leaky_relu(Tensor(np.array([-1.0])))
        assert y.data[0] == pytest.approx(-0.3)

    def test_gradient_at_negative_input(self):
        x = Tensor(np.array([-5.0]), requires_grad=True)
        ad.tensor_sum(ad.leaky_relu(x)).backward()
        assert x.grad[0] == pytest.approx(0.3)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(0)
        x = Tensor(away_from_kink(rng, (4, 5)), requires_grad=True)
        t = rng.normal(size=(4, 5))
        worst = check_gradients(lambda: ad.mse_loss(ad.leaky_relu(x), t), [x])
        assert worst < GRAD_TOL

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_bits_match_select_formula(self, dtype, alpha):
        rng = np.random.default_rng(21)
        xs = special_values(dtype, rng)
        g = rng.permutation(special_values(dtype, rng))
        x_before, g_before = xs.copy(), g.copy()
        y = ad.leaky_relu(Tensor(xs, requires_grad=True), alpha)
        (dx,) = y._vjp(g)
        pos = xs >= 0
        assert_same_floats(y.data, np.where(pos, xs, alpha * xs))
        assert_same_floats(dx, np.where(pos, g, alpha * g))
        assert_same_floats(xs, x_before)
        assert_same_floats(g, g_before)


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert ad.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            ad.dropout(Tensor(np.ones(3)), 1.0, np.random.default_rng(0))

    def test_large_sample_statistics(self):
        rng = np.random.default_rng(123)
        x = Tensor(np.ones(1_000_000))
        y = ad.dropout(x, 0.1, rng)
        dropped = float(np.mean(y.data == 0.0))
        assert abs(dropped - 0.1) < 1e-3
        assert abs(y.data.mean() - 1.0) < 0.005

    def test_deterministic_per_stream(self):
        x = Tensor(np.ones((100,)))
        a = ad.dropout(x, 0.3, np.random.default_rng(7)).data
        b = ad.dropout(x, 0.3, np.random.default_rng(7)).data
        np.testing.assert_array_equal(a, b)

    def test_gradient_through_mask(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)

        def loss():
            return ad.tensor_sum(ad.square(ad.dropout(x, 0.25,
                                                      np.random.default_rng(11))))

        assert check_gradients(loss, [x]) < GRAD_TOL


class TestSoftmax:
    def test_uniform_logits_uniform_density(self):
        z = Tensor(np.zeros((1, 100, 2, 2)))
        p = ad.softmax(z).data
        np.testing.assert_allclose(p, 0.01, rtol=1e-12)

    def test_two_class_example(self):
        z = Tensor(np.log(np.array([[1.0, 3.0]])))
        p = ad.softmax(z, axis=1).data
        np.testing.assert_allclose(p, [[0.25, 0.75]], rtol=1e-12)

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(5)
        z = rng.normal(scale=40.0, size=(3, 17, 4, 5))  # large logits stay stable
        p1 = ad.softmax(Tensor(z)).data
        p2 = ad.softmax(Tensor(z + 123.456)).data
        assert np.abs(p1.sum(axis=1) - 1.0).max() < 1e-9
        np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_jacobian_vector_product_matches_fd(self):
        rng = np.random.default_rng(8)
        z = Tensor(rng.normal(size=(2, 6, 2, 3)), requires_grad=True)
        t = rng.normal(size=(2, 6, 2, 3))
        worst = check_gradients(lambda: ad.mse_loss(ad.softmax(z), t), [z], h=1e-5)
        assert worst < 1e-5

    @staticmethod
    def reference(z, axis, out):
        e = np.subtract(z, z.max(axis=axis, keepdims=True), out=out)
        np.exp(e, out=e)
        e /= e.sum(axis=axis, keepdims=True)
        return e

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("out_kind", ["none", "separate", "in_place"])
    @pytest.mark.parametrize("lead, axis", [((9,), 1), ((2, 3, 4), 1), ((3, 4), -1)])
    @pytest.mark.parametrize("n", [10, 100])  # either side of the fold's row limit
    def test_bits_match_reduce_max_formula(self, dtype, out_kind, lead, axis, n):
        rng = np.random.default_rng(22)
        lanes = rng.normal(scale=3.0, size=lead + (n,)).astype(dtype)
        rows = lanes.reshape(-1, n)  # a view: one row per softmax lane
        rows[0] = [-0.0, 0.0, -1.0] + [-2.0] * (n - 3)  # maximum tied between -0 and +0
        rows[1] = [-3.0] * (n - 2) + [0.0, -0.0]
        rows[2, 4] = np.nan
        rows[3] = -np.inf
        rows[4, 1] = np.inf
        z = np.ascontiguousarray(np.moveaxis(lanes, -1, axis))
        z_before = z.copy()
        zs = [z, z.copy()]  # one for softmax_array, one for the reference
        outs = [{"none": None, "separate": np.full(z.shape, 7.0), "in_place": zi}[out_kind]
                for zi in zs]
        got = ad.softmax_array(zs[0], axis, out=outs[0])
        want = self.reference(zs[1], axis, outs[1])
        if out_kind != "none":
            assert got is outs[0]
        assert_same_floats(got, want)
        if out_kind != "in_place":
            assert_same_floats(z, z_before)
        assert np.isnan(np.moveaxis(got, axis, -1).reshape(-1, n)[2]).all()


class TestSparseCE:
    def test_uniform_density_gives_log_n(self):
        p = Tensor(np.full((1, 100, 1, 1), 0.01))
        bins = np.zeros((1, 1, 1), dtype=int)
        loss = ad.sparse_categorical_cross_entropy(p, bins)
        assert loss.item() == pytest.approx(np.log(100.0), rel=1e-12)

    def test_one_hot_correct_is_zero(self):
        p = np.zeros((1, 4, 1, 1))
        p[0, 2, 0, 0] = 1.0
        bins = np.full((1, 1, 1), 2)
        loss = ad.sparse_categorical_cross_entropy(Tensor(p), bins)
        assert abs(loss.item()) <= 1e-12

    def test_out_of_range_bin_rejected(self):
        p = Tensor(np.full((1, 4), 0.25))
        with pytest.raises(ValueError, match="out of range"):
            ad.sparse_categorical_cross_entropy(p, np.array([4]))

    def test_matches_bruteforce_and_fd(self):
        rng = np.random.default_rng(9)
        raw = rng.random((3, 5, 2, 2)) + 0.05
        probs = raw / raw.sum(axis=1, keepdims=True)
        bins = rng.integers(0, 5, size=(3, 2, 2))
        t = Tensor(probs.copy(), requires_grad=True)
        loss = ad.sparse_categorical_cross_entropy(t, bins)
        total = 0.0
        for b in range(3):
            for j in range(2):
                for k in range(2):
                    total += -np.log(probs[b, bins[b, j, k], j, k])
        assert loss.item() == pytest.approx(total / 12, rel=1e-12)

        worst = check_gradients(
            lambda: ad.sparse_categorical_cross_entropy(t, bins), [t])
        assert worst < GRAD_TOL


class TestMse:
    def test_equal_inputs_zero(self):
        x = np.ones((3, 3))
        assert ad.mse_loss(Tensor(x), x).item() == 0.0

    def test_constant_offset(self):
        a = Tensor(np.full((2, 5), 3.0))
        b = np.full((2, 5), 1.0)
        assert ad.mse_loss(a, b).item() == pytest.approx(4.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.mse_loss(Tensor(np.ones((2, 2))), np.ones((2, 3)))

    def test_matches_oracle_and_fd(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(4, 6))
        t = Tensor(a.copy(), requires_grad=True)
        assert ad.mse_loss(t, b).item() == pytest.approx(
            float(((a - b) ** 2).mean()), rel=1e-12)
        assert check_gradients(lambda: ad.mse_loss(t, b), [t]) < GRAD_TOL


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 1, 4, 6))
        w = Tensor(np.ones((1, 1, 1, 1)))
        b = Tensor(np.zeros(1))
        y = ad.conv2d(Tensor(x), w, b).data
        np.testing.assert_allclose(y, x, atol=1e-15)

    def test_impulse_wraps_longitude_but_not_latitude(self):
        H, W = 4, 8
        x = np.zeros((1, 1, H, W))
        x[0, 0, 0, 0] = 1.0  # at the latitude edge, longitude 0
        w = Tensor(np.ones((1, 1, 3, 3)))
        b = Tensor(np.zeros(1))
        y = ad.conv2d(Tensor(x), w, b).data[0, 0]
        assert y[0, W - 1] == 1.0   # wrapped around the longitude seam
        assert y[1, W - 1] == 1.0
        assert y[0, 0] == 1.0       # zero-padded above the top row: single copy
        assert y[2, 0] == 0.0       # beyond the kernel reach

    def test_channel_mismatch(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        w = Tensor(np.zeros((2, 2, 3, 3)))
        with pytest.raises(ValueError, match="channel mismatch"):
            ad.conv2d(x, w, Tensor(np.zeros(2)))

    def test_linearity_without_bias(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 2, 5, 7))
        y = rng.normal(size=(1, 2, 5, 7))
        w = Tensor(rng.normal(size=(3, 2, 5, 5)))
        b = Tensor(np.zeros(3))
        lhs = ad.conv2d(Tensor(2.5 * x + 0.5 * y), w, b).data
        rhs = (2.5 * ad.conv2d(Tensor(x), w, b).data
               + 0.5 * ad.conv2d(Tensor(y), w, b).data)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_longitude_shift_equivariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 6, 10))
        w = Tensor(rng.normal(size=(2, 3, 5, 5)))
        b = Tensor(rng.normal(size=2))
        base = ad.conv2d(Tensor(x), w, b).data
        for shift in (1, 3, 7):
            shifted = ad.conv2d(Tensor(np.roll(x, shift, axis=3)), w, b).data
            np.testing.assert_allclose(shifted, np.roll(base, shift, axis=3),
                                       atol=1e-12)

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 3, 4, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3, 3, 3)) * 0.4, requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        t = rng.normal(size=(2, 2, 4, 6))
        worst = check_gradients(lambda: ad.mse_loss(ad.conv2d(x, w, b), t),
                                [x, w, b])
        assert worst < GRAD_TOL


def conv2d_materialized(x, w, b, g):
    """Reference conv2d: the whole (B, C*k*k, H*W) im2col tensor, built at once.

    Returns the output and (dx, dw, db) for the output gradient g.
    """
    B, C, H, W = x.shape
    C_out, _, k, _ = w.shape
    p = k // 2
    xpad = ad._pad_periodic(x, p)
    win = np.lib.stride_tricks.sliding_window_view(xpad, (k, k), axis=(2, 3))
    cols = np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)).reshape(B, C * k * k, H * W)
    w2 = w.reshape(C_out, C * k * k)
    out = (np.matmul(w2, cols) + b[:, None]).reshape(B, C_out, H, W)
    if g is None:
        return out, None
    gflat = g.reshape(B, C_out, H * W)
    dw = np.einsum("bij,bkj->ik", gflat, cols).reshape(w.shape)
    db = gflat.sum(axis=(0, 2))
    d6 = np.matmul(w2.T, gflat).reshape(B, C, k, k, H, W)
    dxpad = np.zeros_like(xpad)
    for di in range(k):
        for dj in range(k):
            dxpad[:, :, di:di + H, dj:dj + W] += d6[:, :, di, dj]
    main = dxpad[:, :, p:p + H, :]
    dx = main[..., p:p + W].copy()
    if p:
        dx[..., :p] += main[..., p + W:]
        dx[..., W - p:] += main[..., :p]
    return out, (dx, dw, db)


def assert_bit_identical(actual, expected):
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


class TestConv2dBitIdentity:
    """conv2d streams its im2col per sample; every output keeps the batched bits."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("B", [1, 7, 32])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("C_in", [2, 10])
    @pytest.mark.parametrize("C_out", [1, 10])
    def test_matches_materialized_im2col(self, dtype, B, k, C_in, C_out):
        rng = np.random.default_rng(1000 * B + 100 * k + 10 * C_in + C_out)
        x = Tensor(rng.normal(size=(B, C_in, 6, 12)).astype(dtype), requires_grad=True)
        w = Tensor((rng.normal(size=(C_out, C_in, k, k)) * 0.3).astype(dtype),
                   requires_grad=True)
        b = Tensor(rng.normal(size=C_out).astype(dtype), requires_grad=True)
        t = rng.normal(size=(B, C_out, 6, 12)).astype(dtype)

        y = ad.conv2d(x, w, b)
        ad.mse_loss(y, t).backward()

        ref_out, _ = conv2d_materialized(x.data, w.data, b.data, None)
        g = (2.0 / ref_out.size) * (ref_out - t)  # mse_loss's vjp
        _, (dx, dw, db) = conv2d_materialized(x.data, w.data, b.data, g)
        assert_bit_identical(y.data, ref_out)
        assert_bit_identical(x.grad, dx)
        assert_bit_identical(w.grad, dw)
        assert_bit_identical(b.grad, db)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_input_without_grad(self, dtype):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(7, 10, 6, 12)).astype(dtype))
        w = Tensor((rng.normal(size=(10, 10, 5, 5)) * 0.3).astype(dtype),
                   requires_grad=True)
        b = Tensor(rng.normal(size=10).astype(dtype), requires_grad=True)

        y = ad.conv2d(x, w, b)
        ad.tensor_sum(y).backward()

        ref_out, (_, dw, db) = conv2d_materialized(x.data, w.data, b.data,
                                                   np.ones_like(y.data))
        assert x.grad is None
        assert_bit_identical(y.data, ref_out)
        assert_bit_identical(w.grad, dw)
        assert_bit_identical(b.grad, db)


def test_conv2d_keeps_no_column_tensor():
    """Three chained convs: forward and backward peak below two batch im2col tensors,
    and the backward alone below half of one."""
    B, C, H, W, k = 16, 10, 16, 32, 5
    column_bytes = B * C * k * k * H * W * 4  # one f32 (B, C*k*k, H*W) tensor: 8.2 MB
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(B, C, H, W)).astype(np.float32), requires_grad=True)
    layers = [(Tensor((rng.normal(size=(C, C, k, k)) * 0.05).astype(np.float32),
                      requires_grad=True),
               Tensor(np.zeros(C, dtype=np.float32), requires_grad=True))
              for _ in range(3)]

    def loss():
        h = x
        for w, b in layers:
            h = ad.conv2d(h, w, b)
        return ad.tensor_sum(h)

    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak = traced_peak(lambda: loss().backward())
    assert x.grad is not None
    assert peak < 2 * column_bytes, f"traced peak {peak / 1e6:.1f} MB"

    x.zero_grad()
    backward_peak = traced_peak(loss().backward)
    assert x.grad is not None
    assert backward_peak < column_bytes / 2, f"traced backward peak {backward_peak / 1e6:.1f} MB"


def test_conv2d_graph_holds_no_padded_input():
    """After the forward, the graph holds the output but no padded copy of x."""
    B, C, H, W, k = 4, 16, 32, 64, 5
    p = k // 2
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(B, C, H, W)), requires_grad=True)
    w = Tensor(rng.normal(size=(1, C, k, k)), requires_grad=True)
    b = Tensor(np.zeros(1), requires_grad=True)
    pad_bytes = B * C * (H + 2 * p) * (W + 2 * p) * 8  # 1.25 MB
    tracemalloc.start()
    try:
        y = ad.conv2d(x, w, b)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < y.data.nbytes + pad_bytes / 2, f"graph holds {held / 1e6:.2f} MB"


def test_conv2d_adds_bias_in_place():
    """At paper shape, a forward under no_grad makes one output, not a second for the bias."""
    B, C, H, W, k = 8, 100, 16, 32, 5
    p = k // 2
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(B, C, H, W)).astype(np.float32))
    w = Tensor((rng.normal(size=(C, C, k, k)) * 0.02).astype(np.float32))
    b = Tensor(rng.normal(size=C).astype(np.float32))
    out_bytes = B * C * H * W * 4
    budget = (out_bytes                                     # the output
              + C * k * k * H * W * 4                       # one sample's im2col buffer
              + B * C * (H + 2 * p) * (W + 2 * p) * 4       # the padded input
              + out_bytes // 2)                             # 9.88 MB in all
    tracemalloc.start()
    try:
        with ad.no_grad():
            y = ad.conv2d(x, w, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert y.data.dtype == np.float32
    assert peak < budget, f"traced peak {peak / 1e6:.2f} MB, budget {budget / 1e6:.2f} MB"


class TestNormLayers:
    def test_batch_norm_gradients(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(3, 2, 3, 4)), requires_grad=True)
        gamma = Tensor(rng.normal(size=2) + 1.0, requires_grad=True)
        beta = Tensor(rng.normal(size=2), requires_grad=True)
        t = rng.normal(size=(3, 2, 3, 4))

        def loss():
            mean = x.data.mean(axis=(0, 2, 3))
            var = x.data.var(axis=(0, 2, 3))
            return ad.mse_loss(ad.batch_norm(x, gamma, beta, mean, var), t)

        assert check_gradients(loss, [x, gamma, beta]) < GRAD_TOL

    def test_batch_norm_inference_is_affine(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 3, 2, 2))
        gamma = Tensor(np.ones(3))
        beta = Tensor(np.zeros(3))
        mean = np.array([0.5, -0.2, 0.0])
        var = np.array([2.0, 1.0, 0.5])
        y = ad.batch_norm(Tensor(x), gamma, beta, mean, var, eps=0.0,
                          stats_from_batch=False).data
        expect = (x - mean.reshape(1, 3, 1, 1)) / np.sqrt(var).reshape(1, 3, 1, 1)
        np.testing.assert_allclose(y, expect, rtol=1e-12)

    def test_layer_norm_gradients(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(2, 3, 2, 3)), requires_grad=True)
        gamma = Tensor(rng.normal(size=3) + 1.0, requires_grad=True)
        beta = Tensor(rng.normal(size=3), requires_grad=True)
        t = rng.normal(size=(2, 3, 2, 3))
        worst = check_gradients(lambda: ad.mse_loss(ad.layer_norm(x, gamma, beta), t),
                                [x, gamma, beta])
        assert worst < GRAD_TOL


class TestDense:
    def test_gradients_match_fd(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        bins = rng.integers(0, 5, size=7)

        def loss():
            return ad.sparse_categorical_cross_entropy(
                ad.softmax(ad.dense(x, w, b), axis=1), bins)

        assert check_gradients(loss, [x, w, b]) < GRAD_TOL

    @pytest.mark.parametrize("dtypes", [(np.float32, np.float32), (np.float64, np.float64),
                                        (np.float32, np.float64)])
    def test_bits_match_matmul_plus_bias(self, dtypes):
        xw_dtype, b_dtype = dtypes
        rng = np.random.default_rng(23)
        x = rng.normal(size=(33, 6)).astype(xw_dtype)
        w = rng.normal(size=(6, 7)).astype(xw_dtype)
        b = rng.normal(size=7).astype(b_dtype)
        b[0] = -0.0
        before = [a.copy() for a in (x, w, b)]
        out = ad.dense(Tensor(x), Tensor(w), Tensor(b)).data
        assert_same_floats(out, x @ w + b)
        for a, a0 in zip((x, w, b), before):
            assert_same_floats(a, a0)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam([("p", p)], learning_rate=0.1)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        assert opt.step_count == 1

    def test_first_step_magnitude_is_learning_rate(self):
        p = Tensor(np.array([5.0]), requires_grad=True)
        opt = Adam([("p", p)], learning_rate=3e-4)
        p.grad = np.array([1.0])
        opt.step()
        assert abs(5.0 - p.data[0]) == pytest.approx(3e-4, rel=1e-6)

    def test_quadratic_bowl_descends(self):
        p = Tensor(np.full(5, 3.0), requires_grad=True)
        opt = Adam([("p", p)], learning_rate=0.05)
        losses = []
        for _ in range(100):
            losses.append(float((p.data ** 2).sum()))
            p.grad = 2.0 * p.data
            opt.step()
        losses.append(float((p.data ** 2).sum()))
        for k in range(5, 100):
            assert losses[k + 1] < losses[k]

    def test_nan_gradient_names_parameter(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = Adam([("block0.conv.w", p)], learning_rate=0.1)
        p.grad = np.array([np.nan, 0.0])
        with pytest.raises(FloatingPointError, match="block0.conv.w"):
            opt.step()


class TestGradientAudit20Seeds:
    def test_all_ops_over_20_seeds(self):
        """Per-op audit: f64, h=1e-4, relative error < 1e-4, 20 seeds."""
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            x = Tensor(away_from_kink(rng, (2, 3, 3, 4)), requires_grad=True)
            w = Tensor(rng.normal(size=(2, 3, 3, 3)) * 0.5, requires_grad=True)
            b = Tensor(rng.normal(size=2), requires_grad=True)
            gamma = Tensor(rng.normal(size=3) + 1.5, requires_grad=True)
            beta = Tensor(rng.normal(size=3), requires_grad=True)
            t = rng.normal(size=(2, 2, 3, 4))
            t3 = rng.normal(size=(2, 3, 3, 4))
            bins = rng.integers(0, 2, size=(2, 3, 4))

            def conv_loss():
                return ad.mse_loss(ad.conv2d(x, w, b), t)

            def act_loss():
                return ad.mse_loss(ad.leaky_relu(x), t3)

            def bn_loss():
                mean = x.data.mean(axis=(0, 2, 3))
                var = x.data.var(axis=(0, 2, 3))
                return ad.mse_loss(ad.batch_norm(x, gamma, beta, mean, var), t3)

            def ln_loss():
                return ad.mse_loss(ad.layer_norm(x, gamma, beta), t3)

            def softmax_ce_loss():
                return ad.sparse_categorical_cross_entropy(
                    ad.softmax(ad.conv2d(x, w, b)), bins)

            def drop_loss():
                return ad.tensor_sum(ad.square(
                    ad.dropout(x, 0.2, np.random.default_rng(seed))))

            worst = max(worst,
                        check_gradients(conv_loss, [x, w, b]),
                        check_gradients(act_loss, [x]),
                        check_gradients(bn_loss, [x, gamma, beta]),
                        check_gradients(ln_loss, [x, gamma, beta]),
                        check_gradients(softmax_ce_loss, [x, w, b]),
                        check_gradients(drop_loss, [x]))
        assert worst < GRAD_TOL
