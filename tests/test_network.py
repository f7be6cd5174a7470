"""Unit tests for the network engine against hand-computed values.

The [2,2,1] reference numbers below were computed independently at 40
significant digits (straight-line arithmetic, no reuse of the library
code) and frozen here as decimal literals.
"""

import numpy as np
import pytest

from churnnet import (
    ConfigError,
    LearningParams,
    Network,
    ShapeError,
    backward,
    forward,
    forward_batch,
    init_network,
    sigmoid,
    squared_error,
    train_example,
)
from churnnet.network import (
    SIGMOID_CLAMP,
    LockstepBatch,
    _sigmoid_into,
    apply_updates,
    hidden_deltas,
    output_deltas,
)


def reference_net() -> Network:
    """Fixed [2,2,1] net used by the frozen-value tests."""
    return Network(
        [2, 2, 1],
        [np.array([[0.1, -0.3], [0.2, 0.4]]), np.array([[0.5], [-0.25]])],
        [np.array([0.05, -0.05]), np.array([0.1])],
    )


class TestSigmoid:
    def test_known_values(self):
        assert sigmoid(0.0) == 0.5
        assert sigmoid(1.0) == pytest.approx(0.7310585786300048792512, rel=1e-15)
        assert sigmoid(-1.0) == pytest.approx(1 - 0.7310585786300048792512, rel=1e-15)

    def test_mpmath_cross_check(self):
        mpmath = pytest.importorskip("mpmath")
        for x in (-7.25, -2.0, -0.3, 0.9, 4.0, 20.0):
            expected = float(1 / (1 + mpmath.exp(-mpmath.mpf(x))))
            assert sigmoid(x) == pytest.approx(expected, rel=1e-15)

    def test_symmetry(self):
        x = np.linspace(-30, 30, 301)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-15)

    def test_saturation_is_finite(self):
        for x in (-1e6, -750.0, 750.0, 1e6, np.inf, -np.inf):
            y = float(sigmoid(x))
            assert np.isfinite(y)
            assert 0.0 <= y <= 1.0
        assert sigmoid(750.0) > 1 - 1e-12
        assert sigmoid(-750.0) < 1e-12

    def test_monotonic(self):
        x = np.linspace(-10, 10, 1001)
        assert np.all(np.diff(sigmoid(x)) > 0)

    def test_in_place_form_matches_bit_for_bit(self):
        # the lockstep step's sigmoid skips the upper clamp
        edges = [np.inf, 1e308, 501.0, 500.0, 37.0, 0.0, -0.0, np.nan]
        z = np.array(edges + [-e for e in edges]
                     + list(np.random.default_rng(0).normal(0.0, 40.0, 2000)))
        out = np.empty_like(z)
        _sigmoid_into(z.copy(), out, np.full(z.size, -SIGMOID_CLAMP), np.ones(z.size))
        assert out.tobytes() == sigmoid(z).tobytes()

    def test_derivative_identity(self):
        # d/dx sigmoid = y(1-y), checked against central differences
        h = 1e-5
        for x in (-4.0, -1.3, 0.0, 0.4, 2.9, 6.0):
            numeric = (sigmoid(x + h) - sigmoid(x - h)) / (2 * h)
            y = sigmoid(x)
            assert numeric == pytest.approx(y * (1 - y), rel=1e-6)


class TestInit:
    def test_shapes(self):
        net = init_network([3, 5, 2], seed=0)
        assert net.layer_sizes == [3, 5, 2]
        assert [w.shape for w in net.weights] == [(3, 5), (5, 2)]
        assert [t.shape for t in net.thresholds] == [(5,), (2,)]
        assert net.n_params == 3 * 5 + 5 * 2 + 5 + 2

    def test_range_and_spread(self):
        net = init_network([10, 20, 10], seed=3)
        flat = np.concatenate([w.ravel() for w in net.weights] + net.thresholds)
        assert np.all(flat >= -0.5) and np.all(flat <= 0.5)
        # 430 uniform draws shouldn't all crowd one half-interval
        assert flat.min() < -0.25 and flat.max() > 0.25

    def test_same_seed_same_net(self):
        a = init_network([4, 3, 2], seed=11)
        b = init_network([4, 3, 2], seed=11)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        for ta, tb in zip(a.thresholds, b.thresholds):
            np.testing.assert_array_equal(ta, tb)

    def test_different_seed_different_net(self):
        a = init_network([4, 3, 2], seed=11)
        b = init_network([4, 3, 2], seed=12)
        assert any(not np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))

    def test_fresh_momentum_buffers_zero(self):
        net = init_network([2, 2, 1], seed=0)
        assert all(np.all(p == 0) for p in net.prev_weight_update)
        assert all(np.all(p == 0) for p in net.prev_threshold_update)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigError):
            init_network([3], seed=0)
        with pytest.raises(ConfigError):
            init_network([3, 0, 2], seed=0)


class TestForward:
    def test_frozen_reference_values(self):
        acts = forward(reference_net(), np.array([1.0, 0.5]))
        np.testing.assert_allclose(
            acts.layers[1],
            [0.5621765008857981040273, 0.462570154656250450555],
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            acts.output, [0.5659744940378499370921], rtol=1e-12
        )

    def test_activations_in_open_interval(self):
        rng = np.random.default_rng(5)
        net = init_network([6, 4, 3], seed=9)
        for _ in range(20):
            acts = forward(net, rng.random(6))
            for layer in acts.layers[1:]:
                assert np.all(layer > 0.0) and np.all(layer < 1.0)

    def test_batch_matches_single(self):
        # matrix-matrix and vector-matrix products may differ by an ulp
        net = init_network([5, 4, 2], seed=21)
        rng = np.random.default_rng(2)
        x = rng.random((7, 5))
        batch = forward_batch(net, x)
        for i in range(7):
            np.testing.assert_allclose(
                batch[i], forward(net, x[i]).output, rtol=1e-14, atol=0
            )

    def test_batch_rows_do_not_depend_on_their_neighbours(self):
        net = init_network([20, 3, 2], seed=4)
        x = np.random.default_rng(5).random((101, 20))
        whole = forward_batch(net, x)
        for size in (1, 2, 3, 5, 7, 33):
            parts = np.concatenate([forward_batch(net, x[s:s + size])
                                    for s in range(0, len(x), size)])
            assert parts.tobytes() == whole.tobytes(), size

    def test_shape_mismatch(self):
        net = init_network([3, 2, 1], seed=0)
        with pytest.raises(ShapeError):
            forward(net, np.array([1.0, 2.0]))
        with pytest.raises(ShapeError):
            forward_batch(net, np.zeros((4, 2)))


class TestDeltas:
    def test_output_delta_values(self):
        # y(1-y)(D-y): 0.5*0.5*(1-0.5) = 0.125 and 0.9*0.1*(0-0.9) = -0.081
        class FakeActs:
            output = np.array([0.5, 0.9])

        d = output_deltas(FakeActs(), np.array([1.0, 0.0]))
        np.testing.assert_allclose(d, [0.125, -0.081], rtol=1e-12)

    def test_hidden_delta_value(self):
        # y=0.5 under a single weight 1.0 to a downstream delta 0.2:
        # 0.5*0.5*1.0*0.2 = 0.05
        net = Network(
            [1, 1, 1], [np.array([[2.0]]), np.array([[1.0]])],
            [np.array([0.0]), np.array([0.0])],
        )

        class FakeActs:
            layers = [np.array([0.3]), np.array([0.5]), np.array([0.7])]

        d = hidden_deltas(net, FakeActs(), np.array([0.2]), layer=1)
        np.testing.assert_allclose(d, [0.05], rtol=1e-12)

    def test_backward_frozen_reference_values(self):
        net = reference_net()
        acts = forward(net, np.array([1.0, 0.5]))
        deltas = backward(net, acts, np.array([1.0]))
        np.testing.assert_allclose(
            deltas.layers[1], [0.1066172223756421100779], rtol=1e-12
        )
        np.testing.assert_allclose(
            deltas.layers[0],
            [0.01312106611672960848648, -0.006626233894325834707353],
            rtol=1e-12,
        )

    def test_perfect_output_zero_deltas(self):
        net = reference_net()
        acts = forward(net, np.array([1.0, 0.5]))
        deltas = backward(net, acts, acts.output.copy())
        for layer in deltas.layers:
            np.testing.assert_allclose(layer, 0.0, atol=1e-15)


class TestUpdates:
    def test_single_step_frozen_reference_values(self):
        net = reference_net()
        acts = forward(net, np.array([1.0, 0.5]))
        deltas = backward(net, acts, np.array([1.0]))
        apply_updates(net, acts, deltas, LearningParams(eta=0.5, alpha=0.0))
        assert net.weights[1][0, 0] == pytest.approx(0.5299688485046507500666, rel=1e-12)
        assert net.weights[1][1, 0] == pytest.approx(-0.2253410274783396915357, rel=1e-12)
        assert net.thresholds[1][0] == pytest.approx(0.1533086111878210550389, rel=1e-12)
        assert net.weights[0][0, 0] == pytest.approx(0.1065605330583648042432, rel=1e-12)
        assert net.weights[0][1, 1] == pytest.approx(0.3983434415264185413232, rel=1e-12)
        assert net.thresholds[0][1] == pytest.approx(-0.05331311694716291735368, rel=1e-12)

    def test_buffers_hold_total_applied_change(self):
        net = init_network([3, 4, 2], seed=8)
        before = net.copy()
        x, t = np.array([0.2, 0.8, 0.5]), np.array([1.0, 0.0])
        train_example(net, x, t, LearningParams(eta=0.4, alpha=0.7))
        for k in range(2):
            np.testing.assert_allclose(
                net.weights[k] - before.weights[k], net.prev_weight_update[k],
                rtol=1e-12, atol=1e-15,
            )
            np.testing.assert_allclose(
                net.thresholds[k] - before.thresholds[k], net.prev_threshold_update[k],
                rtol=1e-12, atol=1e-15,
            )

    def test_momentum_recurrence_two_steps(self):
        # dw_2 must equal eta*grad_2 + alpha*dw_1, with dw_1 the entire
        # first-step change. Replay the second step from a buffer snapshot.
        params = LearningParams(eta=0.3, alpha=0.5)
        x, t = np.array([0.9, 0.1]), np.array([0.0, 1.0])

        net = init_network([2, 3, 2], seed=4)
        train_example(net, x, t, params)
        first_change = [w.copy() for w in net.prev_weight_update]
        snapshot = net.copy()

        train_example(net, x, t, params)
        acts = forward(snapshot, x)
        deltas = backward(snapshot, acts, t)
        for k in range(2):
            expected = (
                params.eta * np.outer(acts.layers[k], deltas.layers[k])
                + params.alpha * first_change[k]
            )
            np.testing.assert_allclose(
                net.prev_weight_update[k], expected, rtol=1e-12, atol=1e-15
            )

    def test_alpha_zero_is_momentum_free(self):
        # with alpha=0 the previous change must not leak into the update
        params = LearningParams(eta=0.5, alpha=0.0)
        x, t = np.array([0.3, 0.7]), np.array([1.0])

        net = init_network([2, 2, 1], seed=6)
        train_example(net, x, t, params)
        snapshot = net.copy()
        train_example(net, x, t, params)

        fresh = snapshot.copy()
        for k in range(2):
            fresh.prev_weight_update[k][:] = 123.0  # must be ignored
            fresh.prev_threshold_update[k][:] = -7.0
        train_example(fresh, x, t, params)
        for k in range(2):
            np.testing.assert_array_equal(net.weights[k], fresh.weights[k])
            np.testing.assert_array_equal(net.thresholds[k], fresh.thresholds[k])

    def test_error_reported_before_update(self):
        net = reference_net()
        x, t = np.array([1.0, 0.5]), np.array([1.0])
        expected = squared_error(forward(net, x).output, t)
        got = train_example(net, x, t, LearningParams(eta=0.9, alpha=0.0))
        assert got == expected
        assert got == pytest.approx(0.09418906991285017990223, rel=1e-12)


class TestParams:
    def test_valid_ranges(self):
        LearningParams(eta=1.0, alpha=0.0)
        LearningParams(eta=0.001, alpha=0.99)

    @pytest.mark.parametrize("eta,alpha", [(0.0, 0.5), (1.5, 0.5), (0.3, 1.0), (0.3, -0.1)])
    def test_out_of_range_rejected(self, eta, alpha):
        with pytest.raises(ConfigError):
            LearningParams(eta=eta, alpha=alpha)


def test_squared_error_definition():
    # E = half the sum of squared residuals
    assert squared_error(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == pytest.approx(0.25)
    assert squared_error(np.array([1.0]), np.array([1.0])) == 0.0


def test_xor_quick_convergence():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    targets = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    params = LearningParams(eta=0.5, alpha=0.9)
    net = init_network([2, 3, 2], seed=0)
    mse = 1.0
    for _ in range(2000):
        mse = sum(train_example(net, x[i], targets[i], params) for i in range(4)) / 4
        if mse < 0.05:
            break
    assert mse < 0.05


def assert_same_network(a: Network, b: Network):
    """Every weight, threshold and momentum buffer equal bit for bit."""
    assert a.layer_sizes == b.layer_sizes
    for name in ("weights", "thresholds", "prev_weight_update", "prev_threshold_update"):
        for x, y in zip(getattr(a, name), getattr(b, name), strict=True):
            assert np.array_equal(x, y), name


class TestLockstepBatch:
    # Widths 1-3 are where BLAS rounds a product inside a wider matrix
    # differently from the same product on its own.
    WIDTHS = (1, 2, 3, 8)

    @staticmethod
    def examples(n=60, n_in=20, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.random((n, n_in))
        t = np.eye(2)[rng.integers(0, 2, n)]
        return x, t

    @staticmethod
    def reference_epoch(nets, x, t, orders, params):
        for net, order in zip(nets, orders):
            for i in order:
                train_example(net, x[i], t[i], params)

    # Scale 3000 drives pre-activations past the sigmoid clamp.
    @pytest.mark.parametrize("scale", [1.0, 3000.0])
    def test_matches_train_example_bit_for_bit(self, scale):
        x, t = self.examples()
        x *= scale
        params = LearningParams(eta=0.3, alpha=0.9)
        refs = [init_network([x.shape[1], h, 2], seed=10 + h) for h in self.WIDTHS]
        batch = LockstepBatch(refs)
        rng = np.random.default_rng(1)
        for _ in range(4):
            orders = [rng.permutation(len(x)) for _ in refs]
            batch.train_epoch(x, t, orders, params)
            self.reference_epoch(refs, x, t, orders, params)
            for ref, member in zip(refs, batch.networks, strict=True):
                assert_same_network(member, ref)

    def test_rebuilt_batch_continues_each_trajectory(self):
        # dropping a member repacks the others; their steps must not change
        x, t = self.examples(seed=2)
        params = LearningParams(eta=0.5, alpha=0.8)
        refs = [init_network([x.shape[1], h, 2], seed=h) for h in self.WIDTHS]
        batch = LockstepBatch(refs)
        rng = np.random.default_rng(3)
        for epoch in range(5):
            if epoch in (2, 4):
                keep = [0, 2, 3] if epoch == 2 else [0, 2]
                refs = [refs[i] for i in keep]
                batch = LockstepBatch([batch.networks[i] for i in keep])
            orders = [rng.permutation(len(x)) for _ in refs]
            batch.train_epoch(x, t, orders, params)
            self.reference_epoch(refs, x, t, orders, params)
            for ref, member in zip(refs, batch.networks, strict=True):
                assert_same_network(member, ref)

    def test_build_copies_state_in(self):
        net = init_network([4, 3, 2], seed=0)
        net.prev_weight_update[1][:] = 0.25
        batch = LockstepBatch([net])
        assert_same_network(batch.networks[0], net)
        batch.networks[0].weights[0][0, 0] += 1.0
        assert batch.networks[0].weights[0][0, 0] != net.weights[0][0, 0]

    @pytest.mark.parametrize("sizes", [
        [[4, 3, 2], [5, 3, 2]],
        [[4, 3, 2], [4, 3, 1]],
        [[4, 3, 3, 2]],
    ])
    def test_mismatched_members_rejected(self, sizes):
        with pytest.raises(ConfigError):
            LockstepBatch([init_network(s, seed=0) for s in sizes])

    @pytest.mark.parametrize("orders", [
        [[0, 1, 2]],            # one row for two members
        [[0, 1, 2], [0, 1, 9]],  # example 9 does not exist
        [[0, 1, 2], [0, -1, 2]],
    ])
    def test_bad_orders_rejected(self, orders):
        x, t = self.examples(n=5, n_in=4)
        batch = LockstepBatch([init_network([4, h, 2], seed=h) for h in (1, 2)])
        with pytest.raises(ShapeError):
            batch.train_epoch(x, t, orders, LearningParams(0.3, 0.9))
