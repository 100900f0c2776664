import math
import tracemalloc

import numpy as np
import pytest

from drivlab.diffcore import (
    ParameterStore,
    Tensor,
    adam_step,
    add,
    concat,
    cross_entropy_loss,
    dropout,
    l2_loss,
    linear,
    lstm_seq,
    no_grad,
    scale,
)
from drivlab.diffcore.checkpoint import load_checkpoint, save_checkpoint
from drivlab.errors import (
    ArtifactVersionError,
    MissingArtifactError,
    NumericalError,
    ShapeError,
    ValidationError,
)
from drivlab.diffcore.tensor import _sigmoid
from drivlab.driver import BackboneArch, driver_forward, init_driver_params
from drivlab.failure import softmax as np_softmax
from gradcheck import grad_check
from oracles import (
    adam_loop,
    graph_nodes,
    lstm_cell,
    lstm_chain,
    matmul,
    mul,
    narrow,
    relu,
    reshape,
    retained_backward,
    sigmoid,
    softmax,
    step_major,
    tanh,
    tsum,
    two_branch_sigmoid,
)

RNG = np.random.default_rng(123)


def _weighted_sum(t):
    # deterministic scalar readout so every output element gets a distinct weight
    w = Tensor(np.linspace(0.3, 1.7, t.data.size).reshape(t.data.shape))
    return tsum(mul(t, w))


def _check(loss_fn, store, tol=1e-4):
    report = grad_check(loss_fn, store)
    assert report.passed(tol), f"{report.worst_param}: {report.max_rel_error}"


class TestPrimitiveGradients:
    def test_matmul(self):
        store = ParameterStore()
        a = store.add("a", RNG.standard_normal((3, 4)))
        b = store.add("b", RNG.standard_normal((4, 2)))
        _check(lambda: _weighted_sum(matmul(a, b)), store)

    def test_add_bias_broadcast(self):
        store = ParameterStore()
        a = store.add("a", RNG.standard_normal((3, 4)))
        b = store.add("b", RNG.standard_normal(4))
        _check(lambda: _weighted_sum(add(a, b)), store)

    def test_mul(self):
        store = ParameterStore()
        a = store.add("a", RNG.standard_normal((2, 5)))
        b = store.add("b", RNG.standard_normal((2, 5)))
        _check(lambda: _weighted_sum(mul(a, b)), store)

    @pytest.mark.parametrize("op", [relu, tanh, sigmoid, softmax])
    def test_activations(self, op):
        store = ParameterStore()
        # offset away from 0 so relu kinks cannot sit inside the fd step
        a = store.add("a", RNG.standard_normal((3, 4)) + 0.3)
        _check(lambda: _weighted_sum(op(a)), store)

    def test_concat_and_narrow(self):
        store = ParameterStore()
        a = store.add("a", RNG.standard_normal((3, 2)))
        b = store.add("b", RNG.standard_normal((3, 3)))
        _check(lambda: _weighted_sum(narrow(concat([a, b]), 1, 1, 4)), store)

    def test_reshape(self):
        store = ParameterStore()
        a = store.add("a", RNG.standard_normal((2, 6)))
        _check(lambda: _weighted_sum(reshape(a, (3, 4))), store)

    def test_scale(self):
        store = ParameterStore()
        a = store.add("a", RNG.standard_normal((2, 3)))
        _check(lambda: _weighted_sum(scale(a, -2.5)), store)

    def test_dropout_fixed_mask(self):
        store = ParameterStore()
        a = store.add("a", RNG.standard_normal((4, 6)))
        _check(
            lambda: _weighted_sum(dropout(a, 0.4, "train", np.random.default_rng(99))),
            store,
        )

    def test_l2_loss(self):
        store = ParameterStore()
        a = store.add("a", RNG.standard_normal((5, 1)))
        target = RNG.standard_normal((5, 1))
        _check(lambda: l2_loss(a, target), store)

    def test_cross_entropy(self):
        store = ParameterStore()
        a = store.add("a", RNG.standard_normal((6, 2)))
        labels = np.array([0, 1, 1, 0, 1, 0])
        _check(lambda: cross_entropy_loss(a, labels, np.ones(2)), store)
        _check(lambda: cross_entropy_loss(a, labels, np.array([0.5, 1.5])), store)

    def test_linear_node(self):
        rng = np.random.default_rng(41)  # own stream: the RNG draws of the other cases stay put
        store = ParameterStore()
        x = store.add("x", rng.standard_normal((3, 4)))
        store.add("lin.w", rng.standard_normal((4, 2)))
        store.add("lin.b", rng.standard_normal(2))
        _check(lambda: _weighted_sum(linear(store, "lin", x)), store)

    def test_linear_relu_node(self):
        rng = np.random.default_rng(47)  # own stream; half the pre-activations are negative
        store = ParameterStore()
        x = store.add("x", rng.standard_normal((3, 4)))
        store.add("lin.w", rng.standard_normal((4, 2)))
        store.add("lin.b", rng.standard_normal(2))
        _check(lambda: _weighted_sum(linear(store, "lin", x, relu=True)), store)

    def test_fused_relu_matches_two_nodes_bit_for_bit(self):
        # the fused node's output and mask equal relu(linear(x)) and its
        # mask, also where the pre-activation is 0, -0.0 or NaN
        rng = np.random.default_rng(53)
        x, w, b = rng.standard_normal((40, 5)), rng.standard_normal((5, 3)), rng.standard_normal(3)
        x[0], b[1], x[1, 2] = 0.0, -0.0, np.nan
        runs = []
        for fused in (True, False):
            store = ParameterStore()
            xs = store.add("x", x.copy())
            store.add("lin.w", w.copy())
            store.add("lin.b", b.copy())
            out = linear(store, "lin", xs, relu=True) if fused else relu(linear(store, "lin", xs))
            data = out.data.copy()
            with np.errstate(invalid="ignore"):
                _weighted_sum(out).backward()
            runs.append([data] + [store[n].grad for n in ("x", "lin.w", "lin.b")])
        assert np.isnan(runs[0][0]).any() and (runs[0][0] == 0.0).any()
        for got, want in zip(*runs):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_linear_bias_in_place_keeps_the_sum_bits(self):
        rng = np.random.default_rng(43)
        store = ParameterStore()
        x = store.add("x", rng.standard_normal((37, 5)))
        w, b = store.add("lin.w", rng.standard_normal((5, 3))), store.add("lin.b", rng.standard_normal(3))
        want = (x.data @ w.data + b.data).view(np.int64)
        assert np.array_equal(linear(store, "lin", x).data.view(np.int64), want)
        with no_grad():
            assert np.array_equal(linear(store, "lin", x).data.view(np.int64), want)

    def test_lstm_cell(self):
        store = ParameterStore()
        h = 3
        x = store.add("x", RNG.standard_normal((2, 4)))
        h0 = store.add("h0", RNG.standard_normal((2, h)))
        c0 = store.add("c0", RNG.standard_normal((2, h)))
        wx = store.add("wx", RNG.standard_normal((4, 4 * h)) * 0.5)
        wh = store.add("wh", RNG.standard_normal((h, 4 * h)) * 0.5)
        b = store.add("b", RNG.standard_normal(4 * h) * 0.5)

        def loss_fn():
            h2, c2 = lstm_cell(x, h0, c0, wx, wh, b)
            return tsum(add(_weighted_sum(h2), _weighted_sum(c2)))

        _check(loss_fn, store)


def _lstm_store(steps, batch, n_in, hidden, x_grad=True, seed=0):
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    x_data = rng.standard_normal((steps * batch, n_in))
    x = store.add("x", x_data) if x_grad else Tensor(x_data)
    wx = store.add("wx", rng.standard_normal((n_in, 4 * hidden)) * 0.8)
    wh = store.add("wh", rng.standard_normal((hidden, 4 * hidden)) * 0.8)
    b = store.add("b", rng.standard_normal(4 * hidden) * 0.5)
    return store, (x, steps, wx, wh, b)


# (steps, batch, n_in, hidden): the vis and spd/ang track shapes, a ragged
# batch, and the single-step / single-row edges
LSTM_SHAPES = [(5, 32, 32, 32), (4, 32, 1, 8), (3, 7, 5, 4), (1, 3, 4, 3), (4, 1, 1, 8)]


class TestLstmSeq:
    @pytest.mark.parametrize("shape", LSTM_SHAPES)
    def test_forward_bit_identical_to_cell_chain(self, shape):
        _, args = _lstm_store(*shape)
        assert np.array_equal(lstm_seq(*args).data, lstm_chain(*args).data)

    def test_forward_single_row_within_rounding(self):
        # numpy sends a one-row product to gemv, whose rounding differs from
        # gemm's in the last bit, so the chain's per-step x @ wx at batch 1
        # is not bit-identical to the fused all-steps projection
        _, args = _lstm_store(5, 1, 32, 32)
        ref = lstm_chain(*args).data
        assert np.max(np.abs(lstm_seq(*args).data - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("shape", LSTM_SHAPES)
    def test_gradients_match_cell_chain(self, shape):
        store, args = _lstm_store(*shape)
        grads = []
        for op in (lstm_seq, lstm_chain):
            store.zero_grads()
            _weighted_sum(op(*args)).backward()
            grads.append({name: t.grad.copy() for name, t in store.items()})
        for name, ref in grads[1].items():
            err = np.max(np.abs(grads[0][name] - ref))
            assert err <= 1e-12 * np.max(np.abs(ref)), f"{name}: {err}"

    @pytest.mark.parametrize(
        "shape, x_grad", [((1, 2, 3, 2), True), ((3, 1, 2, 2), True), ((4, 3, 1, 3), False)]
    )
    def test_grad_check(self, shape, x_grad):
        store, args = _lstm_store(*shape, x_grad=x_grad, seed=4)
        _check(lambda: _weighted_sum(lstm_seq(*args)), store)

    @pytest.mark.parametrize("shape", [*LSTM_SHAPES, (5, 512, 32, 32), (4, 512, 1, 8)])
    def test_no_grad_forward_keeps_the_recorded_bits(self, shape):
        # without a tape only the running state is kept; the values must not move
        _, args = _lstm_store(*shape)
        recorded = lstm_seq(*args)
        with no_grad():
            got = lstm_seq(*args)
        assert recorded._parents and got._parents == ()
        assert np.array_equal(got.data.view(np.int64), recorded.data.view(np.int64))

    @pytest.mark.parametrize("shape", [*LSTM_SHAPES, (5, 512, 32, 32)])
    @pytest.mark.parametrize("tracks", [1, 2])
    def test_no_grad_rows_keep_the_bits_of_the_gathered_sequence(self, shape, tracks):
        # steps that read shared rows of x through ``rows`` get the bits of
        # the step-major sequence that copies each step's rows
        steps, batch, n_in, hidden = shape
        rng = np.random.default_rng(batch + tracks)
        pool = rng.standard_normal((tracks, batch + 3, n_in))
        rows = rng.integers(0, batch + 3, size=(steps, batch))
        wx, wh, b = ([Tensor(rng.standard_normal(s) * 0.8) for _ in range(tracks)]
                     for s in ((n_in, 4 * hidden), (hidden, 4 * hidden), (4 * hidden,)))
        want = lstm_seq(Tensor(pool[:, rows.reshape(-1)]), steps, wx, wh, b)
        with no_grad():
            got = lstm_seq(Tensor(pool), steps, wx, wh, b, rows=rows)
        assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))

    @staticmethod
    def _two_tracks(batch, n_in, hidden, steps=4):
        rng = np.random.default_rng(batch)
        store = ParameterStore()
        x = store.add("x", rng.standard_normal((2, steps * batch, n_in)))
        wx, wh, b = ([store.add(f"{k}.{w}", rng.standard_normal(shape) * 0.8) for k in range(2)]
                     for w, shape in (("wx", (n_in, 4 * hidden)), ("wh", (hidden, 4 * hidden)),
                                      ("b", (4 * hidden,))))
        return store, (x, steps, wx, wh, b)

    @pytest.mark.parametrize("batch", [3, 512])
    def test_no_grad_two_tracks_keep_the_recorded_bits(self, batch):
        _, args = self._two_tracks(batch, 1, 8)
        recorded = lstm_seq(*args)
        with no_grad():
            got = lstm_seq(*args)
        assert got.data.shape == (batch, 16) and got._parents == ()
        assert np.array_equal(got.data.view(np.int64), recorded.data.view(np.int64))

    @pytest.mark.parametrize("batch", [2, 3, 32, 257, 2048])
    @pytest.mark.parametrize("n_in, hidden", [(1, 8), (3, 4)])
    def test_two_tracks_match_per_track_cell_chains(self, batch, n_in, hidden):
        store, (x, steps, wx, wh, b) = self._two_tracks(batch, n_in, hidden)
        stacked = lstm_seq(x, steps, wx, wh, b)
        rows = [Tensor(x.data[k].copy(), requires_grad=True) for k in range(2)]
        chains = [lstm_chain(rows[k], steps, wx[k], wh[k], b[k]) for k in range(2)]
        assert stacked.data.shape == (batch, 2 * hidden)
        assert np.array_equal(stacked.data, np.concatenate([c.data for c in chains], axis=1))

        grads = []
        for out in (stacked, concat(chains)):
            store.zero_grads()
            _weighted_sum(out).backward()
            grads.append({name: t.grad for name, t in store.items()})
        grads[1]["x"] = np.stack([r.grad for r in rows])  # the chains read x through copies
        for name, ref in grads[1].items():
            err = np.max(np.abs(grads[0][name] - ref))
            assert err <= 1e-12 * np.max(np.abs(ref)), f"{name}: {err}"

    def test_track_shape_errors(self):
        _, (x, steps, wx, wh, b) = _lstm_store(3, 2, 4, 3)
        two = Tensor(np.stack([x.data, x.data]))
        with pytest.raises(ShapeError, match="lstm_seq"):
            lstm_seq(two, steps, wx, wh, b)  # two tracks of x, one of weights
        with pytest.raises(ShapeError, match="lstm_seq"):
            lstm_seq(two, steps, [wx, wx], [wh], [b, b])
        with pytest.raises(ShapeError, match="lstm_seq"):
            lstm_seq(two, steps, [wx, wx], [wh, Tensor(np.zeros((2, 8)))], [b, b])

    def test_shape_errors_name_op(self):
        _, (x, _steps, wx, wh, b) = _lstm_store(3, 2, 4, 3)
        with pytest.raises(ShapeError, match="lstm_seq"):
            lstm_seq(x, 4, wx, wh, b)  # 6 rows are not 4 step blocks
        with pytest.raises(ShapeError, match="lstm_seq"):
            lstm_seq(x, 0, wx, wh, b)
        with pytest.raises(ShapeError, match="lstm_seq"):
            lstm_seq(x, 3, Tensor(np.zeros((5, 12))), wh, b)
        with pytest.raises(ShapeError, match="lstm_seq"):
            lstm_seq(x, 3, wx, Tensor(np.zeros((3, 8))), b)
        with pytest.raises(ShapeError, match="lstm_seq"):
            lstm_seq(x, 3, wx, wh, Tensor(np.zeros(8)))
        shuffled = np.array([[1, 0], [3, 2], [5, 4]])
        with pytest.raises(ShapeError, match="lstm_seq: a recording forward takes step-major rows"):
            lstm_seq(x, 3, wx, wh, b, rows=shuffled)
        with no_grad():
            lstm_seq(x, 3, wx, wh, b, rows=shuffled)  # without a tape any rows of x will do
            for bad in (shuffled + 1, shuffled - 1, shuffled[:2], shuffled.reshape(-1)):
                with pytest.raises(ShapeError, match="lstm_seq: rows"):
                    lstm_seq(x, 3, wx, wh, b, rows=bad)


class TestOpContracts:
    def test_l2_identity_zero_loss_zero_grad(self):
        store = ParameterStore()
        a = store.add("a", np.array([[1.0], [2.0]]))
        loss = l2_loss(a, a.data.copy())
        assert float(loss.data) == 0.0
        loss.backward()
        assert np.all(a.grad == 0.0)

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((1, 2)), requires_grad=True)
        for label in (0, 1):
            loss = cross_entropy_loss(logits, np.array([label]), np.ones(2))
            assert float(loss.data) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_lstm_all_zero(self):
        z = Tensor(np.zeros((1, 2)))
        zh = Tensor(np.zeros((1, 3)))
        h2, c2 = lstm_cell(
            z, zh, zh, Tensor(np.zeros((2, 12))), Tensor(np.zeros((3, 12))), Tensor(np.zeros(12))
        )
        assert np.all(h2.data == 0.0) and np.all(c2.data == 0.0)

    def test_first_gradient_is_not_aliased(self):
        # add hands one array to both parents; the first gradient a node
        # stores must be its own, or a later sum into it leaks to the other
        a = Tensor(np.array([[1.0]]), requires_grad=True)
        b = Tensor(np.array([[2.0]]), requires_grad=True)
        tsum(add(add(a, b), a)).backward()
        assert a.grad[0, 0] == 2.0 and b.grad[0, 0] == 1.0

    def test_sigmoid_matches_two_branch_form_bit_for_bit(self):
        edges = [0.0, -0.0, 800.0, -800.0, 709.0, -709.0, 746.0, -746.0, 1e-300, -1e-300,
                 np.inf, -np.inf, np.nan, -np.nan]
        x = np.concatenate([edges, np.random.default_rng(3).standard_normal(1000) * 40])
        with np.errstate(all="ignore"):
            want = two_branch_sigmoid(x)
            # allocating, into buffers, and in place over its input
            out, work, inplace = np.empty_like(x), np.empty_like(x), x.copy()
            buffered = _sigmoid(x, out=out, work=work)
            for got in (_sigmoid(x), buffered, _sigmoid(inplace, out=inplace, work=work)):
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert buffered is out

    def test_shared_subexpression_accumulates(self):
        x = Tensor(np.array([[3.0]]), requires_grad=True)
        y = add(x, x)
        tsum(y).backward()
        assert x.grad[0, 0] == 2.0

    def test_softmax_rows_sum_to_one(self):
        x = RNG.standard_normal((10, 2)) * 5
        p = softmax(Tensor(x))
        assert np.all(np.abs(p.data.sum(axis=1) - 1.0) <= 1e-12)
        # the hazard scores' numpy softmax is the node's forward, bit for bit
        assert np.array_equal(np_softmax(x), p.data)

    def test_shape_errors_name_op_and_shapes(self):
        with pytest.raises(ShapeError, match=r"matmul: \(2, 3\) @ \(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        with pytest.raises(ShapeError, match="add"):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
        with pytest.raises(ShapeError, match="l2_loss"):
            l2_loss(Tensor(np.zeros((2, 1))), np.zeros((3, 1)))

    def test_non_finite_loss_raises(self):
        bad = Tensor(np.array([[np.inf]]))
        with pytest.raises(NumericalError, match="non-finite loss"):
            l2_loss(bad, np.array([[0.0]]))

    def test_backward_requires_scalar(self):
        with pytest.raises(ValidationError, match="scalar"):
            Tensor(np.zeros((2, 2)), requires_grad=True).backward()


def _small_driver():
    """(parameters, arch, (frames, index, spd, ang)) of a width-8 driver and
    a batch of six windows, the same on every call."""
    arch = BackboneArch(obs_dim=16, k=4, enc_hidden=8, enc_out=8, vis_hidden=8,
                        sig_hidden=4, head_hidden=8, dropout_p=0.2)
    rng = np.random.default_rng(2)
    vis = rng.standard_normal((6, 5, 16))
    inputs = (*step_major(vis), rng.standard_normal((6, 4)), rng.standard_normal((6, 4)))
    return init_driver_params(arch, np.random.default_rng(1)), arch, inputs


def _step_graph():
    """A training-step-shaped graph over fresh leaves: both driver heads in
    train mode, and an LSTM over an input tensor that requires a gradient.
    Returns (loss, leaves)."""
    store, arch, inputs = _small_driver()
    out_a, out_s = driver_forward(store, arch, *inputs, mode="train", rng=np.random.default_rng(3))
    x = Tensor(np.random.default_rng(5).standard_normal((4 * 6, 8)), requires_grad=True)
    h = lstm_seq(x, 4, store["vis.wx"], store["vis.wh"], store["vis.b"])
    loss = add(add(l2_loss(out_a, np.full((6, 1), 0.3)), scale(l2_loss(out_s, np.zeros((6, 1))), 0.5)),
               l2_loss(h, np.full((6, 8), 0.1)))
    return loss, [t for _, t in store.items()] + [x]


class TestSpentGraph:
    """backward() consumes its graph: each node with a backward lets go of
    it, of its parents and of its gradient once it has run, so a training
    step's tape is freed when backward() returns. Leaves keep their grads."""

    def test_backward_releases_every_non_leaf_node(self):
        loss, leaves = _step_graph()
        inner = [n for n in graph_nodes(loss) if n._backward is not None]
        assert len(inner) >= 15
        loss.backward()
        assert all(n._parents is None and n._backward is None and n.grad is None for n in inner)
        assert all(t.grad is not None for t in leaves)

    def test_leaf_gradients_match_a_retained_sweep_bit_for_bit(self):
        loss, leaves = _step_graph()
        loss.backward()
        ref_loss, ref_leaves = _step_graph()
        retained_backward(ref_loss)
        for got, want in zip(leaves, ref_leaves):
            assert np.array_equal(got.grad.view(np.int64), want.grad.view(np.int64))

    def test_second_backward_raises(self):
        loss, leaves = _step_graph()
        loss.backward()
        grads = [t.grad.copy() for t in leaves]
        with pytest.raises(ValidationError, match="consumed"):
            loss.backward()
        # a new loss over a consumed subgraph is refused before any gradient moves
        a = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        h = relu(a)
        tsum(h).backward()
        with pytest.raises(ValidationError, match="consumed"):
            tsum(scale(h, 2.0)).backward()
        assert np.array_equal(a.grad, [[1.0, 0.0]])
        assert all(np.array_equal(t.grad, g) for t, g in zip(leaves, grads))


class TestNoGrad:
    @staticmethod
    def _outputs(store, arch, inputs):
        out_a, out_s = driver_forward(store, arch, *inputs, mode="train", rng=np.random.default_rng(4))
        logits = concat([out_a, out_s])
        loss = add(l2_loss(out_a, np.zeros((6, 1))), scale(l2_loss(out_s, np.ones((6, 1))), 0.5))
        return [out_a, out_s, loss, cross_entropy_loss(logits, np.array([0, 1, 1, 0, 1, 0]), np.ones(2))]

    def test_outputs_match_a_recorded_forward_and_record_nothing(self):
        driver = _small_driver()
        recorded = self._outputs(*driver)
        with no_grad():
            got = self._outputs(*driver)
        for g, want in zip(got, recorded):
            assert want._parents and want.requires_grad
            assert g._parents == () and g._backward is None and not g.requires_grad
            assert np.array_equal(g.data.view(np.int64), want.data.view(np.int64))

    def test_state_restored_on_exit_also_after_an_error(self):
        a = Tensor(np.array([[1.0]]), requires_grad=True)
        with no_grad():
            with no_grad():
                pass
            assert relu(a)._parents == ()  # the inner exit restores "off"
        assert relu(a)._parents == (a,)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside")
        out = relu(a)
        assert out._parents == (a,) and out.requires_grad


class TestDropout:
    def test_eval_is_identity(self):
        x = Tensor(RNG.standard_normal((4, 4)))
        assert dropout(x, 0.5, "eval") is x

    def test_expected_value_matches_eval(self):
        x = np.full((1, 8), 2.0)
        rng = np.random.default_rng(7)
        total = np.zeros_like(x)
        n = 10_000
        for _ in range(n):
            total += dropout(Tensor(x), 0.5, "mc", rng).data
        mean_abs_rel = np.mean(np.abs(total / n - x) / np.abs(x))
        assert mean_abs_rel < 0.02

    def test_boolean_mask_gives_the_float_mask_bits(self):
        """The tape keeps the boolean keep-mask, 1 byte a value, and scales
        it where it is used. The output and the gradient must be those of the
        float mask ``keep / (1 - p)``, bit for bit, signed zeros included."""
        shape, p = (200, 300), 0.3
        x = RNG.standard_normal(shape)
        x[::7] = -0.0
        mask = (np.random.default_rng(21).random(shape) >= p) / (1.0 - p)
        got, want = Tensor(x.copy(), requires_grad=True), Tensor(x.copy(), requires_grad=True)
        tracemalloc.start()
        try:
            out = dropout(got, p, "train", np.random.default_rng(21))
            taped = tracemalloc.get_traced_memory()[0] - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert taped <= x.size + 4096  # a float mask would take 8 bytes a value
        ref = mul(want, Tensor(mask))
        assert np.array_equal(out.data.view(np.int64), ref.data.view(np.int64))
        _weighted_sum(out).backward()
        _weighted_sum(ref).backward()
        assert np.array_equal(got.grad.view(np.int64), want.grad.view(np.int64))

    def test_mode_validation(self):
        with pytest.raises(ValidationError, match="mode"):
            dropout(Tensor(np.zeros((1, 1))), 0.5, "test")
        with pytest.raises(ValidationError):
            dropout(Tensor(np.zeros((1, 1))), 1.0, "train", np.random.default_rng(0))
        with pytest.raises(ValidationError, match="rng"):
            dropout(Tensor(np.zeros((1, 1))), 0.5, "train")


def _quadratic_problem(seed=0):
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    w = store.add("w", rng.standard_normal((3, 1)))
    x = rng.standard_normal((20, 3))
    y = x @ np.array([[1.0], [-2.0], [0.5]])
    return store, w, x, y


class TestAdam:
    def test_first_step_magnitude(self):
        store = ParameterStore()
        p = store.add("p", np.array([0.0]))
        p.grad = np.array([0.5])
        adam_step(store, lr=0.1)
        expected = -0.1 * 0.5 / (0.5 + 1e-8)
        assert p.data[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_gradient_keeps_parameters(self):
        store = ParameterStore()
        p = store.add("p", np.array([1.5, -2.0]))
        p.grad = np.zeros(2)
        adam_step(store, lr=0.1)
        assert np.array_equal(p.data, [1.5, -2.0])

    def test_requires_backward(self):
        store = ParameterStore()
        store.add("p", np.zeros(2))
        with pytest.raises(ValidationError, match="backward"):
            adam_step(store, lr=0.1)

    def test_gradients_zeroed_after_step(self):
        store = ParameterStore()
        p = store.add("p", np.zeros(2))
        p.grad = np.ones(2)
        adam_step(store, lr=0.1)
        assert p.grad is None

    @staticmethod
    def _run_against_loop(store, steps, rng):
        data = {name: t.data.copy() for name, t in store.items()}
        m, v = ({n: np.zeros_like(d) for n, d in data.items()} for _ in range(2))
        for step in range(1, steps + 1):
            grads = {}
            for name, t in store.items():
                # "idle" never gets a gradient; "late" gets one from step 3 on
                if name == "idle" or (name == "late" and step < 3):
                    continue
                grads[name] = t.grad = rng.standard_normal(t.data.shape)
            adam_step(store, lr=0.05)
            adam_loop(data, grads, m, v, step, lr=0.05)
            for name, t in store.items():
                assert np.array_equal(t.data.view(np.int64), data[name].view(np.int64)), (step, name)
                assert t.grad is None

    def test_flat_buffers_match_per_parameter_loop(self, tmp_path):
        rng = np.random.default_rng(13)
        store = ParameterStore()
        for name, shape in (("w", (3, 4)), ("idle", (2, 2)), ("b", (4,)), ("late", (5,)), ("s", (1, 1))):
            store.add(name, rng.standard_normal(shape))
        self._run_against_loop(store, 6, np.random.default_rng(14))

        # a store loaded from a checkpoint starts fresh moments over loaded values
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, "driver", {}, store)
        _, _, loaded = load_checkpoint(path)
        self._run_against_loop(loaded, 6, np.random.default_rng(15))

    def test_parameters_are_views_of_one_buffer(self):
        store = ParameterStore()
        a = store.add("a", np.arange(6.0).reshape(2, 3))
        b = store.add("b", np.array([7.0]))  # growing the buffer rebinds a's view
        assert np.array_equal(a.data, np.arange(6.0).reshape(2, 3)) and b.data[0] == 7.0
        a.data[1, 2] = -1.0
        assert np.shares_memory(a.data, b.data) is False and store["a"].data[1, 2] == -1.0
        assert a.data.base is b.data.base

    def test_deterministic_trajectories(self):
        trajs = []
        for _ in range(2):
            store, w, x, y = _quadratic_problem(seed=5)
            snap = []
            for _step in range(100):
                loss = l2_loss(matmul(Tensor(x), w), y)
                loss.backward()
                adam_step(store, lr=0.05)
                snap.append(w.data.copy())
            trajs.append(np.stack(snap))
        assert np.array_equal(trajs[0], trajs[1])

    def test_loss_non_increasing_first_50_steps(self):
        store, w, x, y = _quadratic_problem(seed=1)
        losses = []
        for _step in range(50):
            loss = l2_loss(matmul(Tensor(x), w), y)
            losses.append(float(loss.data))
            loss.backward()
            adam_step(store, lr=0.02)
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))


class TestGradCheckHarness:
    def test_detects_corrupted_backward(self):
        store = ParameterStore()
        a = store.add("a", RNG.standard_normal((2, 2)))

        def sign_flipped_sum(t):
            out = Tensor(np.array(t.data.sum()), requires_grad=True, _parents=(t,))

            def backward(out):
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad -= np.broadcast_to(out.grad, t.data.shape)  # wrong sign

            out._backward = backward
            return out

        report = grad_check(lambda: sign_flipped_sum(a), store)
        assert not report.passed(1e-4)


class TestCheckpoint:
    def _store(self):
        store = ParameterStore()
        store.add("layer.w", RNG.standard_normal((3, 2)))
        store.add("layer.b", RNG.standard_normal(2))
        return store

    def test_save_load_save_byte_identical(self, tmp_path):
        store = self._store()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, "driver", {"k": "4"}, store)
        kind, meta, loaded = load_checkpoint(p1)
        save_checkpoint(p2, kind, meta, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_dim_parameter_round_trips(self, tmp_path):
        store = ParameterStore()
        store.add("scale", np.array(0.25))
        store.add("layer.b", np.array([1.5, -2.0]))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, "driver", {}, store)
        _, _, loaded = load_checkpoint(p1)
        save_checkpoint(p2, "driver", {}, loaded)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded["scale"].data.shape == () and loaded["scale"].data == 0.25
        assert np.array_equal(loaded["layer.b"].data, [1.5, -2.0])

    def test_reload_bit_exact(self, tmp_path):
        store = self._store()
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, "driver", {}, store)
        _, _, loaded = load_checkpoint(path)
        for name, t in store.items():
            assert np.array_equal(t.data, loaded[name].data)

    def test_version_error(self, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_text("#drivlab-ckpt v9\nkind driver\nend\n")
        with pytest.raises(ArtifactVersionError):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingArtifactError):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_missing_value_line(self, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_text("#drivlab-ckpt v1\nkind driver\nparam w 2\n")
        with pytest.raises(ValidationError, match="no value line"):
            load_checkpoint(path)

    @pytest.mark.parametrize("block", ["param w two\n1.0 2.0", "param w 2\n1.0 two"])
    def test_non_numeric_shape_or_value(self, tmp_path, block):
        path = tmp_path / "a.ckpt"
        path.write_text(f"#drivlab-ckpt v1\nkind driver\n{block}\nend\n")
        with pytest.raises(ValidationError, match=":3: malformed param w"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, value):
        store = self._store()
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, "driver", {}, store)
        text = path.read_text().splitlines()
        text[3] = " ".join([value, *text[3].split(" ")[1:]])
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValidationError, match="non-finite"):
            load_checkpoint(path)
