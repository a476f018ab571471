import math
import warnings

import numpy as np
import pytest

from helpers import grad_check
from moectr.autodiff import (
    BCE_EPS,
    AutodiffError,
    ParamStore,
    ShapeError,
    Tape,
    rng_for,
)


def make_flat_fn(build, layout):
    """Wrap a tape builder into f(theta) -> (value, flat grad).

    ``build(store, theta)`` registers the parameters laid out flat in
    ``theta`` per ``layout`` [(name, shape), ...] and returns
    (tape, loss_node, inputs).
    """

    def f(theta):
        store = ParamStore()
        tape, loss, inputs = build(store, theta)
        val = tape.forward(inputs, output=loss)
        grads = tape.backward(loss, store.names())
        flat = []
        for name, shape in layout:
            g = grads.get(name, np.zeros(shape))
            flat.append(np.asarray(g).reshape(-1))
        return float(val), np.concatenate(flat)

    return f


def test_relu_affine_identity_forward():
    store = ParamStore()
    store.add("W", np.eye(2), "backbone")
    store.add("b", np.zeros(2), "backbone")
    t = Tape(store)
    x = t.input("x")
    y = t.relu(t.add(t.matmul(x, t.param("W"), transpose_b=True), t.param("b")))
    out = t.forward({"x": np.array([[1.0, 2.0]])}, output=y)
    np.testing.assert_array_equal(out, [[1.0, 2.0]])


def test_matmul_forward_example():
    store = ParamStore()
    t = Tape(store)
    a = t.input("a")
    b = t.input("b")
    out = t.forward(
        {"a": np.array([[1.0, 2.0], [3.0, 4.0]]), "b": np.array([[1.0], [1.0]])},
        output=t.matmul(a, b),
    )
    np.testing.assert_array_equal(out, [[3.0], [7.0]])


def test_backward_sum_of_squares():
    store = ParamStore()
    store.add("x", np.array([3.0]), "backbone")
    t = Tape(store)
    x = t.param("x")
    loss = t.reduce_sum(t.mul(x, x))
    t.forward({}, output=loss)
    grads = t.backward(loss, ["x"])
    np.testing.assert_allclose(grads["x"], [6.0], rtol=0, atol=0)


def test_grad_check_square():
    def f(theta):
        return float(theta[0] ** 2), np.array([2.0 * theta[0]])

    assert grad_check(f, np.array([2.0])) < 1e-8


def test_grad_check_eps_bounds():
    def f(theta):
        return float(theta[0]), np.array([1.0])

    with pytest.raises(ValueError):
        grad_check(f, np.array([1.0]), eps=1e-7)
    with pytest.raises(ValueError):
        grad_check(f, np.array([1.0]), eps=1e-3)


def test_softmax_values_and_rows():
    store = ParamStore()
    t = Tape(store)
    out = t.forward({"z": np.array([10.0, 0.0])}, output=t.softmax(t.input("z")))
    np.testing.assert_allclose(out, [0.9999546, 0.0000454], atol=5e-8)
    rng = np.random.default_rng(0)
    z = rng.normal(size=(50, 7)) * 30.0
    t2 = Tape(ParamStore())
    rows = t2.forward({"z": z}, output=t2.softmax(t2.input("z")))
    assert rows.min() >= 0.0
    np.testing.assert_allclose(rows.sum(axis=-1), np.ones(50), atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_primitive_backward_against_central_differences(seed):
    """One composite graph exercising every differentiable primitive."""
    rng = np.random.default_rng(seed)
    shapes = {"W": (4, 3), "b": (4,), "T": (6, 4), "V": (1, 4)}
    sizes = {k: int(np.prod(s)) for k, s in shapes.items()}
    x = rng.normal(size=(5, 3)) + 0.1  # keep relu pre-activations off zero
    idx = rng.integers(0, 6, size=5)

    def build(store, theta):
        off = 0
        for k, s in shapes.items():
            store.add(k, theta[off : off + sizes[k]].reshape(s), "backbone")
            off += sizes[k]
        t = Tape(store)
        xin = t.input("x")
        h = t.relu(t.add(t.matmul(xin, t.param("W"), transpose_b=True), t.param("b")))
        g = t.gather(t.param("T"), t.input("idx"))
        cat = t.concat([h, g, t.sigmoid(h)])
        w = t.softmax(t.matmul(cat, t.const(rng2const), transpose_b=False))
        mix = t.mul(w, t.scale(t.add(g, h), 0.7))
        row = t.reduce_sum(mix, axis=-1)
        prods = t.matmul(row, t.param("V"), transpose_b=False)
        loss = t.reduce_sum(t.scale(t.mul(prods, prods), 1.0 / 20))  # mean of (5, 4)
        return t, loss, {"x": x, "idx": idx}

    rng2const = rng.normal(size=(12, 4))
    theta0 = rng.normal(size=sum(sizes.values())) * 0.5
    layout = list(shapes.items())
    err = grad_check(make_flat_fn(build, layout), theta0, eps=1e-5)
    assert err < 1e-6, err


def test_concat_rows_feeding_matmul_against_central_differences():
    rng = np.random.default_rng(5)
    shapes = {"P": (2, 3), "Q": (1, 3), "R": (4, 3)}
    sizes = {k: int(np.prod(s)) for k, s in shapes.items()}
    x = rng.normal(size=(5, 3))

    def build(store, theta):
        off = 0
        for k, s in shapes.items():
            store.add(k, theta[off : off + sizes[k]].reshape(s), "backbone")
            off += sizes[k]
        t = Tape(store)
        stacked = t.concat([t.param("P"), t.param("Q")], axis=0)
        h = t.matmul(t.input("x"), stacked, transpose_b=True)
        other = t.concat([t.param("Q"), t.param("R")], axis=0)
        out = t.matmul(t.sigmoid(h), t.matmul(stacked, other, transpose_b=True))
        loss = t.reduce_sum(t.scale(t.mul(out, out), 1.0 / 25))  # mean of (5, 5)
        return t, loss, {"x": x}

    theta0 = rng.normal(size=sum(sizes.values())) * 0.5
    err = grad_check(make_flat_fn(build, list(shapes.items())), theta0, eps=1e-5)
    assert err < 1e-6, err


def test_concat_axis_out_of_range_rejected():
    t = Tape(ParamStore())
    a, b = t.input("a"), t.input("b")
    with pytest.raises(AutodiffError, match="concat supports axis 0 or -1"):
        t.concat([a, b], axis=1)
    rows = t.concat([a, b], axis=0)
    out = t.forward({"a": np.ones((1, 2)), "b": np.zeros((2, 2))}, output=rows)
    np.testing.assert_array_equal(out, [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])


def test_bce_backward_against_central_differences():
    rng = np.random.default_rng(3)
    y = (rng.random(8) > 0.5).astype(float).reshape(8, 1)
    x = rng.normal(size=(8, 2))

    def build(store, theta):
        store.add("W", theta.reshape(1, 2), "backbone")
        t = Tape(store)
        p = t.sigmoid(t.matmul(t.input("x"), t.param("W"), transpose_b=True))
        return t, t.bce(p, t.input("y")), {"x": x, "y": y}

    err = grad_check(make_flat_fn(build, [("W", (1, 2))]), rng.normal(size=2), eps=1e-5)
    assert err < 1e-7


def test_bce_value_half():
    store = ParamStore()
    t = Tape(store)
    loss = t.bce(t.input("p"), t.input("y"))
    v = t.forward({"p": np.array([0.5]), "y": np.array([1.0])}, output=loss)
    np.testing.assert_allclose(v, np.log(2.0), atol=1e-15)


def test_bce_clamp_keeps_a_certain_wrong_prediction_finite():
    t = Tape(ParamStore())
    loss = t.bce(t.input("p"), t.input("y"))
    v = t.forward({"p": np.array([0.0, 1.0]), "y": np.array([1.0, 0.0])}, output=loss)
    # Both terms are clamped to BCE_EPS away from the wrong label.
    assert np.isfinite(v)
    np.testing.assert_allclose(v, -np.log(BCE_EPS), rtol=1e-9)


def test_backward_linearity_exact_doubling():
    store = ParamStore()
    store.add("W", np.arange(6.0).reshape(2, 3) / 7.0, "backbone")
    t = Tape(store)
    h = t.matmul(t.input("x"), t.param("W"), transpose_b=True)
    loss = t.reduce_sum(t.scale(t.sigmoid(h), 1.0 / 8))  # mean of (4, 2)
    doubled = t.reduce_sum(t.scale(t.sigmoid(h), 2.0 / 8))
    x = np.random.default_rng(1).normal(size=(4, 3))
    t.forward({"x": x}, output=loss)
    g1 = t.backward(loss, ["W"])["W"]
    t.forward({"x": x}, output=doubled)
    g2 = t.backward(doubled, ["W"])["W"]
    np.testing.assert_array_equal(g2, 2.0 * g1)


def test_gradient_accumulation_shared_param():
    store = ParamStore()
    store.add("w", np.array([[2.0]]), "backbone")
    t = Tape(store)
    w = t.param("w")
    x = t.input("x")
    z = t.input("z")
    # w used twice: d/dw sum(w*x + w*z) = sum(x) + sum(z)
    loss = t.reduce_sum(t.add(t.mul(w, x), t.mul(w, z)))
    t.forward({"x": np.array([[1.0, 2.0]]), "z": np.array([[3.0, 4.0]])}, output=loss)
    np.testing.assert_array_equal(t.backward(loss, ["w"])["w"], [[10.0]])


def test_gather_scatter_add_duplicate_indices():
    store = ParamStore()
    store.add("T", np.zeros((4, 2)), "backbone")
    t = Tape(store)
    rows = t.gather(t.param("T"), t.input("idx"))
    loss = t.reduce_sum(rows)
    t.forward({"idx": np.array([1, 1, 3])}, output=loss)
    g = t.backward(loss, ["T"])["T"]
    np.testing.assert_array_equal(g, [[0, 0], [2, 2], [0, 0], [1, 1]])


def test_broadcast_add_bias_gradient():
    store = ParamStore()
    store.add("b", np.zeros(3), "backbone")
    t = Tape(store)
    loss = t.reduce_sum(t.add(t.input("x"), t.param("b")))
    t.forward({"x": np.ones((5, 3))}, output=loss)
    np.testing.assert_array_equal(t.backward(loss, ["b"])["b"], [5.0, 5.0, 5.0])


def test_frozen_params_absent_from_backward():
    store = ParamStore()
    store.add("a", np.ones((1, 1)), "backbone")
    store.add("c", np.ones((1, 1)), "gate")
    t = Tape(store)
    loss = t.reduce_sum(t.mul(t.param("a"), t.param("c")))
    t.forward({}, output=loss)
    grads = t.backward(loss, ["c"])
    assert "a" not in grads and "c" in grads


def test_shape_mismatch_names_node():
    t = Tape(ParamStore())
    bad = t.matmul(t.input("a"), t.input("b"))
    with pytest.raises(ShapeError, match=f"node {bad}"):
        t.forward({"a": np.ones((2, 3)), "b": np.ones((2, 3))}, output=bad)


@pytest.mark.parametrize("op", ["add", "mul", "concat", "bce"])
def test_operand_shape_mismatch_names_node(op):
    t = Tape(ParamStore())
    a, b = t.input("a"), t.input("b")
    bad = t.concat([a, b]) if op == "concat" else getattr(t, op)(a, b)
    with pytest.raises(ShapeError, match=rf"node {bad} \({op}\)"):
        t.forward({"a": np.ones((2, 3)), "b": np.ones((3, 2))}, output=bad)


def _count_unbroadcasts(monkeypatch) -> list:
    calls = []
    inner = Tape._unbroadcast

    def counted(grad, shape):
        calls.append(shape)
        return inner(grad, shape)

    monkeypatch.setattr(Tape, "_unbroadcast", staticmethod(counted))
    return calls


def test_backward_skips_vjps_of_frozen_operands(monkeypatch):
    store = ParamStore()
    store.add("W", np.ones((2, 3)), "backbone")
    store.add("b", np.zeros(2), "gate")
    store.add("T", np.ones((4, 3)), "backbone")
    t = Tape(store)
    x = t.gather(t.param("T"), t.input("idx"))
    loss = t.reduce_sum(t.add(t.matmul(x, t.param("W"), transpose_b=True), t.param("b")))
    t.forward({"idx": np.array([0, 3, 3])}, output=loss)
    calls = _count_unbroadcasts(monkeypatch)
    grads = t.backward(loss, ["b"])
    assert list(grads) == ["b"] and calls == [(2,)]
    np.testing.assert_array_equal(grads["b"], [3.0, 3.0])


def test_bce_gets_no_vjp_through_labels_alone():
    store = ParamStore()
    store.add("P", np.full((3, 1), 0.25), "backbone")
    store.add("c", np.zeros((3, 1)), "gate")
    t = Tape(store)
    # Labels are constants to bce, so a differentiated label branch yields
    # nothing, and the probabilities, not in ``wrt``, are not differentiated.
    loss = t.bce(t.param("P"), t.sigmoid(t.param("c")))
    t.forward({}, output=loss)
    assert t.backward(loss, ["c"]) == {}


def test_backward_with_nothing_trainable_returns_empty_at_once(monkeypatch):
    store = ParamStore()
    store.add("W", np.ones((1, 2)), "backbone")
    t = Tape(store)
    loss = t.reduce_sum(t.add(t.matmul(t.input("x"), t.param("W"), transpose_b=True),
                               t.input("z")))
    t.forward({"x": np.ones((3, 2)), "z": np.ones((3, 1))}, output=loss)
    calls = _count_unbroadcasts(monkeypatch)
    assert t.backward(loss, []) == {} and calls == []
    assert list(t.backward(loss, ["W"])) == ["W"] and calls


def test_backward_differentiates_exactly_the_names_in_wrt(monkeypatch):
    rng = np.random.default_rng(2)
    store = ParamStore()
    store.add("W", rng.normal(size=(2, 3)), "backbone")
    store.add("b", rng.normal(size=2), "gate")
    store.add("T", rng.normal(size=(4, 3)), "backbone")
    store.add("V", np.ones(2), "gate")  # on no tape
    t = Tape(store)
    x = t.gather(t.param("T"), t.input("idx"))
    h = t.add(t.matmul(x, t.param("W"), transpose_b=True), t.param("b"))
    loss = t.reduce_sum(t.sigmoid(h))
    t.forward({"idx": np.array([0, 3, 3])}, output=loss)
    full = t.backward(loss, store.names())
    assert sorted(full) == ["T", "W", "b"]
    calls = _count_unbroadcasts(monkeypatch)
    # The add's VJP into b unbroadcasts to (2,), the one into the matmul to (3, 2).
    for wrt, reached, unbroadcasts in ((["b", "V"], ["b"], [(2,)]),
                                       (["W", "T"], ["T", "W"], [(3, 2)])):
        calls.clear()
        grads = t.backward(loss, wrt)
        assert sorted(grads) == reached and calls == unbroadcasts
        for name in reached:
            assert grads[name].tobytes() == full[name].tobytes()


def test_backward_after_the_tape_grows_matches_a_fresh_tape():
    rng = np.random.default_rng(5)
    inputs = {"x": rng.normal(size=(4, 3))}
    store = ParamStore()
    store.add("W", rng.normal(size=(2, 3)), "backbone")
    store.add("V", rng.normal(size=(2, 2)), "gate")

    def hidden(t):
        return t.relu(t.matmul(t.input("x"), t.param("W"), transpose_b=True))

    def loss2(t, h):
        return t.reduce_sum(t.sigmoid(t.matmul(h, t.param("V"))))

    t = Tape(store)
    h = hidden(t)
    loss1 = t.reduce_sum(h)
    t.forward(inputs, output=loss1)
    first = t.backward(loss1, store.names())
    loss2_node = loss2(t, h)  # a new param node and a loss reading it
    t.forward(inputs, output=loss2_node)
    grown = t.backward(loss2_node, store.names())

    fresh = Tape(store)
    fresh_loss = loss2(fresh, hidden(fresh))
    fresh.forward(inputs, output=fresh_loss)
    want = fresh.backward(fresh_loss, store.names())
    assert sorted(grown) == sorted(want) == ["V", "W"]
    for name in want:
        np.testing.assert_array_equal(grown[name], want[name])
    t.forward(inputs, output=loss1)
    again = t.backward(loss1, store.names())
    assert list(again) == list(first) == ["W"]
    np.testing.assert_array_equal(again["W"], first["W"])


def test_unbound_input_rejected_by_name():
    t = Tape(ParamStore())
    y = t.relu(t.input("missing"))
    with pytest.raises(AutodiffError, match="missing"):
        t.forward({}, output=y)


def test_non_scalar_loss_rejected():
    t = Tape(ParamStore())
    y = t.relu(t.input("x"))
    t.forward({"x": np.ones((2, 2))}, output=y)
    with pytest.raises(AutodiffError, match=r"shape \(2, 2\): a loss must be a scalar$"):
        t.backward(y, [])


def test_backward_runs_from_any_0d_output():
    store = ParamStore()
    store.add("W", np.array([[1.0, 2.0]]), "backbone")
    t = Tape(store)
    total = t.reduce_sum(t.matmul(t.input("x"), t.param("W"), transpose_b=True))
    doubled = t.scale(total, 2.0)  # 0-d, but neither a bce nor a reduce_sum
    # The first forward allocates its arena, the second reuses it.
    for _ in range(2):
        value = t.forward({"x": np.ones((3, 2))}, output=doubled)
        assert isinstance(value, np.ndarray) and value.shape == () and value == 18.0
        np.testing.assert_array_equal(t.backward(doubled, ["W"])["W"], [[6.0, 6.0]])


def test_backward_from_a_node_the_forward_did_not_output_is_refused():
    store = ParamStore()
    store.add("W", np.ones((1, 2)), "backbone")
    t = Tape(store)
    h = t.matmul(t.input("x"), t.param("W"), transpose_b=True)
    loss = t.reduce_sum(h)
    doubled = t.reduce_sum(t.scale(h, 2.0))
    t.forward({"x": np.ones((3, 2))}, output=doubled)
    with pytest.raises(AutodiffError, match=f"backward from node {loss}, but the last "
                                            f"training forward computed node {doubled}$"):
        t.backward(loss, ["W"])
    np.testing.assert_array_equal(t.backward(doubled, ["W"])["W"], [[6.0, 6.0]])


def test_tape_reexecution_two_batches():
    store = ParamStore()
    store.add("W", np.array([[1.0, -1.0]]), "backbone")
    t = Tape(store)
    y = t.matmul(t.input("x"), t.param("W"), transpose_b=True)
    out1 = t.forward({"x": np.array([[2.0, 1.0]])}, output=y)
    out2 = t.forward({"x": np.array([[0.0, 5.0], [1.0, 1.0]])}, output=y)
    np.testing.assert_array_equal(out1, [[1.0]])
    np.testing.assert_array_equal(out2, [[-5.0], [0.0]])


def test_forward_only_reuses_a_buffer_only_after_its_last_reader():
    store = ParamStore()
    store.add("W", np.array([[1.0, -2.0], [0.5, 3.0]]), "backbone")
    t = Tape(store)
    h = t.relu(t.matmul(t.input("x"), t.param("W"), transpose_b=True))
    sq = t.mul(h, h)  # reads h, which scale and add read again later
    out = t.add(t.softmax(t.add(sq, t.scale(h, 2.0))), t.sigmoid(h))
    x = np.random.default_rng(0).normal(size=(5, 2))
    hv = np.maximum(x @ store.get("W").T, 0.0)
    z = hv * hv + hv * 2.0
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    expect = e / e.sum(axis=-1, keepdims=True) + 1.0 / (1.0 + np.exp(-hv))
    got = next(t.forward_blocks({}, [{"x": x}], out))
    np.testing.assert_allclose(got, expect, rtol=1e-15, atol=0)


def test_forward_blocks_hands_out_a_copy_of_an_output_made_by_a_shared_step():
    store = ParamStore()
    store.add("W", np.array([[1.0, 2.0]]), "backbone")
    t = Tape(store)
    w = t.param("W")
    doubled = t.scale(w, 2.0)  # reads no block input: a shared step, run once
    t.matmul(t.input("x"), doubled, transpose_b=True)
    blocks = [{"x": np.ones((1, 2))}, {"x": np.ones((3, 2))}]
    for output, want in ((doubled, [[2.0, 4.0]]), (w, [[1.0, 2.0]])):
        first, second = t.forward_blocks({}, blocks, output)
        first[...] = 0.0  # each block's value is its own array
        np.testing.assert_array_equal(second, want)
    np.testing.assert_array_equal(store.get("W"), [[1.0, 2.0]])


def sigmoid_both_ways(x):
    """Sigmoid of ``x`` from a forward-only call and from a training forward.

    Forward-only, the sigmoid writes into the buffer of the ``scale`` it reads
    last.  The training forward writes it into the arena; the gradient of
    sum(s * W) with respect to W is s itself, bit for bit.  The training
    forward runs twice: its first call allocates, the second reuses the arena.
    """
    store = ParamStore()
    store.add("W", np.ones_like(x), "backbone")
    t = Tape(store)
    s = t.sigmoid(t.scale(t.input("x"), 1.0))
    loss = t.reduce_sum(t.mul(s, t.param("W")))
    only = next(t.forward_blocks({}, [{"x": x}], s))
    trained = []
    for _ in range(2):
        t.forward({"x": x}, output=loss)
        trained.append(t.backward(loss, ["W"])["W"])
    return only, trained


def test_sigmoid_saturates_exactly_without_warnings():
    x = np.array([-1000.0, -745.0, -710.0, 0.0, 710.0, 745.0, 1000.0, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        only, trained = sigmoid_both_ways(x)
    for got in (only, *trained):
        np.testing.assert_array_equal(got, [0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0, np.nan])


def test_sigmoid_is_one_over_one_plus_libm_exp_within_its_ulp():
    """Each value is 1 / (1 + e), correctly rounded, for an e within 1 ulp of
    libm's exp(-x): numpy's exp may differ from libm's by 1 ulp.  The result
    is then within 2 ulp of 1 / (1 + math.exp(-x)), not 1: where exp(-x)
    dwarfs 1, its 1-ulp step can cross a binade of the reciprocal."""
    x = np.linspace(-709.0, 709.0, 20001)
    got = sigmoid_both_ways(x)[0]
    e = np.array([math.exp(-v) for v in x])
    hit = np.zeros(x.shape, dtype=bool)
    for near in (np.nextafter(e, 0.0), e, np.nextafter(e, np.inf)):
        hit |= got == 1.0 / (1.0 + near)
    assert hit.all(), x[~hit][:5]
    ulps = np.abs(got.view(np.int64) - (1.0 / (1.0 + e)).view(np.int64))
    assert ulps.max() <= 2


def test_sigmoid_training_and_forward_only_give_the_same_bits():
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.normal(scale=30.0, size=4000),
                        [-1000.0, -745.0, -709.5, 0.0, 36.7, 745.0, np.nan]])
    only, trained = sigmoid_both_ways(x)
    for got in trained:
        np.testing.assert_array_equal(got.view(np.uint64), only.view(np.uint64))


def test_backward_without_a_training_forward_raises():
    store = ParamStore()
    store.add("W", np.ones((1, 2)), "backbone")
    t = Tape(store)
    y = t.matmul(t.input("x"), t.param("W"), transpose_b=True)
    loss = t.reduce_sum(t.mul(y, y))
    with pytest.raises(AutodiffError, match="training forward"):
        t.backward(loss, ["W"])
    x = np.ones((3, 2))
    t.forward({"x": x}, output=loss)
    np.testing.assert_array_equal(t.backward(loss, ["W"])["W"], [[12.0, 12.0]])
    next(t.forward_blocks({}, [{"x": 2.0 * x}], y))  # forward-only: keeps nothing
    with pytest.raises(AutodiffError, match="training forward"):
        t.backward(loss, ["W"])


def test_determinism_bit_identical():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(6, 4))

    def run():
        store = ParamStore()
        store.add("W", rng_for(11, "W").normal(size=(3, 4)), "backbone")
        t = Tape(store)
        h = t.softmax(t.matmul(t.input("x"), t.param("W"), transpose_b=True))
        loss = t.reduce_sum(t.scale(h, 1.0 / 18))  # mean of (6, 3)
        v = t.forward({"x": x}, output=loss)
        return np.asarray(v).tobytes() + t.backward(loss, ["W"])["W"].tobytes()

    assert run() == run()


def test_rng_for_is_order_free():
    a = rng_for(5, "emb.user").normal(size=3)
    _ = rng_for(5, "something.else").normal(size=10)
    b = rng_for(5, "emb.user").normal(size=3)
    np.testing.assert_array_equal(a, b)


def test_param_store_group_selectors_and_checksums():
    store = ParamStore()
    store.add("W", np.ones((2, 2)), "backbone")
    store.add("A", np.ones((1, 2)), "expert(0,0,tower.0)")
    store.add("B", np.ones((2, 1)), "expert(1,0,tower.0)")
    store.add("G", np.zeros((2, 2)), "gate")
    # A tag matches by prefix: "expert(0," selects domain 0's experts alone.
    assert store.group_bytes("expert(0,") == b"A|expert(0,0,tower.0)|(1, 2)|" + bytes(
        np.ones(2).astype("<f8"))
    before = store.group_checksum(("backbone", "gate"))
    store.set("A", np.full((1, 2), 9.0))
    assert store.group_checksum(("backbone", "gate")) == before
    store.set("W", np.zeros((2, 2)))
    assert store.group_checksum(("backbone", "gate")) != before


def test_param_store_rejects_duplicates_and_untagged():
    store = ParamStore()
    store.add("W", np.ones(1), "backbone")
    with pytest.raises(AutodiffError):
        store.add("W", np.ones(1), "backbone")
    with pytest.raises(AutodiffError):
        store.add("X", np.ones(1), "")


def test_param_store_keeps_a_0d_value_0d():
    store = ParamStore()
    store.add("c", np.array(4.0), "backbone")
    assert store.get("c").shape == ()
    store.set("c", np.array(5.0))
    assert store.get("c").shape == () and store.get("c") == 5.0
    with pytest.raises(ShapeError, match="'c'"):
        store.set("c", np.array([5.0]))


def test_graph_construction_refuses_bad_nodes_and_operands():
    t = Tape(ParamStore())
    x = t.input("x")
    with pytest.raises(AutodiffError, match="op 'add' references unknown node 5"):
        t.add(x, 5)
    with pytest.raises(AutodiffError, match="op 'relu' references unknown node -1"):
        t.relu(-1)
    with pytest.raises(AutodiffError, match="unknown parameter 'nope'"):
        t.param("nope")
    with pytest.raises(AutodiffError, match="concat of zero nodes"):
        t.concat([])
    with pytest.raises(AutodiffError, match="reduce_sum supports axis None or -1 only"):
        t.reduce_sum(x, axis=0)
    assert len(t.nodes) == 1


def test_forward_refuses_an_output_out_of_range():
    t = Tape(ParamStore())
    t.relu(t.input("x"))
    for bad in (2, -1):
        with pytest.raises(AutodiffError, match=f"output node {bad} out of range"):
            t.forward({"x": np.ones(2)}, output=bad)


def test_matmul_of_a_1d_operand_names_the_node():
    t = Tape(ParamStore())
    y = t.matmul(t.input("a"), t.input("b"))
    with pytest.raises(ShapeError, match=rf"node {y} \(matmul\): incompatible shapes"):
        t.forward({"a": np.ones(2), "b": np.ones((2, 2))}, output=y)


def test_gather_refuses_a_float_index():
    store = ParamStore()
    store.add("T", np.ones((4, 2)), "backbone")
    t = Tape(store)
    rows = t.gather(t.param("T"), t.input("idx"))
    with pytest.raises(AutodiffError, match=rf"node {rows} \(gather\): index array must be"):
        t.forward({"idx": np.array([0.0, 1.0])}, output=rows)


def test_gather_range_error_in_a_training_forward_keeps_no_values():
    store = ParamStore()
    store.add("T", np.ones((4, 2)), "backbone")
    t = Tape(store)
    rows = t.gather(t.param("T"), t.input("idx"))
    loss = t.reduce_sum(rows)
    t.forward({"idx": np.array([0, 3])}, output=loss)
    for bad in ([0, 4], [-1, 0]):
        with pytest.raises(AutodiffError, match=rf"node {rows} \(gather\): index out of "
                                                r"range for table of 4 rows"):
            t.forward({"idx": np.array(bad)}, output=loss)
        with pytest.raises(AutodiffError, match="training forward"):
            t.backward(loss, ["T"])


def test_integer_inputs_compute_in_float64():
    t = Tape(ParamStore())
    total = t.add(t.input("a"), t.input("b"))
    loss = t.reduce_sum(total)
    feed = {"a": np.array([1, 2]), "b": np.array([3, 4])}
    out = t.forward(feed, output=total)
    first = t.forward(feed, output=loss)
    second = t.forward(feed, output=loss)
    assert out.dtype == first.dtype == second.dtype == np.float64
    np.testing.assert_array_equal(out, [4.0, 6.0])
    assert first == second == 10.0


def test_an_input_read_only_as_a_gather_index_is_bound_as_given():
    store = ParamStore()
    store.add("T", np.arange(8.0).reshape(4, 2), "backbone")
    t = Tape(store)
    idx = t.input("idx")
    rows = t.gather(t.param("T"), idx)
    got = t.forward({"idx": np.array([3, 0], dtype=np.int32)}, output=rows)
    np.testing.assert_array_equal(got, [[6.0, 7.0], [0.0, 1.0]])
    with pytest.raises(AutodiffError, match=r"index array must be integer \(input 'idx'\)$"):
        t.forward({"idx": np.array([3.0, 0.0])}, output=rows)
    with pytest.raises(AutodiffError, match=r"table of 4 rows \(input 'idx'\)$"):
        t.forward({"idx": np.array([4, 0])}, output=rows)
    # Read as a value as well, the input is cast to float64, which no gather takes.
    both = t.add(rows, idx)
    with pytest.raises(AutodiffError, match=r"index array must be integer \(input 'idx'\)$"):
        t.forward({"idx": np.array([3, 0])}, output=both)
