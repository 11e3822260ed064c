import json
import struct

import numpy as np
import pytest

from melodygen import smallnet
from melodygen.errors import FormatError, GradientError, ShapeError, ValidationError
from conftest import traced_peak
from fdcheck import central_diff_grad, check_grads, max_rel_err, sample_coords


def identity_net(n):
    return smallnet.DenseNet([smallnet.DenseLayer(np.eye(n), np.zeros(n), "identity")])


def backward(net, x, up):
    """One forward + reverse pass over a batch: (param grads, input grad)."""
    _, cache = net.forward_cached(x)
    return net.backward_cached(cache, up)


class TestForward:
    def test_identity_net(self):
        net = identity_net(2)
        assert np.allclose(net.forward(np.array([[1.0, 2.0]])), [[1.0, 2.0]])

    def test_zero_weights_bias_only(self):
        net = smallnet.DenseNet([smallnet.DenseLayer(np.zeros((1, 2)), np.array([3.0]), "identity")])
        assert np.allclose(net.forward(np.array([[5.0, 7.0]])), [[3.0]])

    def test_seeded_net_matches_hand_computed_product(self):
        # layer-by-layer oracle: replay the affine/activation chain by hand
        rng = smallnet.spawn_rng(5)
        net = smallnet.DenseNet.create([3, 4, 2], ["tanh", "identity"], rng)
        x = np.array([0.3, -1.2, 0.7])
        h = np.tanh(net.layers[0].w @ x + net.layers[0].b)
        expected = net.layers[1].w @ h + net.layers[1].b
        assert np.allclose(net.forward(x[None, :])[0], expected, rtol=0, atol=1e-15)

    def test_batch_matches_single(self):
        rng = smallnet.spawn_rng(6)
        net = smallnet.DenseNet.create([3, 5, 2], "tanh", rng)
        xs = rng.standard_normal((4, 3))
        batch = net.forward(xs)
        for i in range(4):
            assert np.allclose(batch[i], net.forward(xs[i:i + 1])[0])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            identity_net(2).forward(np.array([[1.0, 2.0, 3.0]]))
        with pytest.raises(ShapeError):  # a vector is not a batch
            identity_net(2).forward(np.array([1.0, 2.0]))

    def test_bad_chain_rejected(self):
        with pytest.raises(ShapeError):
            smallnet.DenseNet([
                smallnet.DenseLayer(np.eye(2), np.zeros(2), "identity"),
                smallnet.DenseLayer(np.eye(3), np.zeros(3), "identity"),
            ])


class TestBackward:
    def test_single_linear_layer_input_grad(self):
        rng = smallnet.spawn_rng(7)
        w = rng.standard_normal((3, 4))
        net = smallnet.DenseNet([smallnet.DenseLayer(w, np.zeros(3), "identity")])
        up = rng.standard_normal(3)
        _, dx = backward(net, rng.standard_normal((1, 4)), up[None, :])
        assert np.allclose(dx[0], w.T @ up)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_central_differences(self, seed):
        rng = smallnet.spawn_rng(seed)
        net = smallnet.DenseNet.create([4, 6, 3], "tanh", rng)
        x = rng.standard_normal((1, 4))
        up = rng.standard_normal((1, 3))  # loss = <up, net(x)>

        def loss():
            return float(np.sum(up * net.forward(x)))

        grads, _ = backward(net, x, up)
        params = net.named_parameters().values()
        worst = 0.0
        for p, g in zip(params, grads):
            for coord in sample_coords(rng, p.shape, 4):
                num = central_diff_grad(loss, p, [coord])[coord]
                worst = max(worst, max_rel_err(float(g[coord]), num))
        assert worst <= 1e-4

    def test_batch_param_grads_sum_over_batch(self):
        rng = smallnet.spawn_rng(8)
        net = smallnet.DenseNet.create([3, 2], ["identity"], rng)
        xs = rng.standard_normal((5, 3))
        ups = rng.standard_normal((5, 2))
        batch_grads, _ = backward(net, xs, ups)
        summed = [np.zeros_like(p) for p in net.named_parameters().values()]
        for i in range(5):
            g, _ = backward(net, xs[i:i + 1], ups[i:i + 1])
            for acc, gi in zip(summed, g):
                acc += gi
        for a, b in zip(batch_grads, summed):
            assert np.allclose(a, b)

    @pytest.mark.parametrize("cols", [slice(2, 5), slice(4, None), slice(None)])
    def test_selected_input_columns_match_full_gradient(self, cols):
        rng = smallnet.spawn_rng(9)
        net = smallnet.DenseNet.create([6, 5, 3], "tanh", rng)
        x = rng.standard_normal((4, 6))
        up = rng.standard_normal((4, 3))  # loss = sum(up * net(x))
        _, cache = net.forward_cached(x)
        full_grads, full = net.backward_cached(cache, up)
        grads, selected = net.backward_cached(cache, up, cols)
        # a column block is its own BLAS product, which may round differently
        assert np.allclose(selected, full[:, cols], rtol=1e-14, atol=1e-15)
        for g, f in zip(grads, full_grads):
            assert np.array_equal(g, f)
        skipped, none = net.backward_cached(cache, up, None)
        assert none is None
        for g, f in zip(skipped, full_grads):
            assert np.array_equal(g, f)

        def loss_and_grads():
            _, c = net.forward_cached(x)
            return float(np.sum(up * net.forward(x))), [net.backward_cached(c, up, cols)[1]]

        check_grads(loss_and_grads, [x[:, cols]], rng)

    def test_upstream_shape_checked(self):
        with pytest.raises(ShapeError):
            backward(identity_net(2), np.array([[1.0, 2.0]]), np.array([[1.0, 2.0, 3.0]]))


class TestOptimizer:
    def test_zero_grad_adamw_no_decay_keeps_params(self):
        p = np.array([1.5, -2.0])
        opt = smallnet.Optimizer({"p": p}, learning_rate=0.1)
        opt.step([np.zeros(2)])
        assert np.allclose(p, [1.5, -2.0])

    def test_adam_first_step_moves_by_lr(self):
        # bias correction makes the first update m_hat/sqrt(v_hat) = 1
        p = np.array([0.0])
        opt = smallnet.Optimizer({"p": p}, learning_rate=0.1)
        opt.step([np.array([1.0])])
        assert p[0] == pytest.approx(-0.1, rel=1e-6)

    def test_nonfinite_gradient_rejected_with_name(self):
        p = np.array([1.0])
        opt = smallnet.Optimizer({"w0": p}, learning_rate=0.1)
        with pytest.raises(GradientError) as e:
            opt.step([np.array([np.nan])])
        assert "w0" in str(e.value)
        assert p[0] == 1.0  # update rejected

    def test_step_count_increments(self):
        p = np.array([0.0])
        opt = smallnet.Optimizer({"p": p}, learning_rate=0.1)
        for expected in (1, 2, 3):
            opt.step([np.array([0.5])])
            assert opt.step_count == expected

    def test_determinism_across_runs(self):
        def run():
            rng = smallnet.spawn_rng(11)
            net = smallnet.DenseNet.create([3, 4, 2], "tanh", rng)
            opt = smallnet.Optimizer(net.named_parameters(), learning_rate=1e-2)
            for _ in range(20):
                x = rng.standard_normal((1, 3))
                up = net.forward(x)  # pulls outputs toward zero
                grads, _ = backward(net, x, up)
                opt.step(grads)
            return [p.copy() for p in net.named_parameters().values()]

        a, b = run(), run()
        for pa, pb in zip(a, b):
            assert np.array_equal(pa, pb)  # bit-identical


    def test_rejected_gradient_leaves_state_unchanged(self):
        rng = smallnet.spawn_rng(13)
        params = [rng.standard_normal((3, 4)), rng.standard_normal(4)]
        opt = smallnet.Optimizer(dict(zip(["w0", "b0"], params)), learning_rate=0.1)
        for _ in range(2):
            opt.step([rng.standard_normal(p.shape) for p in params])
        before = [a.copy() for a in params + opt._m + opt._v]
        bad = [rng.standard_normal((3, 4)), np.array([0.0, np.inf, 0.0, 0.0])]
        with pytest.raises(GradientError, match="b0"):
            opt.step(bad)
        assert opt.step_count == 2
        for a, b in zip(params + opt._m + opt._v, before):
            assert np.array_equal(a, b)

    def test_gradient_count_and_shapes_checked(self):
        p, q = np.zeros(2), np.zeros(3)
        opt = smallnet.Optimizer({"w0": p, "b0": q}, learning_rate=0.1)
        with pytest.raises(ShapeError, match="gradients"):
            opt.step([np.ones(2)])
        with pytest.raises(ShapeError, match="b0"):
            opt.step([np.ones(2), np.ones(4)])
        assert opt.step_count == 0 and not p.any() and not q.any()

    def test_non_contiguous_parameter_rejected(self):
        # an in-place blocked update through a flattened copy would be lost
        p = np.zeros((4, 4))[:, ::2]
        with pytest.raises(ShapeError, match="contiguous"):
            smallnet.Optimizer({"w0": p}, learning_rate=0.1)


class TestDtype:
    """A net built from float32 arrays computes in float32; any other net in
    float64. Adam updates each parameter in its own dtype."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_and_backward_stay_in_the_nets_dtype(self, dtype):
        rng = smallnet.spawn_rng(15)
        net = smallnet.DenseNet.create([6, 5, 3], "tanh", rng).astype(dtype)
        x, up = rng.standard_normal((4, 6)), rng.standard_normal((4, 3))
        out, (inputs, preacts) = net.forward_cached(x)
        grads, dx = net.backward_cached((inputs, preacts), up)
        assert net.dtype == dtype
        for a in [out, dx, *inputs, *preacts, *grads, *net.named_parameters().values()]:
            assert a.dtype == dtype

    def test_float32_passes_track_float64_ones_on_the_same_values(self):
        rng = smallnet.spawn_rng(16)
        net32 = smallnet.DenseNet.create([6, 5, 3], "tanh", rng).astype(np.float32)
        net64 = net32.astype(np.float64)
        x, up = rng.standard_normal((4, 6)), rng.standard_normal((4, 3))
        g32, dx32 = backward(net32, x, up)
        g64, dx64 = backward(net64, x, up)
        assert np.allclose(net32.forward(x), net64.forward(x), rtol=1e-5, atol=1e-6)
        for a, b in zip(g32 + [dx32], g64 + [dx64]):
            assert np.allclose(a, b, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("w, b, dtype", [
        (np.float32, np.float32, np.float32),
        (np.float32, np.float64, np.float64),
        (np.float64, np.float32, np.float64),
        (np.int64, np.int64, np.float64),
    ])
    def test_layer_keeps_float32_parameters_only(self, w, b, dtype):
        layer = smallnet.DenseLayer(np.ones((2, 3), w), np.zeros(2, b), "tanh")
        assert layer.w.dtype == layer.b.dtype == dtype

    def test_layers_of_two_dtypes_rejected(self):
        rng = smallnet.spawn_rng(17)
        a = smallnet.DenseNet.create([3, 4], ["tanh"], rng).layers
        b = smallnet.DenseNet.create([4, 2], ["identity"], rng).astype(np.float32).layers
        with pytest.raises(ValidationError, match="dtype"):
            smallnet.DenseNet(a + b)

    def test_adam_keeps_each_parameters_dtype(self):
        rng = smallnet.spawn_rng(18)
        params = [rng.standard_normal((3, 4)).astype(np.float32), rng.standard_normal(4)]
        opt = smallnet.Optimizer(dict(zip(["w0", "b0"], params)), learning_rate=0.1)
        before = [p.copy() for p in params]
        for _ in range(3):
            opt.step([rng.standard_normal(p.shape) for p in params])  # float64 grads
        for p, p0, m, v in zip(params, before, opt._m, opt._v):
            assert p.dtype == m.dtype == v.dtype == p0.dtype
            assert not np.array_equal(p, p0)

    @pytest.mark.parametrize("shape", [(7,), (2 * smallnet.CACHE_BLOCK + 5,)],
                             ids=["under_one_block", "two_blocks_and_5"])
    def test_float32_adam_matches_reference_in_float32_bit_for_bit(self, shape):
        rng = smallnet.spawn_rng(19)
        params = [rng.standard_normal(shape).astype(np.float32)]
        ref = [p.copy() for p in params]
        m, v = [np.zeros_like(p) for p in ref], [np.zeros_like(p) for p in ref]
        opt = smallnet.Optimizer({"p": params[0]}, learning_rate=3e-3)
        for t in range(1, 5):
            grads = [rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3)]
            opt.step(grads)
            reference_adam(opt, ref, [g.astype(np.float32) for g in grads], m, v, t)
            for a, b in zip(params + opt._m + opt._v, ref + m + v):
                assert a.dtype == np.float32 and np.array_equal(a, b)

    def test_gradient_overflowing_a_float32_parameter_rejected_by_name(self):
        rng = smallnet.spawn_rng(20)
        params = [rng.standard_normal(4), rng.standard_normal((2, 3)).astype(np.float32)]
        opt = smallnet.Optimizer(dict(zip(["b0", "w1"], params)), learning_rate=0.1)
        opt.step([rng.standard_normal(p.shape) for p in params])
        before = [a.copy() for a in params + opt._m + opt._v]
        bad = np.zeros((2, 3))
        bad[1, 2] = 1e39  # finite in float64, inf in float32
        with pytest.raises(GradientError, match="w1"):
            opt.step([np.zeros(4), bad])
        assert opt.step_count == 1
        for a, b in zip(params + opt._m + opt._v, before):
            assert np.array_equal(a, b)


def reference_adam(opt, params, grads, m, v, t):
    """The textbook whole-array update the blocked one must equal bit for bit."""
    b1, b2 = opt.betas
    bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
    for p, g, mm, vv in zip(params, grads, m, v):
        mm *= b1
        mm += (1.0 - b1) * g
        vv *= b2
        vv += (1.0 - b2) * g * g
        update = (mm / bc1) / (np.sqrt(vv / bc2) + opt.eps)
        p -= opt.learning_rate * update


@pytest.mark.parametrize("shape", [
    (), (7,), (smallnet.CACHE_BLOCK,), (3, smallnet.CACHE_BLOCK // 2 + 1),
    (2 * smallnet.CACHE_BLOCK + 5,),
], ids=["0-d", "under_one_block", "one_block", "not_a_multiple", "two_blocks_and_5"])
def test_blocked_adam_matches_reference_bit_for_bit(shape):
    rng = smallnet.spawn_rng(14)
    params = [rng.standard_normal(shape), rng.standard_normal(5)]
    ref = [p.copy() for p in params]
    m, v = [np.zeros_like(p) for p in ref], [np.zeros_like(p) for p in ref]
    opt = smallnet.Optimizer(dict(zip(["p", "q"], params)), learning_rate=3e-3)
    for t in range(1, 5):
        grads = [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3) for p in params]
        opt.step(grads)
        reference_adam(opt, ref, grads, m, v, t)
        for a, b in zip(params + opt._m + opt._v, ref + m + v):
            assert np.array_equal(a, b)


class TestCheckpoint:
    def test_roundtrip_float32_exact(self, tmp_path):
        rng = smallnet.spawn_rng(12)
        arrays = {"a": rng.standard_normal((3, 2)).astype(np.float32).astype(np.float64),
                  "b": rng.standard_normal(5).astype(np.float32).astype(np.float64)}
        path = tmp_path / "ck.json"
        smallnet.save_checkpoint(path, arrays, {"note": 1})
        loaded, meta = smallnet.load_checkpoint(path)
        assert meta == {"note": 1}
        for k in arrays:
            assert np.array_equal(loaded[k], arrays[k])

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = smallnet.spawn_rng(13)
        net = smallnet.DenseNet.create([4, 3], ["tanh"], rng)
        arrays, meta = net.named_parameters(), smallnet.net_meta(net)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        smallnet.save_checkpoint(p1, arrays, meta)
        loaded, meta2 = smallnet.load_checkpoint(p1)
        smallnet.save_checkpoint(p2, loaded, meta2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_net_state_roundtrip(self, tmp_path):
        rng = smallnet.spawn_rng(14)
        net = smallnet.DenseNet.create([4, 6, 2], "tanh", rng)
        arrays, meta = net.named_parameters("n."), smallnet.net_meta(net)
        path = tmp_path / "net.json"
        smallnet.save_checkpoint(path, arrays, meta)
        loaded, meta2 = smallnet.load_checkpoint(path)
        rebuilt = smallnet.net_from_state(loaded, meta2, "n.")
        x = rng.standard_normal((3, 4))
        assert np.allclose(rebuilt.forward(x), net.forward(x), atol=1e-6)
        assert [l.activation for l in rebuilt.layers] == [l.activation for l in net.layers]

    def test_format_version_enforced(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99, "arrays": {}, "meta": {}}))
        with pytest.raises(ValidationError):
            smallnet.load_checkpoint(path)


def reference_checkpoint_bytes(arrays, meta=None, exact=()) -> bytes:
    """The file the writer made when it widened every payload to float64,
    cast it to the stored type and copied it out with ``tobytes()``."""
    payloads = [(k, np.asarray(v, dtype=np.float64), "<f8" if k in exact else "<f4")
                for k, v in sorted(arrays.items())]
    entries = [[k, list(a.shape)] + ([dtype] if dtype == "<f8" else [])
               for k, a, dtype in payloads]
    header = json.dumps({"arrays": entries, "meta": meta or {}},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    return (b"MGCK" + struct.pack("<IQ", 2, len(header)) + header
            + b"".join(a.astype(dtype).tobytes() for _, a, dtype in payloads))


def layouts(dtype) -> dict[str, np.ndarray]:
    """Arrays of ``dtype`` in each layout a payload can arrive in."""
    rng = smallnet.spawn_rng(17)
    if dtype == np.bool_:
        grid = rng.random((6, 5)) < 0.5
    elif dtype == np.int64:
        # 2**60 + 2**36 + 1 rounds up to float32 directly, but to 2**60 through
        # float64, which lands on a float32 tie first
        grid = rng.integers(-2**62, 2**62, size=(6, 5))
        grid[0, :3] = 2**60 + 2**36 + 1, 2**53 + 1, -(2**60 + 2**36 + 1)
    else:
        grid = (rng.standard_normal((6, 5)) * 1e3).astype(dtype)
    return {"plain": grid, "scalar": grid[1, 1].copy(), "0d": np.asarray(grid[2, 2]),
            "empty": grid[:0], "transposed": grid.T, "strided": grid[::2, 1::2]}


class TestCheckpointWriter:
    @pytest.mark.parametrize("exact", ["none", "all"])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, np.bool_, np.int64])
    def test_writes_the_bytes_of_the_float64_route(self, tmp_path, dtype, exact):
        arrays = layouts(dtype)
        named = tuple(arrays) if exact == "all" else ()
        path = tmp_path / "w.ckpt"
        smallnet.save_checkpoint(path, arrays, {"k": 1}, exact=named)
        assert path.read_bytes() == reference_checkpoint_bytes(arrays, {"k": 1}, named)

    @pytest.mark.parametrize("dtype, exact", [(np.float32, ()), (np.float64, ("a",))],
                             ids=["float32", "float64_exact"])
    def test_an_array_in_its_stored_type_is_written_without_a_copy(self, tmp_path, dtype,
                                                                   exact):
        a = smallnet.spawn_rng(18).standard_normal((512, 1024)).astype(dtype)
        peak = traced_peak(lambda: smallnet.save_checkpoint(tmp_path / "big.ckpt",
                                                            {"a": a}, exact=exact))
        assert peak < a.nbytes // 8, (peak, a.nbytes)
        assert (tmp_path / "big.ckpt").read_bytes() == reference_checkpoint_bytes(
            {"a": a}, exact=exact)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, np.int64])
    def test_as_stored_is_the_loaded_value(self, tmp_path, dtype):
        a = layouts(dtype)["plain"]
        smallnet.save_checkpoint(tmp_path / "s.ckpt", {"a": a})
        loaded = smallnet.load_checkpoint(tmp_path / "s.ckpt")[0]["a"]
        stored = smallnet.as_stored(a)
        assert stored.dtype == np.float64 and stored.tobytes() == loaded.tobytes()
        assert stored.tobytes() == np.asarray(a, np.float64).astype(np.float32).astype(
            np.float64).tobytes()


def _write_checkpoint_bytes(path, header: bytes, payload: bytes = b"",
                            header_len: int | None = None, version: int = 2) -> None:
    n = len(header) if header_len is None else header_len
    path.write_bytes(b"MGCK" + struct.pack("<IQ", version, n) + header + payload)


class TestCheckpointFormat:
    @pytest.fixture
    def saved(self, tmp_path):
        arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([0.5, -1.0])}
        path = tmp_path / "m.ckpt"
        smallnet.save_checkpoint(path, arrays, {"k": [1, 2]})
        return path

    def test_byte_layout(self, saved):
        raw = saved.read_bytes()
        assert raw[:4] == b"MGCK"
        version, header_len = struct.unpack_from("<IQ", raw, 4)
        assert version == smallnet.CHECKPOINT_FORMAT_VERSION == 2
        header = raw[16:16 + header_len]
        assert header == b'{"arrays":[["b",[2]],["w",[2,3]]],"meta":{"k":[1,2]}}'
        payload = raw[16 + header_len:]
        assert payload == (np.array([0.5, -1.0], "<f4").tobytes()
                           + np.arange(6, dtype="<f4").tobytes())

    def test_loaded_arrays_are_writable_float64(self, saved):
        """Each array is fresh: writable, owning its data and shared with no
        other load, so a net may adopt it as its parameter."""
        arrays, _ = smallnet.load_checkpoint(saved)
        again, _ = smallnet.load_checkpoint(saved)
        for name, a in arrays.items():
            assert a.dtype == np.float64 and a.flags.writeable and a.flags.owndata
            assert not np.shares_memory(a, again[name])

    def test_scalar_and_empty_arrays_roundtrip(self, tmp_path):
        path = tmp_path / "edge.ckpt"
        smallnet.save_checkpoint(path, {"s": np.float64(2.5), "z": np.zeros((0, 3))})
        arrays, meta = smallnet.load_checkpoint(path)
        assert meta == {}
        assert arrays["s"].shape == () and arrays["s"] == 2.5
        assert arrays["z"].shape == (0, 3)

    def test_failed_write_keeps_previous_checkpoint(self, saved, disk_full):
        before = saved.read_bytes()
        with pytest.raises(OSError):
            smallnet.save_checkpoint(saved, {"w": np.ones(4)}, {"k": "new"})
        assert saved.read_bytes() == before
        assert sorted(p.name for p in saved.parent.iterdir()) == ["m.ckpt"]

    def test_truncated_payload(self, saved):
        saved.write_bytes(saved.read_bytes()[:-5])
        with pytest.raises(FormatError) as e:
            smallnet.load_checkpoint(saved)
        assert "m.ckpt" in str(e.value) and "'w' truncated" in str(e.value)
        header_len = struct.unpack_from("<Q", saved.read_bytes(), 8)[0]
        assert e.value.offset == 16 + header_len + 2 * 4  # after "b"'s two floats

    def test_exact_array_roundtrips_bit_for_bit(self, tmp_path):
        rng = smallnet.spawn_rng(16)
        arrays = {"x": rng.standard_normal((4, 3, 2)) * 1e-7, "w": rng.standard_normal(5)}
        path = tmp_path / "exact.ckpt"
        smallnet.save_checkpoint(path, arrays, {"k": 1}, exact=("x",))
        loaded, meta = smallnet.load_checkpoint(path)
        assert meta == {"k": 1}
        for a in loaded.values():
            assert a.dtype == np.float64 and a.flags.writeable and a.flags.owndata
        assert loaded["x"].tobytes() == arrays["x"].tobytes()
        assert np.array_equal(loaded["w"], arrays["w"].astype(np.float32))
        raw = path.read_bytes()
        header_len = struct.unpack_from("<Q", raw, 8)[0]
        assert raw[16:16 + header_len] == (b'{"arrays":[["w",[5]],["x",[4,3,2],"<f8"]],'
                                           b'"meta":{"k":1}}')
        assert raw[16 + header_len + 5 * 4:] == arrays["x"].astype("<f8").tobytes()

    def test_truncated_exact_payload(self, tmp_path):
        path = tmp_path / "exact.ckpt"
        smallnet.save_checkpoint(path, {"a": np.ones(2), "x": np.arange(3.0)}, exact=("x",))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError) as e:
            smallnet.load_checkpoint(path)
        assert "'x' truncated (wants 24 bytes, has 23)" in str(e.value)
        header_len = struct.unpack_from("<Q", path.read_bytes(), 8)[0]
        assert e.value.offset == 16 + header_len + 2 * 4  # after "a"'s two floats

    def test_oversized_array_entry_refused_before_allocating(self, tmp_path):
        """The sizes come from the file, so an entry far larger than it is
        refused as truncated, not allocated."""
        path = tmp_path / "huge.ckpt"
        _write_checkpoint_bytes(path, b'{"arrays":[["w",[1099511627776]]],"meta":{}}', bytes(8))
        with pytest.raises(FormatError) as e:
            smallnet.load_checkpoint(path)
        assert "'w' truncated (wants 4398046511104 bytes, has 8)" in str(e.value)
        assert e.value.offset == path.stat().st_size - 8

    def test_trailing_bytes(self, saved):
        size = len(saved.read_bytes())
        saved.write_bytes(saved.read_bytes() + b"\0\0\0")
        with pytest.raises(FormatError) as e:
            smallnet.load_checkpoint(saved)
        assert "m.ckpt" in str(e.value) and "3 trailing bytes" in str(e.value)
        assert e.value.offset == size

    def test_header_length_past_end_of_file(self, tmp_path):
        path = tmp_path / "long.ckpt"
        _write_checkpoint_bytes(path, b'{"arrays":[],"meta":{}}', header_len=10_000)
        with pytest.raises(FormatError) as e:
            smallnet.load_checkpoint(path)
        assert "long.ckpt" in str(e.value) and "header length 10000" in str(e.value)
        assert e.value.offset == 8

    @pytest.mark.parametrize("header,payload,message", [
        (b'{"arrays":[["w",[2]]', b"", "unparseable header"),
        (b'{"arrays":[["w",[-1,2]]],"meta":{}}', bytes(8), "negative dimension"),
        (b'{"arrays":[["w",[2.5]]],"meta":{}}', bytes(8), "bad array entry"),
        (b'{"arrays":[["w",[1]],["w",[1]]],"meta":{}}', bytes(8), "listed twice"),
        (b'{"arrays":[]}', b"", "'meta' object"),
        (b'{"arrays":[["w",[1],"<f2"]],"meta":{}}', bytes(2), "bad array entry"),
    ], ids=["unparseable", "negative_dim", "float_dim", "duplicate_name", "no_meta",
            "unknown_payload_type"])
    def test_malformed_header(self, tmp_path, header, payload, message):
        path = tmp_path / "bad.ckpt"
        _write_checkpoint_bytes(path, header, payload)
        with pytest.raises(FormatError) as e:
            smallnet.load_checkpoint(path)
        assert "bad.ckpt" in str(e.value) and message in str(e.value)
        assert e.value.offset == 16

    def test_file_shorter_than_preamble(self, saved):
        saved.write_bytes(saved.read_bytes()[:10])
        with pytest.raises(FormatError) as e:
            smallnet.load_checkpoint(saved)
        assert e.value.offset == 10

    def test_old_json_checkpoint_asks_for_rerun(self, tmp_path):
        path = tmp_path / "clmp.json"
        path.write_text(json.dumps({"format_version": 1, "arrays": {}, "meta": {}}))
        with pytest.raises(ValidationError) as e:
            smallnet.load_checkpoint(path)
        assert "clmp.json" in str(e.value) and "rerun" in str(e.value)

    def test_other_binary_version_refused(self, tmp_path):
        path = tmp_path / "v3.ckpt"
        _write_checkpoint_bytes(path, b'{"arrays":[],"meta":{}}', version=3)
        with pytest.raises(ValidationError, match="format_version 3"):
            smallnet.load_checkpoint(path)

    def test_net_from_state_adopts_loaded_arrays(self, tmp_path):
        net = smallnet.DenseNet.create([3, 2], ["tanh"], smallnet.spawn_rng(15))
        arrays, meta = net.named_parameters(), smallnet.net_meta(net)
        path = tmp_path / "n.ckpt"
        smallnet.save_checkpoint(path, arrays, meta)
        loaded, meta2 = smallnet.load_checkpoint(path)
        rebuilt = smallnet.net_from_state(loaded, meta2)
        assert rebuilt.layers[0].w is loaded["w0"]


class TestRng:
    def test_same_seed_same_stream(self):
        a = smallnet.spawn_rng(42).standard_normal(8)
        b = smallnet.spawn_rng(42).standard_normal(8)
        assert np.array_equal(a, b)

    def test_spawned_streams_differ(self):
        a = smallnet.spawn_rng(42, 1).standard_normal(4)
        b = smallnet.spawn_rng(42, 2).standard_normal(4)
        assert not np.array_equal(a, b)
