import numpy as np
import pytest

from melodygen import latentcodec as lc
from melodygen import smallnet
from melodygen.config import LatentConfig, SignalConfig
from melodygen.errors import ShapeError, ValidationError
from melodygen.signal import DB_FLOOR
from conftest import mel_grid, traced_peak
from fdcheck import central_diff_grad, max_rel_err, sample_coords


def codec(seed, **fields):
    """A codec of the default widths, or those ``fields`` set."""
    return lc.LatentCodecModel.create(LatentConfig(**fields), SignalConfig(), seed)


def random_mel(rng, t=16, f=16):
    return mel_grid(DB_FLOOR + 70.0 * rng.random((t, f)))


class TestShapes:
    def test_shape_law_64x64_r4_c8(self):
        model = codec(0, compression=4, channels=8)
        rng = smallnet.spawn_rng(0)
        z = lc.encode_mel(model, random_mel(rng, 64, 64))
        assert z.shape == (8, 16, 16)

    @pytest.mark.parametrize("t,f,r,c", [(8, 8, 2, 3), (16, 32, 4, 8), (12, 12, 4, 2)])
    def test_shape_law_general(self, t, f, r, c):
        model = codec(1, compression=r, channels=c)
        rng = smallnet.spawn_rng(1)
        z = lc.encode_mel(model, random_mel(rng, t, f))
        assert z.shape == (c, t // r, f // r)
        rec = lc.decode_latent(model, z)
        assert rec.values.shape == (t, f)

    def test_indivisible_shape_rejected(self):
        model = codec(2, compression=4)
        rng = smallnet.spawn_rng(2)
        with pytest.raises(ShapeError):
            lc.encode_mel(model, random_mel(rng, 10, 16))

    @pytest.mark.parametrize("z, error", [
        (np.zeros((4, 2, 2)), ShapeError),
        (np.zeros((8, 4)), ShapeError),
        (np.full((8, 2, 2), np.nan), ValidationError),
    ], ids=["channels", "2d", "nan"])
    def test_unusable_latent_rejected(self, z, error):
        model = codec(3, compression=4, channels=8)
        with pytest.raises(error):
            lc.decode_latent(model, z)

    def test_patch_grid_roundtrip_exact(self):
        rng = smallnet.spawn_rng(3)
        x = rng.random((12, 8))
        assert np.array_equal(lc._from_patches(lc._to_patches(x, 4), 12, 8, 4), x)


class TestEncodeDecode:
    def test_zero_encoder_gives_zero_latent(self):
        model = codec(4, compression=2, channels=4)
        for layer in model.encoder.layers:
            layer.w[:] = 0.0
            layer.b[:] = 0.0
        rng = smallnet.spawn_rng(4)
        z = lc.encode_mel(model, random_mel(rng, 8, 8))
        assert np.all(z == 0.0)

    def test_zero_decoder_gives_floor_grid(self):
        model = codec(5, compression=2, channels=4)
        for layer in model.decoder.layers:
            layer.w[:] = 0.0
            layer.b[:] = 0.0
        rec = lc.decode_latent(model, np.ones((4, 4, 4)))
        assert np.all(rec.values == DB_FLOOR)

    def test_patch_locality(self):
        model = codec(6, compression=4, channels=4)
        rng = smallnet.spawn_rng(6)
        m = random_mel(rng, 16, 16)
        z0 = lc.encode_mel(model, m)
        bumped = m.values.copy()
        bumped[0:4, 0:4] += 5.0  # one patch
        z1 = lc.encode_mel(model, mel_grid(bumped))
        changed = np.any(z0 != z1, axis=0)
        assert changed[0, 0]
        assert not changed[1:, :].any() and not changed[0, 1:].any()

    def test_decode_clamped_to_db_range(self):
        model = codec(7, compression=2, channels=4)
        rec = lc.decode_latent(model, 50.0 * np.ones((4, 2, 2)))
        assert rec.values.min() >= DB_FLOOR and rec.values.max() <= 0.0

    def test_determinism(self):
        model = codec(8)
        rng = smallnet.spawn_rng(8)
        m = random_mel(rng, 16, 16)
        assert np.array_equal(lc.encode_mel(model, m), lc.encode_mel(model, m))


class TestTraining:
    def _mels(self, n=40, seed=9):
        rng = smallnet.spawn_rng(seed)
        # low-rank structured grids so a small codec can reconstruct them
        out = []
        for _ in range(n):
            row = DB_FLOOR + 70.0 * rng.random((1, 16))
            col = 0.5 + 0.5 * rng.random((16, 1))
            values = np.clip(DB_FLOOR + (row - DB_FLOOR) * col, DB_FLOOR, 0.0)
            out.append(mel_grid(values))
        return out

    def test_kl_weight_zero_is_plain_autoencoder(self):
        mels = self._mels()
        model = codec(10, compression=4, channels=8, kl_weight=0.0)
        hist = lc.train_latentcodec(model, mels, LatentConfig(steps=50, learning_rate=1e-3),
                                    seed=10)
        # loss equals pure reconstruction MSE: recompute on a fresh batch
        patches = lc._to_patches(lc._scale_db(mels[0].values), 4)
        z = model.encoder.forward(patches)
        xh = model.decoder.forward(z)
        assert np.mean((xh - patches) ** 2) >= 0  # well-defined
        assert hist[-1] < hist[0]

    def test_large_kl_weight_shrinks_latents(self):
        mels = self._mels()
        small = codec(11, compression=4, channels=8, kl_weight=0.0)
        big = codec(11, compression=4, channels=8, kl_weight=10.0)
        cfg = LatentConfig(steps=400, learning_rate=1e-3)
        lc.train_latentcodec(small, mels, cfg, seed=11)
        lc.train_latentcodec(big, mels, cfg, seed=11)
        z_small = np.mean(lc.encode_mel(small, mels[0]) ** 2)
        z_big = np.mean(lc.encode_mel(big, mels[0]) ** 2)
        assert z_big < z_small

    def test_loss_decreases(self):
        mels = self._mels()
        model = codec(12)
        hist = lc.train_latentcodec(model, mels, LatentConfig(steps=300, learning_rate=1e-3),
                                    seed=12)
        assert np.mean(hist[-50:]) < np.mean(hist[:50])

    def test_patch_pool_is_held_once(self):
        """The pooled patches take as many bytes as the grids; training holds
        them once, not beside a per-grid list of the same patches."""
        rng = smallnet.spawn_rng(15)
        mels = [random_mel(rng, 64, 64) for _ in range(40)]
        pool_bytes = sum(m.values.nbytes for m in mels)
        model = codec(15)
        peak = traced_peak(lambda: lc.train_latentcodec(
            model, mels, LatentConfig(steps=1, batch_size=16), seed=15))
        assert peak < 1.5 * pool_bytes, (peak, pool_bytes)

    def test_too_few_grids_rejected(self):
        model = codec(13)
        with pytest.raises(ValidationError, match="corpus.eval_count"):
            lc.train_latentcodec(model, self._mels(n=5), LatentConfig(steps=10), seed=0)

    def test_gradients_match_finite_differences(self):
        rng = smallnet.spawn_rng(14)
        for seed in (0, 1, 2):
            model = codec(seed, compression=2, channels=3, hidden=6, kl_weight=0.05)
            x = rng.random((10, 4))

            def loss():
                z = model.encoder.forward(x)
                xh = model.decoder.forward(z)
                return float(np.mean((xh - x) ** 2) + model.kl_weight * np.mean(z * z))

            z, enc_cache = model.encoder.forward_cached(x)
            xh, dec_cache = model.decoder.forward_cached(z)
            d_xh = 2.0 * (xh - x) / (xh - x).size
            dec_grads, dz = model.decoder.backward_cached(dec_cache, d_xh)
            dz = dz + 2.0 * model.kl_weight * z / z.size
            enc_grads, _ = model.encoder.backward_cached(enc_cache, dz)
            grads = enc_grads + dec_grads
            worst = 0.0
            for p, g in zip(model.named_parameters().values(), grads):
                for coord in sample_coords(rng, p.shape, 3):
                    num = central_diff_grad(loss, p, [coord])[coord]
                    worst = max(worst, max_rel_err(float(g[coord]), num))
            assert worst <= 1e-4

    def test_checkpoint_roundtrip(self, tmp_path):
        model = lc.LatentCodecModel.create(LatentConfig(), SignalConfig(hop=128, n_fft=512,
                                                                        sample_rate=8000),
                                           seed=15)
        path = tmp_path / "codec.json"
        model.save(path)
        back = lc.LatentCodecModel.load(path)
        rng = smallnet.spawn_rng(15)
        m = random_mel(rng, 16, 16)
        assert np.allclose(lc.encode_mel(back, m), lc.encode_mel(model, m),
                           atol=1e-6)
        assert back.mel_params == {"frame_hop": 128, "n_fft": 512, "sample_rate": 8000}
        grid = lc.decode_latent(back, lc.encode_mel(back, m))
        assert (grid.frame_hop, grid.n_fft, grid.sample_rate) == (128, 512, 8000)
