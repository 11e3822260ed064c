"""Command-line runs on a tiny trained working directory."""

import json

import numpy as np
import pytest

from melodygen import cli, pipeline, smallnet

TINY = {
    "seed": 3,
    "corpus": {"n_records": 36, "eval_count": 4},
    "signal": {"mel_frames": 16},
    "clmp": {"epochs": 1, "batch_size": 10, "hidden": 16, "embed_dim": 8},
    "hnsw": {"ef_construction": 16},
    "latent": {"steps": 5, "batch_size": 16, "hidden": 8},
    "diffusion": {"n_steps": 10, "hidden": 8, "batch_size": 8, "train_steps": 3,
                  "ddim_steps": 3, "time_embed_dim": 8, "cond_dim": 8},
}
STAGES = ("synth-data", "train-clmp", "build-index", "train-latent", "train-diffusion")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(TINY))
    work = root / "work"
    for stage in STAGES:
        assert cli.main([stage, "--config", str(config), "--out", str(work)]) == 0
    return config, work


def generate(config, work, tag="gen"):
    return cli.main(["generate", "--config", str(config), "--out", str(work),
                     "--prompt", "a calm melody", "--tag", tag])


def test_generate_writes_checkpoint_outputs(trained, capsys):
    config, work = trained
    capsys.readouterr()
    assert generate(config, work) == cli.EXIT_OK
    result = json.loads(capsys.readouterr().out)
    assert result["mel_path"].endswith("gen.mel.ckpt")
    assert result["latent_path"].endswith("gen.latent.ckpt")
    mel, meta = smallnet.load_checkpoint(result["mel_path"])
    assert mel["mel"].shape == (TINY["signal"]["mel_frames"], 64)
    assert meta["frame_hop"] == 256
    assert not list(work.rglob("*.tmp"))


@pytest.fixture
def damaged(trained):
    """Hands the test a workdir whose diffusion.ckpt it may break; restores it."""
    config, work = trained
    path = pipeline.Artifacts(work).diffusion_path
    good = path.read_bytes()
    yield config, work, path
    path.write_bytes(good)


def test_truncated_checkpoint_exits_3_with_format_error(damaged, capsys):
    config, work, path = damaged
    path.write_bytes(path.read_bytes()[:-100])
    capsys.readouterr()
    assert generate(config, work) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "FormatError" in err and "diffusion.ckpt" in err
    assert "unexpected" not in err


def test_old_format_checkpoint_exits_1_asking_for_rerun(damaged, capsys):
    config, work, path = damaged
    path.write_text(json.dumps({"format_version": 1, "arrays": {}, "meta": {}}))
    capsys.readouterr()
    assert generate(config, work) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "ValidationError" in err and "diffusion.ckpt" in err and "rerun" in err


def test_generate_is_repeatable(trained):
    config, work = trained
    assert generate(config, work, "a") == cli.EXIT_OK
    assert generate(config, work, "b") == cli.EXIT_OK
    gen = work / "generated"
    assert (gen / "a.wav").read_bytes() == (gen / "b.wav").read_bytes()
    assert np.array_equal(smallnet.load_checkpoint(gen / "a.latent.ckpt")[0]["latent"],
                          smallnet.load_checkpoint(gen / "b.latent.ckpt")[0]["latent"])
