"""Command-line runs on a tiny trained working directory, and the melody
database's exact retrieval."""

import dataclasses
import hashlib
import json
import shutil
import sys
import threading
import weakref

import numpy as np
import pytest

from conftest import golden_key, reference_ddim, traced_peak
from melodygen import (PipelineConfig, cli, clmp, diffusion, latentcodec, pipeline, signal,
                       smallnet)
from melodygen.errors import GradientError

TINY = {
    "seed": 3,
    "corpus": {"n_records": 36, "eval_count": 4},
    "signal": {"mel_frames": 16},
    "clmp": {"epochs": 1, "batch_size": 10, "hidden": 16, "embed_dim": 8},
    "latent": {"steps": 5, "batch_size": 16, "hidden": 8},
    "diffusion": {"n_steps": 10, "hidden": 8, "batch_size": 8, "train_steps": 3,
                  "ddim_steps": 3, "time_embed_dim": 8, "cond_dim": 8},
}
STAGES = ("synth-data", "train-clmp", "build-index", "train-latent", "train-diffusion")


# The tiny stack with 10 held-out records, the fewest the standard evaluate
# mode's retrieval table takes, and 32 training records, the fewest the codec
# trains on
TINY_STANDARD = {**TINY, "corpus": {"n_records": 42, "eval_count": 10}}


def train_stack(root, doc):
    config = root / "config.json"
    config.write_text(json.dumps(doc))
    work = root / "work"
    for stage in STAGES:
        assert cli.main([stage, "--config", str(config), "--out", str(work)]) == 0
    return config, work


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    return train_stack(tmp_path_factory.mktemp("cli"), TINY)


@pytest.fixture(scope="module")
def trained_standard(tmp_path_factory):
    return train_stack(tmp_path_factory.mktemp("cli_standard"), TINY_STANDARD)


def evaluate_stack(request, mode):
    """(config, work, held-out count) of the stack evaluate ``mode`` runs on."""
    doc, fixture = (TINY_STANDARD, "trained_standard") if mode == "standard" else (TINY, "trained")
    return *request.getfixturevalue(fixture), doc["corpus"]["eval_count"]


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


def test_denoiser_without_sampler_arrays_exits_1_naming_the_key(damaged, capsys):
    """A diffusion.ckpt of the layout before the sampler constants is refused."""
    config, work, path = damaged
    arrays, meta = smallnet.load_checkpoint(path)
    smallnet.save_checkpoint(path, {k: v for k, v in arrays.items()
                                    if not k.startswith("sampler.")}, meta)
    capsys.readouterr()
    assert generate(config, work) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "ValidationError" in err and "diffusion.ckpt" in err and "'sampler.M'" in err
    assert "rerun train-diffusion" in err


@pytest.mark.parametrize("source, target, key", [
    ("latentcodec.ckpt", "clmp.ckpt", "text_head"),
    ("clmp.ckpt", "diffusion.ckpt", "net"),
    ("clmp.ckpt", "latentcodec.ckpt", "encoder"),
], ids=["codec_as_clmp", "clmp_as_diffusion", "clmp_as_codec"])
def test_wrong_kind_of_checkpoint_exits_1(trained, capsys, source, target, key):
    config, work = trained
    good = (work / target).read_bytes()
    try:
        shutil.copyfile(work / source, work / target)
        capsys.readouterr()
        assert generate(config, work) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "ValidationError" in err and target in err and repr(key) in err
    finally:
        (work / target).write_bytes(good)


def test_malformed_manifest_line_exits_1_naming_it(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    work = tmp_path / "work"
    assert cli.main(["synth-data", "--config", str(config), "--out", str(work)]) == 0
    manifest = pipeline.Artifacts(work).manifest
    lines = manifest.read_text().splitlines()
    lines[4] = "[1, 2]"
    manifest.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["train-clmp", "--config", str(config),
                     "--out", str(work)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "ValidationError" in err and "line 5" in err


def test_duplicate_record_id_exits_1_naming_both_lines(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    work = tmp_path / "work"
    assert cli.main(["synth-data", "--config", str(config), "--out", str(work)]) == 0
    manifest = pipeline.Artifacts(work).manifest
    lines = manifest.read_text().splitlines()
    lines[-1] = json.dumps({**json.loads(lines[-1]), "id": "rec00000"})
    manifest.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["train-clmp", "--config", str(config),
                     "--out", str(work)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    last = TINY["corpus"]["n_records"]
    assert "ValidationError" in err
    assert f"line {last}: id 'rec00000' is already held by line 1" in err


def test_empty_manifest_exits_1_at_the_training_split_check(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    work = tmp_path / "work"
    assert cli.main(["synth-data", "--config", str(config), "--out", str(work)]) == 0
    pipeline.Artifacts(work).manifest.write_text("")
    capsys.readouterr()
    assert cli.main(["train-clmp", "--config", str(config),
                     "--out", str(work)]) == cli.EXIT_VALIDATION
    assert "clmp.batch_size=10 is more than the 0 training items" in capsys.readouterr().err


def test_dotted_tags_keep_separate_outputs(trained):
    config, work = trained
    assert generate(config, work, "take1") == cli.EXIT_OK
    gen = work / "generated"
    first = {suffix: (gen / f"take1{suffix}").read_bytes()
             for suffix in (".wav", ".mel.ckpt", ".latent.ckpt")}
    assert generate(config, work, "take1.5") == cli.EXIT_OK
    for suffix, data in first.items():
        assert (gen / f"take1.5{suffix}").exists()
        assert (gen / f"take1{suffix}").read_bytes() == data


@pytest.mark.parametrize("tag", ["", ".", "..", "sub/x", "../x", "/tmp/x", "sub\\x"])
def test_unsafe_tag_exits_1_before_loading(tmp_path, capsys, tag):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    capsys.readouterr()
    # an empty working directory would exit 2 had the stack been loaded first
    assert generate(config, tmp_path / "work", tag) == cli.EXIT_VALIDATION
    assert "ValidationError" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("flags, field", [
    (["--cfg", "nan"], "guidance weight"),
    (["--cfg", "inf"], "guidance weight"),
    (["--cfg", "-1"], "guidance weight"),
    (["--seed", "-1"], "seed"),
    (["--sampler", "ddpm", "--steps", "-4"], "--steps"),
    (["--sampler", "ddpm", "--steps", "10"], "--steps"),
    (["--prompt", "!!! ..."], "--prompt"),
], ids=["cfg_nan", "cfg_inf", "cfg_negative", "seed_negative", "ddpm_steps_negative",
        "ddpm_steps_in_range", "prompt_without_tokens"])
def test_bad_generate_flag_exits_1_before_loading(tmp_path, capsys, flags, field):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    capsys.readouterr()
    # an empty working directory would exit 2 had the stack been loaded first
    assert cli.main(["generate", "--config", str(config), "--out", str(tmp_path / "work"),
                     "--prompt", "a calm melody", *flags]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "ValidationError" in err and field in err


@pytest.mark.parametrize("flags, edit, named", [
    (["--steps", "0"], {}, "--steps"),
    (["--steps", "-4"], {}, "--steps"),
    (["--steps", "11"], {}, "--steps"),
    ([], {"n_steps": 20, "ddim_steps": 15}, "diffusion.ddim_steps"),
], ids=["flag_0", "flag_negative", "flag_over_n_steps", "config_over_checkpoint_n_steps"])
def test_ddim_steps_out_of_range_exits_1_naming_the_source_and_checkpoint(
        trained, tmp_path, capsys, flags, edit, named):
    _, work = trained
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY, "diffusion": {**TINY["diffusion"], **edit}}))
    capsys.readouterr()
    assert cli.main(["generate", "--config", str(config), "--out", str(work),
                     "--prompt", "a calm melody", "--tag", "bad_steps",
                     *flags]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{named} must be in 1..{TINY['diffusion']['n_steps']}" in err
    assert "n_steps of diffusion.ckpt" in err
    assert not list((work / "generated").glob("bad_steps*"))


def fail_if_called(what):
    # pytest.fail raises a BaseException, which the CLI does not catch
    return lambda *args, **kwargs: pytest.fail(f"{what} before the steps check")


@pytest.mark.parametrize("mode", ["standard", "ablation", "cfg_sweep"])
def test_evaluate_ddim_steps_over_checkpoint_n_steps_exits_1_before_any_work(
        request, tmp_path, capsys, monkeypatch, mode):
    """diffusion.ddim_steps is held to the n_steps of diffusion.ckpt, not to
    the config's, right after the stack loads: before the corpus grids are
    read, the probe is trained or anything is sampled."""
    _, work, _ = evaluate_stack(request, mode)
    doc = TINY_STANDARD if mode == "standard" else TINY
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {**doc, "diffusion": {**doc["diffusion"], "n_steps": 40, "ddim_steps": 30}}))
    monkeypatch.setattr(pipeline, "corpus_mels", fail_if_called("read the corpus grids"))
    monkeypatch.setattr(pipeline.diffusion, "sample_ddim", fail_if_called("sampled"))
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", str(config), "--out", str(work),
                     "--mode", mode]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert (f"ValidationError: diffusion.ddim_steps must be in 1..{TINY['diffusion']['n_steps']} "
            "(the n_steps of diffusion.ckpt), got 30") in err


def test_steps_sweep_with_no_fitting_count_exits_1(trained, work_copy, capsys, monkeypatch):
    """The sweep skips the counts above n_steps of diffusion.ckpt, but a
    denoiser of fewer steps than every count is refused, not reported on."""
    config, _ = trained
    path = work_copy / "diffusion.ckpt"
    arrays, meta = smallnet.load_checkpoint(path)
    meta["extra"]["n_steps"] = min(pipeline.SWEEP_STEPS) - 1
    smallnet.save_checkpoint(path, arrays, meta, exact=diffusion.SAMPLER_ARRAYS)
    monkeypatch.setattr(pipeline.diffusion, "sample_ddim", fail_if_called("sampled"))
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", str(config), "--out", str(work_copy),
                     "--mode", "steps_sweep"]) == cli.EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert not out
    assert (f"steps_sweep's smallest count {pipeline.SWEEP_STEPS} must be in "
            f"1..{min(pipeline.SWEEP_STEPS) - 1} (the n_steps of diffusion.ckpt)") in err


def test_ddpm_reports_the_steps_it_ran(trained, capsys):
    config, work = trained
    capsys.readouterr()
    assert cli.main(["generate", "--config", str(config), "--out", str(work),
                     "--prompt", "a calm melody", "--tag", "ddpm_steps",
                     "--sampler", "ddpm"]) == cli.EXIT_OK
    record = json.loads(capsys.readouterr().out)["sampler"]
    assert record["sampler"] == "ddpm" and record["steps"] == TINY["diffusion"]["n_steps"]


def bad(section, **values):
    """A config edit that sets ``values`` in ``section`` of TINY."""
    return {section: {**TINY[section], **values}}


@pytest.mark.parametrize("edit, field", [
    pytest.param({"seed": -2}, "seed", id="seed"),
    pytest.param({"seed": True}, "seed", id="seed_bool"),
    pytest.param(bad("corpus", n_records=0), "corpus.n_records", id="n_records_0"),
    pytest.param(bad("corpus", eval_count=TINY["corpus"]["n_records"]), "corpus.eval_count",
                 id="eval_count_n_records"),
    pytest.param(bad("signal", sample_rate=0), "signal.sample_rate", id="sample_rate_0"),
    pytest.param(bad("signal", n_fft=1023), "signal.n_fft", id="n_fft_odd"),
    pytest.param(bad("signal", hop=0), "signal.hop", id="hop_0"),
    pytest.param(bad("signal", n_mels=0), "signal.n_mels", id="n_mels_0"),
    pytest.param(bad("signal", mel_frames=18), "signal.mel_frames",
                 id="mel_frames_not_divisible"),
    pytest.param(bad("clmp", embed_dim=1), "clmp.embed_dim", id="embed_dim_1"),
    pytest.param(bad("clmp", hidden=0), "clmp.hidden", id="clmp_hidden_0"),
    pytest.param(bad("clmp", token_embed_dim=0), "clmp.token_embed_dim",
                 id="token_embed_dim_0"),
    pytest.param(bad("clmp", batch_size=1), "clmp.batch_size", id="clmp_batch_size_1"),
    pytest.param(bad("clmp", learning_rate=-1), "clmp.learning_rate", id="clmp_lr_negative"),
    pytest.param(bad("clmp", epochs=-1), "clmp.epochs", id="clmp_epochs_negative"),
    pytest.param(bad("latent", compression=0), "latent.compression", id="compression_0"),
    pytest.param(bad("latent", channels=0), "latent.channels", id="latent_channels_0"),
    pytest.param(bad("latent", hidden=0), "latent.hidden", id="latent_hidden"),
    pytest.param(bad("latent", kl_weight=-1), "latent.kl_weight", id="kl_weight_negative"),
    pytest.param(bad("latent", steps=0), "latent.steps", id="latent_steps_0"),
    pytest.param(bad("latent", steps=float("inf")), "latent.steps", id="int_field_inf"),
    pytest.param(bad("latent", learning_rate=-1), "latent.learning_rate",
                 id="latent_lr_negative"),
    pytest.param(bad("latent", batch_size=0), "latent.batch_size", id="latent_batch_size_0"),
    pytest.param(bad("diffusion", n_steps=0), "diffusion.n_steps", id="n_steps_0"),
    pytest.param(bad("diffusion", beta_start=0.05, beta_end=0.02), "diffusion.beta_start",
                 id="beta_start_over_beta_end"),
    pytest.param(bad("diffusion", learning_rate=-1), "diffusion.learning_rate",
                 id="diffusion_lr_negative"),
    pytest.param(bad("diffusion", batch_size=0), "diffusion.batch_size",
                 id="diffusion_batch_size_0"),
    pytest.param(bad("diffusion", train_steps=0), "diffusion.train_steps",
                 id="diffusion_train_steps_0"),
    pytest.param(bad("diffusion", hidden=0), "diffusion.hidden", id="diffusion_hidden"),
    pytest.param(bad("diffusion", time_embed_dim=-2), "diffusion.time_embed_dim",
                 id="time_embed_dim_negative"),
    pytest.param(bad("diffusion", cond_dim=0), "diffusion.cond_dim", id="cond_dim_0"),
    pytest.param(bad("diffusion", ddim_steps=TINY["diffusion"]["n_steps"] + 1),
                 "diffusion.ddim_steps", id="ddim_steps_over_n_steps"),
    pytest.param(bad("diffusion", cfg_w=float("inf")), "diffusion.cfg_w", id="cfg_w_inf"),
    pytest.param(bad("diffusion", uncond_prob=1.5), "diffusion.uncond_prob",
                 id="uncond_prob_over_1"),
    pytest.param(bad("diffusion", phase_split=-0.1), "diffusion.phase_split",
                 id="phase_split_negative"),
])
def test_invalid_config_exits_1_naming_the_field(tmp_path, capsys, edit, field):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY, **edit}))
    capsys.readouterr()
    assert cli.main(["synth-data", "--config", str(config),
                     "--out", str(tmp_path / "work")]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"ValidationError: {field}: " in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def edit_meta(meta, field, value):
    if field == "activation":
        meta["net"]["activations"][-1] = value
    elif field == "latent_shape":
        meta["extra"].update(value)
    else:
        for key, delta in value.items():
            meta[key] += delta


@pytest.mark.parametrize("field, value, problem", [
    ("in_dim", {"cond_dim": 1}, "input width"),
    ("out_dim", {"latent_dim": 2, "cond_dim": -2}, "output width"),
    ("activation", "tanh", "output activation"),
    ("latent_shape", {"latent_t": 2}, "latent shape (8, 2, 16) holds 256 values, but the net "
                                      "outputs 512"),
], ids=["in_dim", "out_dim", "activation", "latent_shape"])
def test_misshapen_denoiser_exits_1_naming_it(damaged, capsys, field, value, problem):
    config, work, path = damaged
    arrays, meta = smallnet.load_checkpoint(path)
    edit_meta(meta, field, value)
    smallnet.save_checkpoint(path, arrays, meta)
    capsys.readouterr()
    assert generate(config, work) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "ValidationError" in err and "diffusion.ckpt" in err and problem in err


@pytest.mark.parametrize("command", [
    ["generate", "--prompt", "a calm melody"],
    ["evaluate", "--mode", "ablation"],
], ids=["generate", "evaluate_ablation"])
@pytest.mark.parametrize("edit, problem", [
    (lambda arrays, meta: meta["extra"].update(beta_start=0.0),
     "need 0 < beta_start <= beta_end < 1, got [0.0, 0.02]"),
    (lambda arrays, meta: arrays.update({"fusion.W": arrays["fusion.W"][:, :-1],
                                         "fusion.b": arrays["fusion.b"][:-1],
                                         "fusion.null_condition":
                                             arrays["fusion.null_condition"][:-1]}),
     "fusion.W has shape (16, 7), wanted (16, 8)"),
    (lambda arrays, meta: arrays.update({"fusion.b": arrays["fusion.b"][:-1]}),
     "fusion.b has shape (7,), wanted (8,)"),
    (lambda arrays, meta: arrays.update(
        {"fusion.null_condition": np.zeros((2, 8))}),
     "fusion.null_condition has shape (2, 8), wanted (8,)"),
], ids=["beta_start_0", "fusion_narrower", "fusion_bias", "fusion_null"])
def test_denoiser_with_a_bad_schedule_or_fusion_map_exits_1_before_sampling(
        damaged, capsys, monkeypatch, command, edit, problem):
    """diffusion.ckpt's schedule and its fusion map's shapes are checked
    when it loads, and refused naming the file and the stage to rerun."""
    config, work, path = damaged
    arrays, meta = smallnet.load_checkpoint(path)
    edit(arrays, meta)
    smallnet.save_checkpoint(path, arrays, meta)
    monkeypatch.setattr(pipeline.diffusion, "sample_ddim",
                        lambda *a, **k: pytest.fail("sampled before the load check"))
    capsys.readouterr()
    assert cli.main([command[0], "--config", str(config), "--out", str(work),
                     *command[1:]]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "ValidationError" in err and "diffusion.ckpt" in err and problem in err
    assert "rerun train-diffusion" in err


def test_evaluate_report_is_written_atomically(trained, tmp_path, capsys, disk_full):
    config, work = trained
    report = tmp_path / "report.json"
    report.write_text("previous report")
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", str(config), "--out", str(work),
                     "--mode", "ablation", "--report", str(report)]) == cli.EXIT_RUNTIME
    assert "No space left" in capsys.readouterr().err
    assert report.read_text() == "previous report"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_evaluate_report_into_a_missing_directory_exits_1_before_evaluating(
        tmp_path, capsys, monkeypatch):
    """Also the other path flags a command cannot use: a directory as
    ``--report`` or ``--config``, a missing ``--config``, and a regular file
    as, or above, ``--out``."""
    for stage in ("run_evaluate", "run_synth_data"):
        monkeypatch.setattr(pipeline, stage,
                            lambda *args, **kwargs: pytest.fail("worked before checking paths"))
    missing = tmp_path / "nonexistent" / "dir"
    existing = tmp_path / "existing"
    existing.mkdir()
    regular = tmp_path / "regular"
    regular.write_text("not a directory")
    work = str(tmp_path / "work")
    for argv, flag, named in (
        (["evaluate", "--out", work, "--report", str(missing / "r.json")], "--report", missing),
        (["evaluate", "--out", work, "--report", str(existing)], "--report", existing),
        (["synth-data", "--out", str(regular)], "--out", regular),
        (["synth-data", "--out", str(regular / "work")], "--out", regular),
        (["evaluate", "--out", str(regular)], "--out", regular),
        (["synth-data", "--config", str(existing), "--out", work], "--config", existing),
        (["synth-data", "--config", str(missing), "--out", work], "--config", missing),
    ):
        assert cli.main(argv) == cli.EXIT_VALIDATION, argv
        out, err = capsys.readouterr()
        assert not out
        assert f"ValidationError: {flag}: " in err and str(named) in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing", "regular"]
    assert not any(existing.iterdir()) and regular.read_text() == "not a directory"


@pytest.mark.parametrize("prior, stage, args, missing", [
    ((), "train-clmp", [], "manifest.jsonl"),
    ((), "build-index", [], "manifest.jsonl"),
    (("synth-data",), "build-index", [], "clmp.ckpt"),
    ((), "train-latent", [], "manifest.jsonl"),
    ((), "train-diffusion", [], "manifest.jsonl"),
    (("synth-data",), "train-diffusion", [], "clmp.ckpt"),
    ((), "generate", ["--prompt", "a calm melody"], "clmp.ckpt"),
    ((), "evaluate", ["--mode", "ablation"], "manifest.jsonl"),
], ids=["train-clmp", "build-index", "build-index-after-synth-data", "train-latent",
        "train-diffusion", "train-diffusion-after-synth-data", "generate", "evaluate"])
def test_stage_without_inputs_exits_2(tmp_path, capsys, prior, stage, args, missing):
    """Run in an empty working directory, or after synth-data only, each stage
    names the first artifact it lacks."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    work = tmp_path / "work"
    for earlier in prior:
        assert cli.main([earlier, "--config", str(config), "--out", str(work)]) == 0
    capsys.readouterr()
    assert cli.main([stage, "--config", str(config), "--out", str(work),
                     *args]) == cli.EXIT_MISSING_ARTIFACT
    err = capsys.readouterr().err
    assert f"missing artifact {missing}" in err


def test_melody_database_keeps_ids_and_float32_values(trained):
    config, work = trained
    cfg = PipelineConfig.from_file(config)
    art = pipeline.Artifacts(work)
    melodies, ids = pipeline._load_index(cfg, art)
    train_records, _ = pipeline._split(cfg, pipeline._load_records(art))
    assert ids == [r.id for r in train_records]
    model = clmp.ClmpModel.load(art.clmp_path)
    encoded = np.concatenate([clmp.embed(model, "melody", [r.melody]) for r in train_records])
    assert melodies.dtype == np.float64
    assert np.array_equal(melodies, encoded.astype(np.float32).astype(np.float64))


def test_standard_evaluate_below_retrieval_minimum_exits_1_before_sampling(
        trained, capsys, monkeypatch):
    config, work = trained
    # pytest.fail raises a BaseException, which the CLI does not catch
    monkeypatch.setattr(pipeline.diffusion, "sample_ddim",
                        lambda *a, **k: pytest.fail("sampled before the size check"))
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", str(config), "--out", str(work),
                     "--mode", "standard"]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "ValidationError" in err and "corpus.eval_count" in err
    monkeypatch.undo()
    assert cli.main(["evaluate", "--config", str(config), "--out", str(work),
                     "--mode", "ablation"]) == cli.EXIT_OK


def test_evaluate_over_training_records_exits_1_before_sampling(
        trained, tmp_path, capsys, monkeypatch):
    _, work = trained
    # the stack was trained on all but the last 4 records; 12 would score 8
    # training records as held out
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY, "corpus": {**TINY["corpus"], "eval_count": 12}}))
    monkeypatch.setattr(pipeline.diffusion, "sample_ddim",
                        lambda *a, **k: pytest.fail("sampled before the split check"))
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", str(config), "--out", str(work),
                     "--mode", "ablation"]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "ValidationError" in err and "corpus.eval_count" in err and "melody.ckpt" in err


@pytest.mark.parametrize("mode", pipeline.EVAL_MODES)
def test_evaluate_frees_the_corpus_grids_before_sampling(request, capsys, monkeypatch, mode):
    """The held-out references and the probe's training features are formed
    first; no view of the grids ``corpus_mels`` returned outlives them."""
    config, work, _ = evaluate_stack(request, mode)
    grids, alive = [], []
    corpus_mels, sample_ddim = pipeline.corpus_mels, diffusion.sample_ddim

    def tracked_mels(*args):
        mels = corpus_mels(*args)
        grids.append(weakref.ref(mels))
        return mels

    def checked_sample(*args, **kwargs):
        alive.append(grids[0]() is not None)
        return sample_ddim(*args, **kwargs)

    monkeypatch.setattr(pipeline, "corpus_mels", tracked_mels)
    monkeypatch.setattr(pipeline.diffusion, "sample_ddim", checked_sample)
    assert cli.main(["evaluate", "--config", str(config), "--out", str(work),
                     "--mode", mode]) == cli.EXIT_OK
    assert len(grids) == 1 and alive and not any(alive)


@pytest.mark.parametrize("melodies, ids", [
    (np.zeros((3, TINY["clmp"]["embed_dim"] + 1)), ["a", "b", "c"]),
    (np.zeros((3, TINY["clmp"]["embed_dim"])), ["a", "b"]),
], ids=["width", "id_count"])
def test_mismatched_melody_database_exits_1_naming_it(trained, capsys, melodies, ids):
    config, work = trained
    path = pipeline.Artifacts(work).index_path
    good = path.read_bytes()
    try:
        smallnet.save_checkpoint(path, {"melodies": melodies}, {"ids": ids})
        capsys.readouterr()
        assert generate(config, work) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "ValidationError" in err and "melody.ckpt" in err
    finally:
        path.write_bytes(good)



@pytest.fixture
def work_copy(trained, tmp_path):
    """A copy of the trained working directory, for tests that retrain in it."""
    work = tmp_path / "work"
    shutil.copytree(trained[1], work)
    return work


# Each subcommand with the arguments it needs; evaluate writes a report so
# that it, too, has a file to fail on.
SUBCOMMAND_ARGS = {
    "synth-data": [], "train-clmp": [], "build-index": [], "train-latent": [],
    "train-diffusion": [], "generate": ["--prompt", "a calm melody"],
    "evaluate": ["--mode", "ablation", "--report", "{tmp}/report.json"],
}
EXIT_CASES = [(command, code) for command in SUBCOMMAND_ARGS
              for code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_MISSING_ARTIFACT,
                           cli.EXIT_RUNTIME)
              if (command, code) != ("synth-data", cli.EXIT_MISSING_ARTIFACT)]  # reads nothing


@pytest.mark.parametrize("command, code", EXIT_CASES,
                         ids=[f"{command}-{code}" for command, code in EXIT_CASES])
def test_every_subcommand_exit_code(trained, tmp_path, capsys, request, command, code):
    """0 on a trained working directory; 1 for a bad config field; 2 in an
    empty working directory; 3 when the disk fills on the first write."""
    config, work = tmp_path / "config.json", tmp_path / "work"
    bad = {"diffusion": {**TINY["diffusion"], "hidden": 0}}
    config.write_text(json.dumps({**TINY, **bad} if code == cli.EXIT_VALIDATION else TINY))
    if code != cli.EXIT_MISSING_ARTIFACT:
        shutil.copytree(trained[1], work)
    if code == cli.EXIT_RUNTIME:
        request.getfixturevalue("disk_full")
    args = [a.format(tmp=tmp_path) for a in SUBCOMMAND_ARGS[command]]
    capsys.readouterr()
    assert cli.main([command, "--config", str(config), "--out", str(work), *args]) == code
    out, err = capsys.readouterr()
    if code == cli.EXIT_OK:
        assert isinstance(json.loads(out), dict) and not err
        return
    assert not out
    assert {cli.EXIT_VALIDATION: "ValidationError: diffusion.hidden",
            cli.EXIT_MISSING_ARTIFACT: "missing artifact",
            cli.EXIT_RUNTIME: "No space left on device"}[code] in err


@pytest.mark.parametrize("stage, edit, field", [
    ("train-clmp", {"clmp": {**TINY["clmp"], "batch_size": 40}}, "clmp.batch_size"),
    ("train-latent", {"corpus": {**TINY["corpus"], "eval_count": 10}}, "corpus.eval_count"),
], ids=["clmp_batch_over_training_split", "latent_training_split_too_small"])
def test_training_split_too_small_exits_1_naming_the_field(work_copy, tmp_path, capsys,
                                                           stage, edit, field):
    # 32 training records: fewer than a batch of 40, or 26 with 10 held out
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY, **edit}))
    capsys.readouterr()
    assert cli.main([stage, "--config", str(config),
                     "--out", str(work_copy)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "ValidationError" in err and field in err


@pytest.mark.parametrize("edit, field", [
    ({"mel_frames": 32}, "signal.mel_frames"),
    ({"sample_rate": 8000}, "signal.sample_rate"),
], ids=["mel_frames", "sample_rate"])
def test_corpus_of_other_signal_settings_exits_1_before_training(tmp_path, capsys, edit,
                                                                  field):
    """A corpus synthesized under TINY's signal settings is refused by the first
    stage that featurizes it under others, before it writes a checkpoint."""
    synth, train = tmp_path / "synth.json", tmp_path / "train.json"
    synth.write_text(json.dumps(TINY))
    train.write_text(json.dumps({**TINY, "signal": {**TINY["signal"], **edit}}))
    work = tmp_path / "work"
    assert cli.main(["synth-data", "--config", str(synth), "--out", str(work)]) == 0
    capsys.readouterr()
    assert cli.main(["train-clmp", "--config", str(train),
                     "--out", str(work)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "ValidationError" in err and field in err
    assert "rec00000.wav" in err and "rerun synth-data" in err
    assert [p.name for p in work.iterdir()] == ["corpus"]


@pytest.fixture
def mel_calls(monkeypatch):
    """The arguments of every ``signal.mel_spectrogram`` call the test makes."""
    calls, original = [], signal.mel_spectrogram

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(signal, "mel_spectrogram", counted)
    return calls


def test_features_hold_each_records_exact_mel_grid(trained):
    config, work = trained
    cfg = PipelineConfig.from_file(config)
    art = pipeline.Artifacts(work)
    records = pipeline._load_records(art)
    arrays, meta = smallnet.load_checkpoint(art.features_path)
    assert meta == {"ids": [r.id for r in records],
                    "wav_sha256": [r.wav_sha256 for r in records],
                    "signal": dataclasses.asdict(cfg.signal)}
    assert arrays["mels"].shape == (len(records), cfg.signal.mel_frames, cfg.signal.n_mels)
    for r, values in zip(records, arrays["mels"]):
        assert np.array_equal(values, pipeline.record_mel(cfg, art, r))


def test_current_features_leave_evaluate_and_retraining_without_stft(trained, work_copy,
                                                                      mel_calls):
    config, work = trained
    assert cli.main(["evaluate", "--config", str(config), "--out", str(work_copy),
                     "--mode", "ablation"]) == cli.EXIT_OK
    assert cli.main(["train-latent", "--config", str(config),
                     "--out", str(work_copy)]) == cli.EXIT_OK
    assert len(mel_calls) == 0
    for name in ("features.ckpt", "latentcodec.ckpt"):
        assert (work_copy / name).read_bytes() == (work / name).read_bytes()


def test_edited_wav_rebuilds_the_features_once(trained, work_copy, mel_calls):
    config, work = trained
    wav = work_copy / "corpus" / "wav" / "rec00005.wav"
    raw = bytearray(wav.read_bytes())
    raw[-1] ^= 1  # the last sample moves by 256 steps
    wav.write_bytes(bytes(raw))
    for _ in range(2):
        assert cli.main(["train-latent", "--config", str(config),
                         "--out", str(work_copy)]) == cli.EXIT_OK
    assert len(mel_calls) == TINY["corpus"]["n_records"]
    old = smallnet.load_checkpoint(work / "features.ckpt")[0]["mels"]
    new = smallnet.load_checkpoint(work_copy / "features.ckpt")[0]["mels"]
    changed = [i for i in range(len(old)) if not np.array_equal(old[i], new[i])]
    assert changed == [5]


@pytest.mark.parametrize("truncate", [lambda mels: mels[:-1], lambda mels: mels[:, :-1]],
                         ids=["one_record_short", "one_frame_short"])
def test_misshapen_features_are_rebuilt(trained, work_copy, mel_calls, truncate):
    """A features.ckpt with current meta but a mels array of the wrong shape is
    rebuilt, never used."""
    config, work = trained
    path = work_copy / "features.ckpt"
    arrays, meta = smallnet.load_checkpoint(path)
    smallnet.save_checkpoint(path, {"mels": truncate(arrays["mels"])}, meta, exact=("mels",))
    art = pipeline.Artifacts(work_copy)
    records = pipeline._load_records(art)
    mels = pipeline.corpus_mels(PipelineConfig.from_file(config), art, records)
    assert len(mel_calls) == len(records)
    assert path.read_bytes() == (work / "features.ckpt").read_bytes()
    fresh = smallnet.load_checkpoint(work / "features.ckpt")[0]["mels"]
    assert np.array_equal(mels, fresh)


def test_features_with_a_nan_are_rebuilt(trained, work_copy, mel_calls):
    """A features.ckpt with current meta but a non-finite value is stale: it
    is rebuilt, and train-clmp trains as on the clean file."""
    config, work = trained
    path = work_copy / "features.ckpt"
    arrays, meta = smallnet.load_checkpoint(path)
    arrays["mels"][5, 3, 2] = np.nan
    smallnet.save_checkpoint(path, arrays, meta, exact=("mels",))
    assert cli.main(["train-clmp", "--config", str(config),
                     "--out", str(work_copy)]) == cli.EXIT_OK
    assert len(mel_calls) == TINY["corpus"]["n_records"]
    assert np.isfinite(smallnet.load_checkpoint(path)[0]["mels"]).all()
    for name in ("features.ckpt", "clmp.ckpt"):
        assert (work_copy / name).read_bytes() == (work / name).read_bytes()


def test_stale_features_rebuild_holds_one_set_of_grids(trained, work_copy, monkeypatch):
    """A features.ckpt built from other WAVs (a corpus re-synthesized under
    another seed) is dropped before its replacement is computed, and the
    replacement is written from its own buffer: the rebuild's traced peak is
    one set of grids, where holding the stale ones or a copy would make two."""
    config, work = trained
    path = work_copy / "features.ckpt"
    arrays, meta = smallnet.load_checkpoint(path)
    grid_bytes = arrays["mels"].nbytes
    cfg, art = PipelineConfig.from_file(config), pipeline.Artifacts(work_copy)
    records = pipeline._load_records(art)
    stale = {**meta, "wav_sha256": ["0" * 64] * len(records)}
    smallnet.save_checkpoint(path, {"mels": arrays["mels"] + 1.0}, stale, exact=("mels",))
    # each record's grid from the current file, so the trace sees corpus_mels
    # alone and not the STFT
    current = {r.id: v for r, v in zip(records, arrays["mels"])}
    monkeypatch.setattr(pipeline, "record_mel", lambda cfg, art, r: current[r.id])
    del arrays
    peak = traced_peak(lambda: pipeline.corpus_mels(cfg, art, records))
    assert peak < 1.5 * grid_bytes, (peak, grid_bytes)
    assert path.read_bytes() == (work / "features.ckpt").read_bytes()


def test_corpus_resynthesized_under_other_mel_frames_is_refused_over_old_features(
        tmp_path, capsys):
    tiny, other = tmp_path / "tiny.json", tmp_path / "other.json"
    tiny.write_text(json.dumps(TINY))
    other.write_text(json.dumps({**TINY, "signal": {**TINY["signal"], "mel_frames": 32}}))
    work = tmp_path / "work"
    for stage, config in (("synth-data", tiny), ("train-clmp", tiny), ("synth-data", other)):
        assert cli.main([stage, "--config", str(config), "--out", str(work)]) == 0
    before = {name: (work / name).read_bytes() for name in ("features.ckpt", "clmp.ckpt")}
    capsys.readouterr()
    assert cli.main(["train-clmp", "--config", str(tiny),
                     "--out", str(work)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "ValidationError" in err and "signal.mel_frames" in err
    assert "rec00000.wav" in err and "rerun synth-data" in err
    assert {name: (work / name).read_bytes() for name in before} == before


def edit_checkpoint_meta(path, edit):
    arrays, meta = smallnet.load_checkpoint(path)
    edit(meta)
    smallnet.save_checkpoint(path, arrays, meta)


@pytest.mark.parametrize("edit, key", [
    (lambda meta: meta.pop("mel_params"), "mel_params"),
    (lambda meta: meta["mel_params"].pop("n_fft"), "n_fft"),
], ids=["no_mel_params", "no_n_fft"])
def test_codec_without_mel_params_exits_1_naming_the_key(trained, work_copy, capsys, edit,
                                                          key):
    config, _ = trained
    edit_checkpoint_meta(work_copy / "latentcodec.ckpt", edit)
    capsys.readouterr()
    assert generate(config, work_copy) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "ValidationError" in err and "latentcodec.ckpt" in err and repr(key) in err


def generated_files(work) -> dict:
    return {p.name: p.read_bytes() for p in (work / "generated").glob("*")}


@pytest.mark.parametrize("field", ["frame_hop", "n_fft", "sample_rate"])
def test_codec_with_non_positive_framing_exits_1_before_sampling(trained, work_copy, capsys,
                                                                 monkeypatch, field):
    config, _ = trained
    edit_checkpoint_meta(work_copy / "latentcodec.ckpt",
                         lambda meta: meta["mel_params"].update({field: 0}))
    before = generated_files(work_copy)
    monkeypatch.setattr(pipeline.diffusion, "sample_ddim",
                        lambda *a, **k: pytest.fail("sampled before the framing check"))
    capsys.readouterr()
    assert generate(config, work_copy) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "ValidationError" in err and "latentcodec.ckpt" in err and field in err
    assert "rerun train-latent" in err and "Warning" not in err
    assert generated_files(work_copy) == before


@pytest.mark.parametrize("command", [
    ["generate", "--prompt", "a calm melody"],
    ["evaluate", "--mode", "ablation", "--report", "{work}/report.json"],
], ids=["generate", "evaluate_ablation"])
@pytest.mark.parametrize("override, stages, named", [
    ({"clmp": {**TINY["clmp"], "embed_dim": 4}}, ("train-clmp", "build-index"),
     ("melody.ckpt", f"{TINY['clmp']['embed_dim']}-wide", "4-wide")),
    ({"latent": {**TINY["latent"], "channels": 2}}, ("train-latent",),
     ("latentcodec.ckpt", f"{PipelineConfig().latent.channels}-channel", "2-channel")),
    ({"latent": {**TINY["latent"], "compression": 2}}, ("train-latent",),
     ("latentcodec.ckpt", "4x16 latent grids", "compression 2", "8x32 mel grids", "16x64")),
], ids=["clmp_embed_dim", "latent_channels", "latent_compression"])
def test_denoiser_older_than_a_retrained_stage_exits_1_naming_it(
        trained, work_copy, tmp_path, capsys, monkeypatch, command, override, stages, named):
    """Rerunning ``stages`` at another clmp.embed_dim, latent.channels or
    latent.compression leaves a diffusion.ckpt whose fusion map takes
    embeddings of the old width, or whose denoiser makes latents of the old
    channel count or grid size."""
    config = tmp_path / "changed.json"
    config.write_text(json.dumps({**TINY, **override}))
    for stage in stages:
        assert cli.main([stage, "--config", str(config), "--out", str(work_copy)]) == 0
    denoiser = (work_copy / "diffusion.ckpt").read_bytes()
    before = generated_files(work_copy)
    monkeypatch.setattr(pipeline.diffusion, "sample_ddim",
                        lambda *a, **k: pytest.fail("sampled before the stack check"))
    capsys.readouterr()
    args = [a.format(work=work_copy) for a in command]
    assert cli.main([args[0], "--config", str(config), "--out", str(work_copy),
                     *args[1:]]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "ValidationError" in err and "diffusion.ckpt" in err and "rerun train-diffusion" in err
    assert all(fragment in err for fragment in named), err
    assert (work_copy / "diffusion.ckpt").read_bytes() == denoiser
    assert generated_files(work_copy) == before and not (work_copy / "report.json").exists()


def test_train_diffusion_denoises_the_latents_the_codec_makes(trained, work_copy, tmp_path):
    """train-diffusion takes the latent shape from the codec's latents, not
    from the config: after train-latent at latent.compression 2, a run under
    the compression-4 config writes 8x32 latent grids, and generate decodes
    them into the configured 16x64 mel grids."""
    config, _ = trained
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps({**TINY, "latent": {**TINY["latent"], "compression": 2}}))
    assert cli.main(["train-latent", "--config", str(changed), "--out", str(work_copy)]) == 0
    assert cli.main(["train-diffusion", "--config", str(config), "--out", str(work_copy)]) == 0
    channels = PipelineConfig().latent.channels
    extra = smallnet.load_checkpoint(work_copy / "diffusion.ckpt")[1]["extra"]
    assert [extra[k] for k in diffusion.SHAPE_KEYS] == [channels, 8, 32]
    assert generate(config, work_copy) == cli.EXIT_OK
    generated = work_copy / "generated"
    assert smallnet.load_checkpoint(generated / "gen.latent.ckpt")[0]["latent"].shape == (
        channels, 8, 32)
    assert smallnet.load_checkpoint(generated / "gen.mel.ckpt")[0]["mel"].shape == (16, 64)


# SHA-256 of the tiny stack's codec checkpoint in the layout that also stored
# the mel band's constant f_min and f_max, keyed as the golden hashes below
OLD_LAYOUT_CODEC_SHA256 = {
    ("x86_64", "2.4.6", "scipy-openblas"):
        "4ed1d2c783ded0ac5c5e80435287a0e7efc415a642c92b4937581171b935f555",
}


def test_codec_of_the_layout_with_a_mel_band_decodes_bit_identically(trained, work_copy):
    config, work = trained
    path = work_copy / "latentcodec.ckpt"
    edit_checkpoint_meta(path, lambda meta: meta["mel_params"].update(f_min=0.0, f_max=8000.0))
    key = golden_key()
    if key in OLD_LAYOUT_CODEC_SHA256:
        assert hashlib.sha256(path.read_bytes()).hexdigest() == OLD_LAYOUT_CODEC_SHA256[key]
    assert generate(config, work, "current_codec") == cli.EXIT_OK
    assert generate(config, work_copy, "current_codec") == cli.EXIT_OK
    for suffix in (".wav", ".mel.ckpt", ".latent.ckpt"):
        name = f"generated/current_codec{suffix}"
        assert (work_copy / name).read_bytes() == (work / name).read_bytes()


def test_train_diffusion_is_bit_identical_under_fast_thread_switching(trained, work_copy):
    config, work = trained
    baseline = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert cli.main(["train-diffusion", "--config", str(config),
                         "--out", str(work_copy)]) == 0
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == baseline
    assert (work_copy / "diffusion.ckpt").read_bytes() == (work / "diffusion.ckpt").read_bytes()


def test_float32_training_tracks_float64_on_the_same_draws(trained, tmp_path, monkeypatch):
    """train-diffusion's float32 denoiser follows one trained in float64 on the
    same draws, and diffusion.ckpt holds its float32 weights exactly."""
    _, work = trained
    cfg = PipelineConfig.from_dict({**TINY, "diffusion": {**TINY["diffusion"],
                                                          "train_steps": 40}})
    trained_params, save = {}, diffusion.Denoiser.save

    def recording_save(self, path):
        trained_params[path.parent.name] = {name: p.copy() for name, p in
                                            self.net.named_parameters("denoiser.").items()}
        save(self, path)

    monkeypatch.setattr(diffusion.Denoiser, "save", recording_save)
    histories = {}
    for dtype in ("float32", "float64"):
        shutil.copytree(work, tmp_path / dtype)
        monkeypatch.setattr(pipeline, "DENOISER_TRAIN_DTYPE", np.dtype(dtype))
        histories[dtype] = pipeline.run_train_diffusion(cfg, tmp_path / dtype)
    assert np.allclose(histories["float32"], histories["float64"], rtol=1e-6, atol=0)
    arrays, _ = smallnet.load_checkpoint(tmp_path / "float32" / "diffusion.ckpt")
    for name, p32 in trained_params["float32"].items():
        p64 = trained_params["float64"][name]
        assert p32.dtype == np.float32 and p64.dtype == np.float64
        assert np.abs(p32 - p64).max() <= 1e-3 * np.abs(p64).max()
        assert np.array_equal(arrays[name], p32)


@pytest.mark.parametrize("name", ["clmp.ckpt", "latentcodec.ckpt", "diffusion.ckpt"])
def test_checkpoint_arrays_are_the_models_named_parameters(trained, name):
    """Each checkpoint stores exactly its model's ``named_parameters()`` under
    their names, and diffusion.ckpt also the exact sampler arrays."""
    path = trained[1] / name
    extra = ()
    if name == "diffusion.ckpt":
        named = diffusion.Denoiser.load(path).named_parameters()
        extra = diffusion.SAMPLER_ARRAYS
    else:
        model = clmp.ClmpModel if name == "clmp.ckpt" else latentcodec.LatentCodecModel
        named = model.load(path).named_parameters()
    arrays, _ = smallnet.load_checkpoint(path)
    assert sorted(arrays) == sorted([*named, *extra])
    for key, p in named.items():
        assert np.array_equal(arrays[key], p)


def test_non_finite_null_gradient_exits_3_naming_the_fusion_key(trained, work_copy, capsys,
                                                                 monkeypatch):
    """The denoiser's optimizer binds the fusion map's parameters by name."""
    config, _ = trained
    before = (work_copy / "diffusion.ckpt").read_bytes()
    training_step = diffusion.training_step

    def nan_null(*args, **kwargs):
        loss, grads = training_step(*args, **kwargs)
        return loss, grads[:-1] + [np.full_like(grads[-1], np.nan)]

    monkeypatch.setattr(diffusion, "training_step", nan_null)
    capsys.readouterr()
    assert cli.main(["train-diffusion", "--config", str(config),
                     "--out", str(work_copy)]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "GradientError" in err and "'fusion.null_condition'" in err
    assert (work_copy / "diffusion.ckpt").read_bytes() == before


def test_gradient_error_in_train_diffusion_exits_3_and_joins_its_thread(
        work_copy, tmp_path, capsys, monkeypatch):
    work = work_copy
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY, "diffusion": {**TINY["diffusion"], "train_steps": 6}}))
    before = (work / "diffusion.ckpt").read_bytes()
    baseline = threading.active_count()
    step, calls = smallnet.Optimizer.step, []

    def failing_step(self, grads):
        calls.append(threading.active_count())
        if len(calls) == 3:
            raise GradientError("non-finite gradient, update rejected", next(iter(self.named)))
        step(self, grads)

    monkeypatch.setattr(smallnet.Optimizer, "step", failing_step)
    capsys.readouterr()
    assert cli.main(["train-diffusion", "--config", str(config),
                     "--out", str(work)]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "GradientError" in err and "unexpected" not in err
    assert len(calls) == 3 and calls[-1] > baseline  # the worker was drawing step 4
    assert threading.active_count() == baseline
    assert (work / "diffusion.ckpt").read_bytes() == before


def test_train_diffusion_frees_each_steps_gradients_before_the_next(work_copy, monkeypatch):
    """Step k's weight gradients are dead when step k+1 starts, so the loop's
    memory peak, inside a training step, never holds two steps' gradients."""
    cfg = PipelineConfig.from_dict({**TINY, "diffusion": {**TINY["diffusion"],
                                                          "train_steps": 4}})
    training_step, previous, held = diffusion.training_step, [], []

    def tracking_step(*args, **kwargs):
        held.append(sum(ref() is not None for ref in previous))
        result = training_step(*args, **kwargs)
        previous[:] = [weakref.ref(g) for g in result[1]]
        return result

    monkeypatch.setattr(diffusion, "training_step", tracking_step)
    pipeline.run_train_diffusion(cfg, work_copy)
    assert held == [0, 0, 0, 0]


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def reference_top1(melodies, query):
    """Per-query exact top-1: highest cosine, ties to the lowest row."""
    sims = [float(np.sum(row * query)) for row in melodies]
    return min(range(len(melodies)), key=lambda i: (-sims[i], i))


def test_retrieve_matches_reference_loop_and_single_queries():
    rng = smallnet.spawn_rng(5)
    melodies, queries = unit_rows(rng, 40, 8), unit_rows(rng, 100, 8)
    rows = pipeline.retrieve(melodies, queries)
    assert list(rows) == [reference_top1(melodies, q) for q in queries]
    assert list(rows) == [pipeline.retrieve(melodies, q[None, :])[0] for q in queries]


def test_retrieve_ties_go_to_the_lowest_row():
    e0, e1 = np.eye(4)[0], np.eye(4)[1]
    melodies = np.stack([e1, e0, e1, e0])
    assert list(pipeline.retrieve(melodies, np.stack([e0, e1]))) == [1, 0]


def test_generate_is_repeatable(trained):
    config, work = trained
    assert generate(config, work, "a") == cli.EXIT_OK
    assert generate(config, work, "b") == cli.EXIT_OK
    gen = work / "generated"
    assert (gen / "a.wav").read_bytes() == (gen / "b.wav").read_bytes()
    assert np.array_equal(smallnet.load_checkpoint(gen / "a.latent.ckpt")[0]["latent"],
                          smallnet.load_checkpoint(gen / "b.latent.ckpt")[0]["latent"])


def test_seed_flag_generates_as_the_config_seed(trained, tmp_path, capsys):
    """``--seed 5`` over a seed-3 config writes the WAV a seed-5 config
    writes, and reports seed 5; seed 3 writes another."""
    config, work = trained
    seeded = tmp_path / "seed5.json"
    seeded.write_text(json.dumps({**TINY, "seed": 5}))
    runs = {"flag5": ([str(config), "--seed", "5"], 5), "config5": ([str(seeded)], 5),
            "config3": ([str(config)], 3)}
    for tag, (args, seed) in runs.items():
        capsys.readouterr()
        assert cli.main(["generate", "--out", str(work), "--prompt", "a calm melody",
                         "--tag", tag, "--config", *args]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["sampler"]["seed"] == seed
    wav = {tag: (work / "generated" / f"{tag}.wav").read_bytes() for tag in runs}
    assert wav["flag5"] == wav["config5"] != wav["config3"]


# SHA-256 of the tiny stack's WAV for the prompt "a calm melody" at seed 3,
# keyed by (machine, numpy version, BLAS): BLAS rounding decides the low bits,
# so other platforms skip instead of failing.
GOLDEN_WAV_SHA256 = {
    ("x86_64", "2.4.6", "scipy-openblas"): "eea9e3cf1d60d84cfee1ee540bdc44f3402d9ee838383c0f6ef636f999942485",
}


def test_generated_wav_matches_golden_hash(trained):
    key = golden_key()
    if key not in GOLDEN_WAV_SHA256:
        pytest.skip(f"no golden WAV hash pinned for {key}")
    config, work = trained
    assert generate(config, work, "golden") == cli.EXIT_OK
    digest = hashlib.sha256((work / "generated" / "golden.wav").read_bytes()).hexdigest()
    assert digest == GOLDEN_WAV_SHA256[key]


# SHA-256 of the mel and latent checkpoints written next to that WAV, keyed as
# above. The mel checkpoint's header carries the decoded grid's frame_hop,
# n_fft and sample_rate.
GOLDEN_GENERATED_SHA256 = {
    ("x86_64", "2.4.6", "scipy-openblas"): {
        "golden.mel.ckpt": "6c5830ef0e60b1465f7bd6a16875dbbb0c32f632fa319650036fce395027830d",
        "golden.latent.ckpt": "4ac94d59685eabe30448ce8bfcadb76a405dfb4f37c51515b19ab2fe642ab49a",
    },
}


@pytest.mark.parametrize("name", ["golden.mel.ckpt", "golden.latent.ckpt"])
def test_generated_checkpoint_matches_golden_hash(trained, name):
    key = golden_key()
    if key not in GOLDEN_GENERATED_SHA256:
        pytest.skip(f"no golden generated-checkpoint hashes pinned for {key}")
    config, work = trained
    assert generate(config, work, "golden") == cli.EXIT_OK
    digest = hashlib.sha256((work / "generated" / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_GENERATED_SHA256[key][name]


# The same prompt and seed through the other sampler, without guidance and
# with a zero melody, keyed as above.
GOLDEN_VARIANT_WAV_SHA256 = {
    ("x86_64", "2.4.6", "scipy-openblas"): {
        "ddpm": "4a4c0b74064ef36607b300960c41a5f1d79618d55c3c29c4602d572373e463ab",
        "cfg0": "ae328cb0f6f52bb2ec9b7ab2200f7dfee4b3036daac503ac80ebaa9e077133a4",
        "no_melody": "5270255ee6317e152b12e41f2713fa623b4e1136130ea1d5b322f90fe2964365",
    },
}


@pytest.mark.parametrize("variant, flags", [
    ("ddpm", ["--sampler", "ddpm"]),
    ("cfg0", ["--cfg", "0"]),
    ("no_melody", ["--no-melody"]),
])
def test_generated_wav_variant_matches_golden_hash(trained, variant, flags):
    key = golden_key()
    if key not in GOLDEN_VARIANT_WAV_SHA256:
        pytest.skip(f"no golden WAV hash pinned for {key}")
    config, work = trained
    assert cli.main(["generate", "--config", str(config), "--out", str(work),
                     "--prompt", "a calm melody", "--tag", variant, *flags]) == cli.EXIT_OK
    digest = hashlib.sha256((work / "generated" / f"{variant}.wav").read_bytes()).hexdigest()
    assert digest == GOLDEN_VARIANT_WAV_SHA256[key][variant]


# SHA-256 of each checkpoint the tiny stack's training stages write, keyed as
# above: they pin the training arithmetic and its random stream directly.
GOLDEN_CHECKPOINT_SHA256 = {
    ("x86_64", "2.4.6", "scipy-openblas"): {
        "clmp.ckpt": "a7e3f7e768a0f7fc48bb0c075fcf92f53333382446c5d7f961aa87ec5e823796",
        "melody.ckpt": "092fcebbdd55fc471733a0168c7b50dd8ae708f179b97b37ffd1467c8eeb1946",
        "latentcodec.ckpt": "5a63eaa914be4dd19efaeb29230f7dc31d62f848b484c0d146db8a748883a9a6",
        "diffusion.ckpt": "db45fc644b222b19ee8f9593a2ce413f0db168558261cf05a14665d6c3fb6ca2",
    },
}


@pytest.mark.parametrize("name", ["clmp.ckpt", "melody.ckpt", "latentcodec.ckpt",
                                  "diffusion.ckpt"])
def test_trained_checkpoint_matches_golden_hash(trained, name):
    key = golden_key()
    if key not in GOLDEN_CHECKPOINT_SHA256:
        pytest.skip(f"no golden checkpoint hashes pinned for {key}")
    _, work = trained
    digest = hashlib.sha256((work / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_CHECKPOINT_SHA256[key][name]


# SHA-256 of the tiny stack's features.ckpt, keyed as above: it pins the
# float64 mel grids bit for bit, and the ids, WAV digests and signal settings
# they were built from.
GOLDEN_FEATURES_SHA256 = {
    ("x86_64", "2.4.6", "scipy-openblas"):
        "0b9780259318ebccc57f1655716021d07c61dc939e5d7051e84c53490a4188ec",
}


def test_features_match_golden_hash(trained):
    key = golden_key()
    if key not in GOLDEN_FEATURES_SHA256:
        pytest.skip(f"no golden features hash pinned for {key}")
    _, work = trained
    digest = hashlib.sha256((work / "features.ckpt").read_bytes()).hexdigest()
    assert digest == GOLDEN_FEATURES_SHA256[key]


def assert_reports_agree(got, want, where="report"):
    """Equal JSON trees, except that floats need only agree to rel 1e-12."""
    if isinstance(want, float):
        assert isinstance(got, float) and got == pytest.approx(want, rel=1e-12, abs=0), where
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for k in want:
            assert_reports_agree(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, v) in enumerate(zip(got, want)):
            assert_reports_agree(g, v, f"{where}[{i}]")
    else:
        assert got == want, where


@pytest.mark.parametrize("mode", ["standard", "ablation", "steps_sweep", "cfg_sweep"])
def test_evaluate_report_matches_reference_sampler(request, capsys, monkeypatch, mode):
    """Each report agrees with one whose DDIM runs take two full denoiser
    forwards per step."""
    config, work, _ = evaluate_stack(request, mode)
    args = ["evaluate", "--config", str(config), "--out", str(work), "--mode", mode]
    capsys.readouterr()
    assert cli.main(args) == cli.EXIT_OK
    shipped = json.loads(capsys.readouterr().out)
    monkeypatch.setattr(pipeline.diffusion, "sample_ddim", reference_ddim)
    assert cli.main(args) == cli.EXIT_OK
    assert_reports_agree(shipped, json.loads(capsys.readouterr().out))


@pytest.mark.parametrize("args, fixture, embeds", [
    (["generate", "--prompt", "a calm melody", "--tag", "once"], "trained", ["text"]),
    (["generate", "--prompt", "a calm melody", "--tag", "once", "--no-melody"], "trained",
     ["text"]),
    (["evaluate", "--mode", "ablation"], "trained", ["text"]),
    # the retrieval table reuses the captions' embedding and the held-out
    # mels' features; only the melodies are embedded for it
    (["evaluate", "--mode", "standard"], "trained_standard", ["text", "melody"]),
], ids=["generate", "generate_no_melody", "evaluate_ablation", "evaluate_standard"])
def test_stage_loads_the_stack_and_embeds_its_captions_once(request, monkeypatch, capsys,
                                                            args, fixture, embeds):
    config, work = request.getfixturevalue(fixture)
    calls, embed, load = [], clmp.embed, diffusion.Denoiser.load

    def counted_embed(model, modality, items):
        calls.append(modality)
        return embed(model, modality, items)

    def counted_load(cls, path):
        calls.append("load")
        return load(path)

    monkeypatch.setattr(clmp, "embed", counted_embed)
    monkeypatch.setattr(diffusion.Denoiser, "load", classmethod(counted_load))
    assert cli.main([*args, "--config", str(config), "--out", str(work)]) == cli.EXIT_OK
    assert calls == ["load", *embeds]


# SHA-256 of the JSON report of each evaluate mode on the tiny stack (the
# standard mode on TINY_STANDARD's), keyed as above. A sampler change that
# moves only the last bits of the reports may re-pin these once the
# reference-sampler check above passes.
GOLDEN_REPORT_SHA256 = {
    ("x86_64", "2.4.6", "scipy-openblas"): {
        "standard": "b6474c8ee4282f2039ce15a74f7b510b2d715f2b44aec1f00c8c405e8a28be49",
        "ablation": "aaac1beabd620005ab0c99bf5cdf240226ed86819ef316d15199ed20c56a2803",
        "steps_sweep": "24bab4803497db45a098fea5e4f595f7dab3fafeddb9e306e2f1b60609350188",
        "cfg_sweep": "6cea0c37dacd1614b5f169236c242115d253d5d5fb10968d25a3771ea4ee94ca",
    },
}


@pytest.mark.parametrize("mode, n_entries", [
    ("standard", None),
    ("ablation", 5),
    ("steps_sweep", 1),  # only 10 of the swept step counts fits n_steps=10
    ("cfg_sweep", 6),
])
def test_evaluate_report_matches_golden_hash(request, tmp_path, mode, n_entries):
    config, work, held_out = evaluate_stack(request, mode)
    path = tmp_path / "report.json"
    assert cli.main(["evaluate", "--config", str(config), "--out", str(work),
                     "--mode", mode, "--report", str(path)]) == cli.EXIT_OK
    report = json.loads(path.read_text())
    assert report["mode"] == mode
    assert report["n_samples"] == held_out
    if n_entries is not None:
        assert len(report["runs" if mode == "ablation" else "points"]) == n_entries
    key = golden_key()
    if key not in GOLDEN_REPORT_SHA256:
        pytest.skip(f"no golden report hashes pinned for {key}")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_REPORT_SHA256[key][mode]
