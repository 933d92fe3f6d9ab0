import argparse
import csv
import dataclasses
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from biasloss import cli, data, diagnostics, layers, train
from biasloss.cli import main
from test_train import (MALFORMED_CHECKPOINTS, write_empty_test_split,
                        write_nan_checkpoint)

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    data.write_synthetic_mnist(root, n_train=96, n_test=48, seed=0)
    return root


def strip_wall(text):
    return "\n".join(",".join(line.split(",")[:-1])
                     for line in text.splitlines())


TRAIN_ARGS = ["--epochs", "1", "--batch_size", "32", "--lr0", "0.05",
              "--seed", "1", "--augment", "false", "--dropout", "0.0"]


class TestUsage:
    @pytest.mark.parametrize("verb", ["train", "eval", "profile", "sweep",
                                      "curve", "fixtures"])
    def test_help_exits_zero(self, verb, capsys):
        assert main([verb, "--help"]) == 0
        out = capsys.readouterr().out
        assert "usage" in out

    def test_unknown_verb_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag_exits_two(self, capsys):
        assert main(["curve", "--bogus", "1"]) == 2

    def test_missing_dataset_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("DATA_DIR", raising=False)
        code = main(["train", "--out", str(tmp_path),
                     "--data_dir", str(tmp_path / "absent")])
        assert code == 2

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("loss=unknown\n")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--batch_size", "0"), ("--epochs", "-1"), ("--dropout", "1.5"),
        ("--clamp_lo", "2"),
    ])
    def test_out_of_range_config_exits_two(self, tmp_path, synth_dir, flag,
                                           value, capsys):
        code = main(["train", "--data_dir", str(synth_dir),
                     "--out", str(tmp_path), flag, value])
        assert code == 2
        assert flag[2:] in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--train_limit", "0"], ["--train_limit", "-60"],
        ["--val_limit", "0"], ["--width_multiplier", "0"],
        ["--loss", "focal", "--gamma", "-1"], ["--lr0", "nan"],
        ["--momentum", "-5"], ["--weight_decay", "-1"],
        ["--schedule", "1:-1"], ["--clamp_lo", "nan"],
        # these three used to train: alpha inf ended in a non-finite loss
        # (exit 3), beta inf ran to exit 0 with every weight at clamp_lo
        ["--loss", "bias", "--alpha", "inf"],
        ["--loss", "bias", "--beta", "inf"],
        ["--loss", "focal", "--gamma", "inf"],
        # numpy's SeedSequence refused it in the model build, in a traceback
        ["--seed", "-1"],
    ])
    def test_out_of_range_field_exits_two_without_traceback(
            self, tmp_path, synth_dir, flags, capsys):
        code = main(["train", "--data_dir", str(synth_dir),
                     "--out", str(tmp_path / "run")] + flags)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and flags[-2][2:] in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("verb,extra", [("train", ["--out"]),
                                            ("eval", ["--ckpt"])])
    def test_unknown_dataset_exits_two(self, tmp_path, synth_dir, verb,
                                       extra, capsys):
        code = main(["--quiet", verb, "--dataset", "foo", "--data_dir",
                     str(synth_dir)] + extra + [str(tmp_path / "x")])
        assert code == 2
        assert "unknown dataset 'foo'" in capsys.readouterr().err


def assert_config_error(code, capsys):
    """Exit 2 with one error line and no traceback."""
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    return err


class TestBadPaths:
    def test_config_is_a_directory(self, tmp_path, synth_dir, capsys):
        code = main(["train", "--config", str(tmp_path), "--data_dir",
                     str(synth_dir), "--out", str(tmp_path / "run")])
        assert str(tmp_path) in assert_config_error(code, capsys)

    def test_config_not_utf8(self, tmp_path, synth_dir, capsys):
        cfg = tmp_path / "latin.cfg"
        cfg.write_bytes(b"loss=bias\n# caf\xe9\n")
        code = main(["train", "--config", str(cfg), "--data_dir",
                     str(synth_dir), "--out", str(tmp_path / "run")])
        assert "not UTF-8" in assert_config_error(code, capsys)
        assert not (tmp_path / "run").exists()

    def test_config_repeated_key(self, tmp_path, synth_dir, capsys):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("loss=bias\nloss=ce\n")
        code = main(["train", "--config", str(cfg), "--data_dir",
                     str(synth_dir), "--out", str(tmp_path / "run")])
        err = assert_config_error(code, capsys)
        assert "dup.cfg:2: key 'loss' repeats line 1" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("verb", ["eval", "profile"])
    def test_checkpoint_is_a_directory(self, tmp_path, synth_dir, verb,
                                       capsys):
        out = ["--out", str(tmp_path)] if verb == "profile" else []
        code = main([verb, "--ckpt", str(tmp_path), "--data_dir",
                     str(synth_dir)] + out)
        assert str(tmp_path) in assert_config_error(code, capsys)

    def test_train_out_is_a_file(self, tmp_path, synth_dir, capsys):
        out = tmp_path / "taken"
        out.write_text("x")
        code = main(["train", "--data_dir", str(synth_dir),
                     "--out", str(out)] + TRAIN_ARGS)
        assert str(out) in assert_config_error(code, capsys)
        assert out.read_text() == "x"

    @pytest.mark.parametrize("verb", ["train", "eval"])
    def test_empty_split(self, tmp_path, verb, capsys):
        root = tmp_path / "data"
        write_empty_test_split(root)
        extra = (["--out", str(tmp_path / "run")] if verb == "train"
                 else ["--ckpt", str(tmp_path / "none.ckpt")])
        code = main([verb, "--data_dir", str(root)] + extra)
        assert "test split" in assert_config_error(code, capsys)

    @pytest.mark.parametrize("verb", ["train", "eval", "profile"])
    @pytest.mark.parametrize("n_images,labels,msg", [
        (3, [1, 2], "aligned with labels"), (2, [1, 12], "must lie in")],
        ids=["count_mismatch", "label_out_of_range"])
    def test_malformed_idx_pair(self, tmp_path, verb, n_images, labels, msg,
                                capsys):
        # both files parse; together they make no dataset
        root = tmp_path / "data"
        root.mkdir()
        for prefix in ("train", "t10k"):
            data.write_idx_images(root / f"{prefix}-images-idx3-ubyte",
                                  np.zeros((n_images, 1, 28, 28), np.uint8))
            data.write_idx_labels(root / f"{prefix}-labels-idx1-ubyte",
                                  np.array(labels, np.uint8))
        extra = {"train": ["--out", str(tmp_path / "run")],
                 "eval": ["--ckpt", str(tmp_path / "none.ckpt")],
                 "profile": ["--ckpt", str(tmp_path / "none.ckpt"),
                             "--out", str(tmp_path / "prof")]}[verb]
        code = main([verb, "--data_dir", str(root)] + extra)
        assert msg in assert_config_error(code, capsys)

    def test_cifar_label_out_of_range(self, tmp_path, capsys):
        root = tmp_path / "data"
        data.write_synthetic_cifar10(root, n_train=5, n_test=2)
        data.write_cifar10(root / "cifar-10-batches-bin" / "test_batch.bin",
                           np.zeros((1, 3, 32, 32), np.uint8), [200])
        code = main(["eval", "--dataset", "cifar10", "--data_dir", str(root),
                     "--ckpt", str(tmp_path / "none.ckpt")])
        err = assert_config_error(code, capsys)
        assert "cifar10 test: labels must lie in [0, 10)" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_sweep_nonpositive_jobs(self, tmp_path, synth_dir, jobs, capsys):
        code = main(["sweep", "--data_dir", str(synth_dir), "--jobs", jobs,
                     "--out", str(tmp_path / "sweep")] + TRAIN_ARGS)
        assert f"jobs must be >= 1, got {jobs}" in assert_config_error(
            code, capsys)
        assert not (tmp_path / "sweep").exists()


def readme_cli_commands():
    """Every `biasloss ...` command in README's CLI section, as argv."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("\n## CLI\n", 1)[1].split("\n## ")[0]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(l)[1:] for l in lines if l.startswith("biasloss ")]


def test_readme_cli_examples_parse():
    commands = readme_cli_commands()
    assert len(commands) == 7
    for argv in commands:
        args = cli.build_parser().parse_args(argv)
        assert args.verb == argv[0]


def verb_parsers():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices


class TestConfigFlags:
    @pytest.mark.parametrize("verb", ["train", "eval", "profile", "sweep"])
    def test_every_field_is_a_flag_with_its_help(self, verb):
        actions = {a.dest: a for a in verb_parsers()[verb]._actions}
        for f in dataclasses.fields(train.TrainConfig):
            action = actions[f.name]
            assert action.option_strings == [f"--{f.name}"]
            assert action.help == f.metadata["help"]
            assert action.default is None


class TestCurve:
    def test_anchor_row_present(self, tmp_path):
        assert main(["--quiet", "curve", "--alpha", "0.3", "--beta", "0.3",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "curve.csv").read_text().splitlines()
        assert lines[0] == "alpha,beta,v,z_raw,z_clamped"
        assert lines[1].startswith("0.3,0.3,0.0,0.7,")

    def test_idempotent(self, tmp_path):
        args = ["--quiet", "curve", "--alpha", "0.2,0.4", "--beta", "0.1",
                "--out", str(tmp_path)]
        assert main(args) == 0
        first = (tmp_path / "curve.csv").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "curve.csv").read_bytes() == first

    @pytest.mark.parametrize("flags,clamped", [
        ([], 0.5),
        (["--clamp_lo", "0"], 0.2),
        (["--clamp_lo", "0", "--clamp_hi", "0"], 0.0),
    ])
    def test_zero_clamp_bounds_are_kept(self, tmp_path, flags, clamped):
        # alpha 0, beta 0.8: z_raw is 0.2 everywhere, below the default
        # lower clamp, so a zero bound must not fall back to the default
        assert main(["--quiet", "curve", "--alpha", "0", "--beta", "0.8",
                     "--samples", "3", "--out", str(tmp_path)] + flags) == 0
        rows = (tmp_path / "curve.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            assert float(row.split(",")[4]) == pytest.approx(clamped)

    @pytest.mark.parametrize("flags", [["--alpha=-1"], ["--beta=0.3,-0.2"]])
    def test_negative_alpha_beta_exit_two(self, tmp_path, capsys, flags):
        assert main(["curve", "--out", str(tmp_path)] + flags) == 2
        assert "must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()

    def test_crossed_clamp_bounds_exit_two(self, tmp_path, capsys):
        assert main(["curve", "--clamp_hi", "0", "--out", str(tmp_path)]) == 2
        assert "clamp_lo" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,msg", [
        (["--clamp_lo", "nan"], "error: clamp_lo must be finite, got nan"),
        (["--clamp_hi", "inf"], "error: clamp_hi must be finite, got inf"),
        (["--alpha", "inf"], "error: alpha values must be >= 0 and finite"),
        (["--beta", "0.3,inf"], "error: beta values must be >= 0 and finite"),
    ], ids=["clamp_lo_nan", "clamp_hi_inf", "alpha_inf", "beta_inf"])
    def test_nonfinite_values_exit_two(self, tmp_path, capsys, flags, msg):
        assert main(["curve", "--samples", "3", "--out", str(tmp_path)]
                    + flags) == 2
        assert capsys.readouterr().err.startswith(msg)
        assert not (tmp_path / "curve.csv").exists()

    @pytest.mark.parametrize("samples", ["-1", "0"])
    def test_nonpositive_samples_exit_two(self, tmp_path, capsys, samples):
        assert main(["curve", "--samples", samples,
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: samples must be")
        assert not (tmp_path / "curve.csv").exists()


class TestFixtures:
    def test_writes_parseable_fixtures(self, tmp_path):
        assert main(["--quiet", "fixtures", "--out", str(tmp_path)]) == 0
        imgs = data.read_idx(tmp_path / "fixture-images-idx3-ubyte")
        assert imgs.shape == (2, 1, 2, 2)
        labels = data.read_idx(tmp_path / "fixture-labels-idx1-ubyte")
        np.testing.assert_array_equal(labels, [3, 7])
        ci, cl = data.read_cifar10(tmp_path / "fixture-cifar.bin")
        assert ci.shape == (1, 3, 32, 32) and cl[0] == 7

    def test_synthetic_dataset_option(self, tmp_path):
        assert main(["--quiet", "fixtures", "--out", str(tmp_path),
                     "--synthetic_mnist", "64"]) == 0
        ds = data.load_mnist(tmp_path / "synthetic-mnist", "train")
        assert len(ds) == 64

    @pytest.mark.parametrize("flag", ["--synthetic_mnist", "--synthetic_cifar"])
    def test_negative_synthetic_size_exits_two(self, tmp_path, capsys, flag):
        assert main(["fixtures", "--out", str(tmp_path / "f"),
                     flag, "-5"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag[2:]} must")
        assert not (tmp_path / "f").exists()

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 11, 12, 16])
    def test_synthetic_cifar_fills_five_batches(self, tmp_path, n):
        # every data_batch file holds an image, and the loaded train split
        # is the generated one
        assert main(["--quiet", "fixtures", "--out", str(tmp_path),
                     "--synthetic_cifar", str(n)]) == 0
        root = tmp_path / "synthetic-cifar10"
        sizes = [len(data.read_cifar10(
            root / "cifar-10-batches-bin" / f"data_batch_{i}.bin")[1])
            for i in range(1, 6)]
        assert min(sizes) >= 1 and sum(sizes) == n
        got = data.load_cifar10(root, "train")
        want = data.make_synthetic("cifar10", n, seed=0, split="train")
        assert np.array_equal(got.images, want.images)
        assert np.array_equal(got.labels, want.labels)

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_synthetic_cifar_below_five_exits_two(self, tmp_path, capsys, n):
        code = main(["fixtures", "--out", str(tmp_path / "f"),
                     "--synthetic_cifar", str(n)])
        assert (f"synthetic_cifar must be 0 or >= 5, got {n}"
                in assert_config_error(code, capsys))
        assert not (tmp_path / "f").exists()
        with pytest.raises(ValueError, match="n_train must be >= 5"):
            data.write_synthetic_cifar10(tmp_path / "g", n_train=n)

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        code = main(["fixtures", "--out", str(tmp_path / "f"),
                     "--synthetic_mnist", "16", "--seed", "-1"])
        assert "seed must be >= 0, got -1" in assert_config_error(code,
                                                                  capsys)
        assert not (tmp_path / "f").exists()


class TestTrainEvalProfile:
    def test_train_writes_outputs(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["--quiet", "train", "--data_dir", str(synth_dir),
                     "--out", str(out)] + TRAIN_ARGS)
        assert code == 0
        assert (out / "runlog.csv").exists()
        assert (out / "best.ckpt").exists()
        assert (out / "final.ckpt").exists()

    def test_zero_epochs_lists_only_written_files(self, synth_dir, tmp_path,
                                                  capsys):
        out = tmp_path / "run"
        assert main(["train", "--data_dir", str(synth_dir), "--epochs", "0",
                     "--out", str(out)]) == 0
        assert not (out / "best.ckpt").exists()
        printed = capsys.readouterr().out.strip()
        assert printed == f"wrote {out / 'runlog.csv'}, {out / 'final.ckpt'}"

    def test_bias_zero_equals_ce_runlog(self, synth_dir, tmp_path):
        out_ce = tmp_path / "ce"
        out_b = tmp_path / "b"
        assert main(["--quiet", "train", "--data_dir", str(synth_dir),
                     "--loss", "ce", "--out", str(out_ce)] + TRAIN_ARGS) == 0
        assert main(["--quiet", "train", "--data_dir", str(synth_dir),
                     "--loss", "bias", "--alpha", "0", "--beta", "0",
                     "--out", str(out_b)] + TRAIN_ARGS) == 0
        a = strip_wall((out_ce / "runlog.csv").read_text())
        b = strip_wall((out_b / "runlog.csv").read_text())
        assert a == b

    def test_eval_matches_runlog(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        main(["--quiet", "train", "--data_dir", str(synth_dir),
              "--out", str(out)] + TRAIN_ARGS)
        capsys.readouterr()
        code = main(["eval", "--ckpt", str(out / "final.ckpt"),
                     "--data_dir", str(synth_dir)] + TRAIN_ARGS)
        assert code == 0
        printed = capsys.readouterr().out.strip()
        last_val = [l for l in (out / "runlog.csv").read_text().splitlines()
                    if l.split(",")[1] == "val"][-1].split(",")
        assert printed == f"loss={last_val[2]} top1={last_val[3]}"

    def test_eval_honours_val_limit(self, synth_dir, tmp_path, capsys):
        # the val row of a run on the first 20 test images is what eval
        # prints for them
        out = tmp_path / "run"
        limits = ["--train_limit", "64", "--val_limit", "20"]
        main(["--quiet", "train", "--data_dir", str(synth_dir),
              "--out", str(out)] + TRAIN_ARGS + limits)
        capsys.readouterr()
        code = main(["eval", "--ckpt", str(out / "final.ckpt"),
                     "--data_dir", str(synth_dir)] + TRAIN_ARGS + limits)
        assert code == 0
        printed = capsys.readouterr().out.strip()
        last_val = [l for l in (out / "runlog.csv").read_text().splitlines()
                    if l.split(",")[1] == "val"][-1].split(",")
        assert printed == f"loss={last_val[2]} top1={last_val[3]}"

    def test_profile_two_rows(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        main(["--quiet", "train", "--data_dir", str(synth_dir),
              "--out", str(out)] + TRAIN_ARGS)
        code = main(["--quiet", "profile", "--ckpt", str(out / "final.ckpt"),
                     "--data_dir", str(synth_dir), "--layers", "stem,head",
                     "--out", str(out)] + TRAIN_ARGS)
        assert code == 0
        lines = (out / "profile.csv").read_text().splitlines()
        assert lines[0] == "layer,avg,max,min"
        assert len(lines) == 3
        assert lines[1].startswith("stem,") and lines[2].startswith("head,")

    @pytest.mark.parametrize("split,flag", [("test", "--val_limit"),
                                            ("train", "--train_limit")])
    def test_eval_and_profile_honour_their_split_limit(
            self, synth_dir, tmp_path, capsys, split, flag):
        ckpt = tmp_path / "m.ckpt"
        cfg = train.TrainConfig(data_dir=str(synth_dir))
        train.save_checkpoint(ckpt, layers.SkipblockNetMicro(
            cfg.model_spec(), seed=0))
        ds = data.load_mnist(synth_dir, split).take(20)
        args = ["--ckpt", str(ckpt), "--data_dir", str(synth_dir),
                "--split", split, flag, "20"]
        assert main(["eval"] + args) == 0
        loss, top1 = train.evaluate(ckpt, ds, cfg)
        assert capsys.readouterr().out == f"loss={loss!r} top1={top1!r}\n"
        assert main(["--quiet", "profile", "--out", str(tmp_path)]
                    + args) == 0
        want = diagnostics.profile(
            train.model_from_checkpoint(ckpt, cfg), ds,
            normalize=data.default_augment("mnist").normalize)
        assert (tmp_path / "profile.csv").read_text() == want.to_csv()

    @pytest.mark.parametrize("spec", [
        layers.MicroNetSpec(width_multiplier=0.5),  # wrong shapes
        layers.MicroNetSpec(skip_insertions=()),    # missing skip block keys
    ])
    def test_profile_misfit_checkpoint_exits_two(self, synth_dir, tmp_path,
                                                 spec, capsys):
        ckpt = tmp_path / "other.ckpt"
        train.save_checkpoint(ckpt, layers.SkipblockNetMicro(spec, seed=0))
        code = main(["--quiet", "profile", "--ckpt", str(ckpt),
                     "--data_dir", str(synth_dir), "--out", str(tmp_path)])
        assert code == 2
        assert "does not fit model" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["eval", "profile"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_malformed_checkpoint_exits_two(self, synth_dir, tmp_path, verb,
                                            case, capsys):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(MALFORMED_CHECKPOINTS[case])
        out = ["--out", str(tmp_path)] if verb == "profile" else []
        code = main(["--quiet", verb, "--ckpt", str(ckpt),
                     "--data_dir", str(synth_dir)] + out)
        assert code == 2
        assert "bad.ckpt" in capsys.readouterr().err

    def test_missing_checkpoint_exits_two(self, synth_dir, tmp_path, capsys):
        code = main(["eval", "--ckpt", str(tmp_path / "none.ckpt"),
                     "--data_dir", str(synth_dir)])
        assert code == 2
        assert str(tmp_path / "none.ckpt") in capsys.readouterr().err

    def test_nan_checkpoint_exits_three(self, synth_dir, tmp_path, capsys):
        write_nan_checkpoint(tmp_path / "nan.ckpt")
        code = main(["eval", "--ckpt", str(tmp_path / "nan.ckpt"),
                     "--data_dir", str(synth_dir)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical failure: non-finite loss nan at "
                              "test split batch 0;")

    def test_profile_nonfinite_variance_exits_three(self, synth_dir, tmp_path,
                                                    capsys):
        model = layers.SkipblockNetMicro(train.TrainConfig().model_spec(),
                                         seed=0)
        model.blocks[1].depthwise.conv.weight.value[0, 0, 0, 0] = np.inf
        train.save_checkpoint(tmp_path / "inf.ckpt", model)
        out = tmp_path / "prof"
        with np.errstate(all="ignore"):  # inf - inf in the forward
            code = main(["profile", "--ckpt", str(tmp_path / "inf.ckpt"),
                         "--data_dir", str(synth_dir), "--dataset", "mnist",
                         "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == ("numerical failure: non-finite variance at "
                                "probe block2 batch 0 (48 of 48 samples)\n")
        assert not (out / "profile.csv").exists()

    @pytest.mark.parametrize("verb,message", [
        ("eval", r"non-finite loss nan at test split batch 0; variance in "
                 r"\[\S+, \S+\], weight in \[\S+, \S+\]"),
        ("profile", r"non-finite variance at probe block2 batch 0 "
                    r"\(32 of 32 samples\)")])
    def test_numerical_failure_is_one_line(self, tmp_path, verb, message):
        # a fresh process, outside any np.errstate of the test run: numpy's
        # own warnings must not precede the one-line message
        assert main(["--quiet", "fixtures", "--out", str(tmp_path),
                     "--synthetic_mnist", "64"]) == 0
        model = layers.SkipblockNetMicro(train.TrainConfig().model_spec(),
                                         seed=0)
        model.blocks[1].depthwise.conv.weight.value[0, 0, 0, 0] = np.inf
        train.save_checkpoint(tmp_path / "inf.ckpt", model)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        out = ["--out", str(tmp_path / "prof")] if verb == "profile" else []
        proc = subprocess.run(
            [sys.executable, "-m", "biasloss.cli", verb, "--ckpt",
             str(tmp_path / "inf.ckpt"), "--data_dir",
             str(tmp_path / "synthetic-mnist")] + out,
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 3
        assert re.fullmatch(f"numerical failure: {message}\n", proc.stderr)

    def test_numerical_failure_exits_three(self, synth_dir, tmp_path):
        # lr * weight_decay >> 1 makes the weights themselves overflow f32
        with np.errstate(all="ignore"):
            code = main(["--quiet", "train", "--data_dir", str(synth_dir),
                         "--out", str(tmp_path / "x"), "--lr0", "1e10",
                         "--weight_decay", "1e10", "--epochs", "2",
                         "--batch_size", "32"])
        assert code == 3


class TestSweep:
    def test_grid_rows_and_zero_cell(self, synth_dir, tmp_path):
        out = tmp_path / "sweep"
        code = main(["--quiet", "sweep", "--data_dir", str(synth_dir),
                     "--alphas", "0,0.3", "--betas", "0,0.3",
                     "--out", str(out)] + TRAIN_ARGS)
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha,beta,final_top1,final_loss,status"
        assert len(lines) == 5  # 2x2 grid
        # the (0,0) cell must reproduce a plain-CE run with the same seed
        ce_out = tmp_path / "ce"
        main(["--quiet", "train", "--data_dir", str(synth_dir), "--loss",
              "ce", "--out", str(ce_out)] + TRAIN_ARGS)
        ce_val = [l for l in (ce_out / "runlog.csv").read_text().splitlines()
                  if l.split(",")[1] == "val"][-1].split(",")
        cell = [l for l in lines[1:] if l.startswith("0.0,0.0,")][0].split(",")
        assert cell[2] == ce_val[3]  # top1
        assert cell[3] == ce_val[2]  # loss
        assert cell[4] == "ok"

    def test_zero_epochs_exits_two(self, synth_dir, tmp_path, capsys):
        code = main(["sweep", "--data_dir", str(synth_dir), "--epochs", "0",
                     "--out", str(tmp_path / "sweep")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: sweep needs epochs")
        assert not (tmp_path / "sweep").exists()

    def test_parallel_jobs_match_sequential(self, synth_dir, tmp_path):
        args = ["--quiet", "sweep", "--data_dir", str(synth_dir),
                "--alphas", "0.1,0.3", "--betas", "0.3",
                "--epochs", "1", "--batch_size", "32", "--lr0", "0.05",
                "--seed", "1", "--augment", "false", "--dropout", "0.0"]
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2), "--jobs", "2"]) == 0
        assert ((out1 / "sweep.csv").read_text()
                == (out2 / "sweep.csv").read_text())

    # the cell runs on the sweep's own thread, outside any errstate here
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_cell_is_one_csv_row(self, synth_dir, tmp_path):
        # lr * weight_decay >> 1 makes the weights overflow in the first step
        out = tmp_path / "sweep"
        code = main(["--quiet", "sweep", "--data_dir", str(synth_dir),
                     "--alphas", "0.3", "--betas", "0.3", "--out", str(out)]
                    + TRAIN_ARGS + ["--lr0", "1e10", "--weight_decay", "1e10"])
        assert code == 0
        text = (out / "sweep.csv").read_text()
        rows = list(csv.reader(io.StringIO(text)))
        assert text.count("\n") == 2 and len(rows) == 2
        assert rows[1] == ["0.3", "0.3", "nan", "nan", "nonfinite"]

    def test_caller_errstate_reaches_cells(self, synth_dir, tmp_path):
        # no filterwarnings marker: the overflow in the cell stays silent
        # only if the caller's np.errstate reaches the cell's thread
        out = tmp_path / "sweep"
        with np.errstate(all="ignore"):
            code = main(["--quiet", "sweep", "--data_dir", str(synth_dir),
                         "--alphas", "0.3", "--betas", "0.3", "--out",
                         str(out)] + TRAIN_ARGS
                        + ["--lr0", "1e10", "--weight_decay", "1e10"])
        assert code == 0
        rows = list(csv.reader(io.StringIO((out / "sweep.csv").read_text())))
        assert rows[1] == ["0.3", "0.3", "nan", "nan", "nonfinite"]
