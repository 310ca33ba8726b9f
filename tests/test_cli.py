"""CLI tests: exit codes, artifacts, config precedence, and byte determinism.

All invocations run main() in-process against temp directories.
"""

import dataclasses
import json

import numpy as np
import pytest

from sasoftmax import TrainConfig, load_checkpoint, microlm, save_checkpoint
from sasoftmax.cli import build_parser, main

# Every option `train` takes. TrainConfig fields left off the CLI (rope_base)
# must stay off: a new flag is a new config field in every run's echo.
TRAIN_FLAGS = {"corpus", "kind", "layers", "d_model", "seq_len", "batch", "steps", "lr",
               "beta1", "beta2", "adam_eps", "seed", "rope", "init_std", "eps",
               "wall_times", "out"}


def read(path):
    return path.read_bytes()


def assert_config_error(rc, capsys, out):
    """Exit 2 with one `error:` line and nothing written."""
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def with_manifest(whole, edit):
    """A checkpoint blob with its manifest replaced by edit(manifest)."""
    n = int.from_bytes(whole[8:16], "little")
    payload = json.dumps(edit(json.loads(whole[16:16 + n]))).encode()
    return whole[:8] + len(payload).to_bytes(8, "little") + payload + whole[16 + n:]


def set_key(key, value):
    return lambda m: {**m, key: value}


def rename_first_param(m):
    return {**m, "params": [{**m["params"][0], "name": "emb"}, *m["params"][1:]]}


def reshape_wq(m):
    # same element count, so the buffers still line up
    return {**m, "params": [{**p, "shape": [4, 16]} if p["name"] == "h0.wq" else p
                            for p in m["params"]]}


def with_param_entry(trained_dir, tmp_path, name, value):
    """The trained checkpoint's bytes with one entry of a parameter replaced."""
    params, cfg, vocab = load_checkpoint(trained_dir / "checkpoint.bin")
    params[name].flat[1] = value
    save_checkpoint(tmp_path / "edited.bin", params, cfg, vocab)
    return (tmp_path / "edited.bin").read_bytes()


MANIFEST_EDITS = (
    lambda m: {},
    lambda m: [],
    lambda m: {k: v for k, v in m.items() if k != "kind"},
    set_key("layers", "1"),
    set_key("rope", 1),
    set_key("format_version", 2),
    set_key("kind", "v7"),
    set_key("seq_len", 0),
    set_key("layers", 10**12),
    set_key("eps", 0.0),
    set_key("eps", -1.0),
    set_key("vocab", [97, 300]),
    lambda m: {**m, "vocab": [m["vocab"][0]] * len(m["vocab"])},
    set_key("rope_base", 10**400),
    rename_first_param,
    reshape_wq,
)


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    """A tiny trained checkpoint shared by the eval/dump tests."""
    out = tmp_path_factory.mktemp("trained")
    rc = main(["train", "--out", str(out), "--kind", "v4", "--layers", "1",
               "--d-model", "8", "--seq-len", "8", "--batch", "2",
               "--steps", "3", "--seed", "1"])
    assert rc == 0
    return out


class TestGradcheckCommand:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "gc"
        rc = main(["gradcheck", "--samples", "20", "--tmax", "4",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
        rows = json.loads((out / "gradcheck.json").read_text())
        assert len(rows) == 20 * 4 * 5
        assert (out / "config.json").is_file()
        assert "0 failed" in capsys.readouterr().out

    def test_zero_samples_is_config_error(self, tmp_path, capsys):
        rc = main(["gradcheck", "--samples", "0", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "samples must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_rerun_byte_identical(self, tmp_path):
        args = ["gradcheck", "--samples", "10", "--tmax", "3", "--seed", "7"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert read(a / "gradcheck.json") == read(b / "gradcheck.json")

    @pytest.mark.parametrize("flags", [
        ["--seed", "-1"],
        ["--tmin", "3"],
        ["--tol-rel", "nan"],
        ["--tol-rel", "inf"],
        ["--tol-rel", "0"],
        ["--kinds", "v9"],
    ])
    def test_bad_value_is_config_error(self, tmp_path, capsys, flags):
        out = tmp_path / "x"
        rc = main(["gradcheck", "--samples", "5", "--tmax", "2", *flags, "--out", str(out)])
        assert_config_error(rc, capsys, out)


class TestSweepCommand:
    def test_default_row_count(self, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 8 * 5  # header + |gaps| x |kinds|

    def test_peak_values_present(self, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", "--gaps", "10", "--kinds", "baseline,v1",
                     "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 3
        base_diag = float(lines[1].split(",")[3])
        v1_diag = float(lines[2].split(",")[3])
        assert abs(base_diag - 1.3617e-4) <= 1e-8
        assert abs(v1_diag - 1.00123) <= 1e-5

    def test_unwritable_out_dir_is_runtime_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        rc = main(["sweep", "--out", str(blocker / "sub")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_bad_kind_is_config_error(self, tmp_path):
        assert main(["sweep", "--kinds", "v7", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("flags", [
        ["--eps", "nan"],
        ["--eps", "inf"],
        ["--eps", "0"],
        ["--gaps", "nan"],
        ["--gaps", "2,inf"],
        ["--gaps", "2,x"],
        ["--kinds", "v7"],
        ["--t", "1"],
    ])
    def test_bad_value_is_config_error(self, tmp_path, capsys, flags):
        out = tmp_path / "x"
        assert_config_error(main(["sweep", *flags, "--out", str(out)]), capsys, out)


class TestTrainCommand:
    def test_writes_metrics_and_checkpoint(self, trained_dir):
        lines = (trained_dir / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == "step,loss,grad_norm,step_time_s"
        assert len(lines) == 1 + 3
        assert (trained_dir / "checkpoint.bin").is_file()
        echoed = json.loads((trained_dir / "config.json").read_text())
        assert echoed["command"] == "train" and echoed["kind"] == "v4"

    def test_rerun_byte_identical(self, tmp_path):
        args = ["train", "--kind", "v2", "--layers", "1", "--d-model", "8",
                "--seq-len", "8", "--batch", "2", "--steps", "2", "--seed", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("metrics.csv", "checkpoint.bin", "config.json"):
            assert read(a / name) == read(b / name), name

    @pytest.mark.parametrize("flags", [
        ["--kind", "v3", "--eps", "0"],
        ["--kind", "v4", "--eps", "-1"],
        ["--init-std", "-1"],
        ["--lr", "-1"],
        ["--adam-eps", "0"],
        ["--seed", "-1"],
    ])
    def test_bad_value_is_config_error(self, tmp_path, capsys, flags):
        out = tmp_path / "x"
        rc = main(["train", "--layers", "1", "--d-model", "8", "--seq-len", "8",
                   "--batch", "2", "--steps", "2", *flags, "--out", str(out)])
        assert_config_error(rc, capsys, out)

    def test_nonfinite_loss_exits_1(self, tmp_path, capsys, monkeypatch):
        real = microlm.forward_loss
        monkeypatch.setattr(microlm, "forward_loss",
                            lambda *args: (float("nan"), real(*args)[1]))
        out = tmp_path / "x"
        rc = main(["train", "--layers", "1", "--d-model", "8", "--seq-len", "8",
                   "--batch", "2", "--steps", "2", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: NonFiniteInput: loss is not finite at step 1\n")
        assert not (out / "metrics.csv").exists()
        assert not (out / "checkpoint.bin").exists()

    def test_flag_set_frozen(self):
        parsed = vars(build_parser().parse_args(["train"]))
        assert set(parsed) == TRAIN_FLAGS | {"command", "config"}

    def test_default_echo_is_train_config(self, tmp_path):
        out = tmp_path / "d"
        assert main(["train", "--steps", "0", "--out", str(out)]) == 0
        cfg = TrainConfig(corpus_path="", steps=0)
        fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)
                  if f.name not in ("corpus_path", "rope_base", "adam_betas")}
        fields["kind"] = cfg.kind.value
        beta1, beta2 = cfg.adam_betas
        assert json.loads((out / "config.json").read_text()) == {
            "command": "train", "corpus": "bundled", "wall_times": False,
            "beta1": beta1, "beta2": beta2, **fields}
        # the manifest keeps the config fields the model needs, the rest default
        _, saved, _ = load_checkpoint(out / "checkpoint.bin")
        assert saved == TrainConfig(corpus_path="")

    def test_missing_corpus_is_config_error(self, tmp_path, capsys):
        rc = main(["train", "--corpus", str(tmp_path / "nope.txt"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2


class TestEvalCommand:
    def test_prints_and_writes_ppl(self, trained_dir, tmp_path, capsys):
        text = tmp_path / "t.txt"
        text.write_text("the river and the stone and the light.\n" * 3)
        out = tmp_path / "ev"
        rc = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                   "--text", str(text), "--out", str(out)])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        stored = json.loads((out / "eval.json").read_text())
        assert printed == stored
        assert printed["ppl"] > 0

    def test_negative_seq_len_is_config_error(self, trained_dir, tmp_path, capsys):
        text = tmp_path / "t.txt"
        text.write_text("the river and the stone and the light.\n" * 3)
        out = tmp_path / "ev"
        rc = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                   "--text", str(text), "--seq-len", "-5", "--out", str(out)])
        assert_config_error(rc, capsys, out)

    def test_seq_len_override_used(self, trained_dir, tmp_path):
        text = tmp_path / "t.txt"
        text.write_text("the river and the stone and the light.\n" * 3)
        ppl = {}
        for seq_len in ("0", "8", "4"):
            out = tmp_path / seq_len
            assert main(["eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                         "--text", str(text), "--seq-len", seq_len, "--out", str(out)]) == 0
            ppl[seq_len] = json.loads((out / "eval.json").read_text())["ppl"]
        assert ppl["0"] == ppl["8"] != ppl["4"]  # the checkpoint was trained at 8

    def test_missing_checkpoint_exits_2(self, tmp_path):
        text = tmp_path / "t.txt"
        text.write_text("x" * 100)
        rc = main(["eval", "--checkpoint", str(tmp_path / "missing.bin"),
                   "--text", str(text), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("command", ["eval", "dump"])
    def test_corrupt_checkpoint_exits_1(self, trained_dir, tmp_path, capsys, command):
        whole = (trained_dir / "checkpoint.bin").read_bytes()
        text = tmp_path / "t.txt"
        text.write_text("the river and the stone and the light.\n" * 3)
        source = ["--text", str(text)] if command == "eval" else ["--prompt", "the"]
        blobs = [b"NOTACKPT" + whole[8:], whole[:700], whole[:-16], whole + b"\0",
                 b"SAXLM001" + (2).to_bytes(8, "little") + b"{}",
                 b"SAXLM001" + (200000).to_bytes(8, "little") + b"[" * 100000 + b"]" * 100000]
        blobs += [with_manifest(whole, edit) for edit in MANIFEST_EDITS]
        blobs += [with_param_entry(trained_dir, tmp_path, "h0.wq", value)
                  for value in (np.nan, np.inf, -np.inf)]
        for i, blob in enumerate(blobs):
            bad = tmp_path / f"bad{i}.bin"
            bad.write_bytes(blob)
            capsys.readouterr()
            rc = main([command, "--checkpoint", str(bad), *source,
                       "--out", str(tmp_path / f"o{i}")])
            err = capsys.readouterr().err
            assert rc == 1
            assert err.startswith("error: CheckpointError: ") and err.count("\n") == 1


class TestDumpCommand:
    def test_bad_prompt_is_config_error(self, trained_dir, tmp_path, capsys):
        """A bad --prompt to dump, or --text to eval, exits 2 without output."""
        ckpt = str(trained_dir / "checkpoint.bin")
        runs = [["dump", "--prompt", prompt]
                for prompt in ("", "the \x07")]  # TextTooShort, UnknownSymbol
        for name, body in (("unknown.txt", b"the river\x07 and the stone\n" * 3),
                           ("short.txt", b"the")):  # the checkpoint's window is 8
            (tmp_path / name).write_bytes(body)
            runs.append(["eval", "--text", str(tmp_path / name)])
        for i, (command, *source) in enumerate(runs):
            out = tmp_path / f"out{i}"
            capsys.readouterr()
            rc = main([command, "--checkpoint", ckpt, *source, "--out", str(out)])
            assert_config_error(rc, capsys, out)

    def test_other_library_error_keeps_exit_1(self, trained_dir, tmp_path, capsys):
        text = tmp_path / "t.txt"
        text.write_text("the river and the stone and the light.\n" * 3)
        params, cfg, vocab = load_checkpoint(trained_dir / "checkpoint.bin")
        rng = np.random.default_rng(0)
        cases = [
            # finite weights whose query projection overflows: ln1's output
            # sums to about d_model, so every q entry is about 8e308 = inf
            ("q contains NaN or Inf", {"h0.ln1.b": 1.0, "h0.wq": 1e308}, ["dump"]),
            # finite q and k whose dot products overflow
            ("attention scores contain NaN or Inf",
             {"h0.ln1.b": 1.0, "h0.wq": 1e160, "h0.wk": 1e160}, ["dump", "eval"]),
            # finite logits whose cross-entropy overflows
            ("perplexity is not finite",
             {"lnf.g": 1e307, "embed": rng.normal(size=params["embed"].shape)}, ["eval"]),
        ]
        for i, (why, edits, commands) in enumerate(cases):
            edited = {k: v.copy() for k, v in params.items()}
            for key, value in edits.items():
                edited[key][:] = value
            ckpt = tmp_path / f"edited{i}.bin"
            save_checkpoint(ckpt, edited, cfg, vocab)
            for command in commands:
                source = ["--text", str(text)] if command == "eval" else ["--prompt", "the"]
                out = tmp_path / f"out{i}-{command}"
                capsys.readouterr()
                with np.errstate(over="ignore", invalid="ignore"):
                    rc = main([command, "--checkpoint", str(ckpt), *source, "--out", str(out)])
                err = capsys.readouterr().err
                assert rc == 1
                assert err.startswith(f"error: NonFiniteInput: {why}") and err.count("\n") == 1
                assert not out.exists()

    def test_singleton_first_row(self, trained_dir, tmp_path):
        out = tmp_path / "dump"
        rc = main(["dump", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                   "--prompt", "th", "--out", str(out)])
        assert rc == 0
        body = (out / "attention_layer0.csv").read_text()
        first_row = body.split("\n")[0]
        # v4 on a positive singleton logit gives a weight within eps of 1;
        # a baseline checkpoint gives exactly 1.
        assert first_row.split(",")[1] == "0"

    def test_baseline_first_row_exact(self, tmp_path):
        out_train = tmp_path / "tr"
        assert main(["train", "--kind", "baseline", "--layers", "1", "--d-model", "8",
                     "--seq-len", "8", "--batch", "2", "--steps", "1", "--seed", "5",
                     "--out", str(out_train)]) == 0
        out = tmp_path / "dump"
        assert main(["dump", "--checkpoint", str(out_train / "checkpoint.bin"),
                     "--prompt", "th", "--out", str(out)]) == 0
        assert (out / "attention_layer0.csv").read_text().split("\n")[0] == "1,0"

    def test_rerun_byte_identical(self, trained_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["dump", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                         "--prompt", "the", "--out", str(out)]) == 0
            outs.append(read(out / "attention_layer0.csv"))
        assert outs[0] == outs[1]


class TestConfigHandling:
    def test_file_values_used_and_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gaps": "3", "t": 5, "kinds": "baseline"}))
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(cfg), "--kinds", "v1",
                     "--out", str(out)]) == 0
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["t"] == 5            # from file
        assert echoed["kinds"] == "v1"     # flag overrides file
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[1].split(",")[1] == "v1"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gapz": "3"}))
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "gapz" in capsys.readouterr().err

    def test_wrong_type_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t": "four"}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("key,value,ok", [
        ("lr", 1, True),          # a float key takes an int, stored as a float
        ("lr", 0.5, True),
        ("lr", True, False),      # only a bool key takes a bool
        ("layers", 1.0, False),
        ("layers", True, False),
        ("rope", 1, False),
        ("rope", False, True),
        ("kind", 4, False),
    ])
    def test_json_types(self, tmp_path, key, value, ok):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "x"
        rc = main(["train", "--config", str(cfg), "--d-model", "8", "--seq-len", "8",
                   "--batch", "2", "--steps", "0", "--out", str(out)])
        assert rc == (0 if ok else 2)
        if ok:
            echoed = json.loads((out / "config.json").read_text())[key]
            assert echoed == value
            assert type(echoed) is (float if key == "lr" else type(value))

    @pytest.mark.parametrize("command, float_key", [
        (["train", "--d-model", "8", "--seq-len", "8", "--batch", "2", "--steps", "0"], "lr"),
        (["gradcheck", "--samples", "1", "--tmax", "1"], "tol_rel"),
    ])
    @pytest.mark.parametrize("payload", ["float_overflow", "too_many_digits", "too_deep",
                                         "not_utf8"])
    def test_unreadable_file_is_config_error(self, tmp_path, capsys, command, float_key,
                                             payload):
        raw = {
            "float_overflow": f'{{"{float_key}": {"9" * 400}}}'.encode(),
            # past the interpreter's limit on digits in an int
            "too_many_digits": f'{{"{float_key}": {"9" * 5000}}}'.encode(),
            # nested past the recursion limit
            "too_deep": b"[" * 100_000 + b"]" * 100_000,
            "not_utf8": b"\xff\xfe{}",
        }[payload]
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(raw)
        out = tmp_path / "x"
        assert_config_error(main([*command, "--config", str(cfg), "--out", str(out)]),
                            capsys, out)

    def test_missing_required_out_rejected(self, capsys):
        assert main(["sweep"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--bogus", "1", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
