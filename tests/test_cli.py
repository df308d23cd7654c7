import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from rankqda import cli, load_model, predict, save_model
from rankqda.model_io import model_to_dict

DATA_DIR = Path(__file__).parent / "data"
TOY = DATA_DIR / "toy8.csv"


def run(*argv):
    return cli.main([str(a) for a in argv])


def test_synth_is_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        train, test = tmp_path / f"train_{tag}.csv", tmp_path / f"test_{tag}.csv"
        assert run("synth", "--p", 5, "--n-train", 100, "--n-test", 100, "--seed", 7,
                   "--out-train", train, "--out-test", test) == 0
        outs.append((train.read_bytes(), test.read_bytes()))
    assert outs[0] == outs[1]


def test_synth_rejects_boundary_prior(tmp_path, capsys):
    rc = run("synth", "--p", 5, "--n-train", 10, "--n-test", 10, "--seed", 7,
             "--pi1", 1.0, "--out-train", tmp_path / "a.csv", "--out-test", tmp_path / "b.csv")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "interior" in err


def test_synth_marginal_map_changes_features_not_labels(tmp_path):
    files = {}
    for marginal in ("identity", "cube"):
        train = tmp_path / f"train_{marginal}.csv"
        assert run("synth", "--p", 3, "--n-train", 50, "--n-test", 5, "--seed", 9,
                   "--marginal", marginal, "--out-train", train,
                   "--out-test", tmp_path / f"test_{marginal}.csv") == 0
        rows = train.read_text().splitlines()[1:]
        files[marginal] = np.array([[float(v) for v in row.split(",")] for row in rows])
    identity, cube = files["identity"], files["cube"]
    np.testing.assert_array_equal(identity[:, 3], cube[:, 3])  # labels
    np.testing.assert_array_equal(identity[:, :3] ** 3, cube[:, :3])


def test_synth_latent_flag_adds_columns(tmp_path):
    train = tmp_path / "train.csv"
    assert run("synth", "--p", 2, "--n-train", 10, "--n-test", 2, "--seed", 3,
               "--latent", "--out-train", train, "--out-test", tmp_path / "t.csv") == 0
    header = train.read_text().splitlines()[0]
    assert header == "x0,x1,label,s0,s1"


def test_bayes_risk_command_identical_classes(capsys):
    assert run("bayes-risk", "--p", 4, "--cov0", "identity", "--cov1", "identity",
               "--n", 20000, "--seed", 2) == 0
    out = capsys.readouterr().out
    risk = float(out.split("bayes_risk:")[1].split()[0])
    assert abs(risk - 0.5) < 0.02


def test_bayes_risk_prints_the_pinned_desk_line(capsys):
    assert run("bayes-risk", "--p", 10, "--seed", 7, "--cov0", "identity", "--cov1", "block:4:0.85",
               "--marginal", "cube", "--n", 50000) == 0
    assert capsys.readouterr().out == "bayes_risk: 0.12854 (std_error 0.0014967796658159143, n 50000)\n"


def test_train_matches_golden_model_file(tmp_path):
    out = tmp_path / "model.json"
    assert run("train", "--data", TOY, "--d", 2, "--b1", 1, "--b2", 1,
               "--seed", 7, "--model-out", out) == 0
    assert out.read_bytes() == (DATA_DIR / "toy8_model.json").read_bytes()


def test_train_fixed_alpha_recorded_exactly(tmp_path):
    out = tmp_path / "model.json"
    assert run("train", "--data", TOY, "--d", 2, "--b1", 1, "--b2", 1,
               "--alpha", 0.5, "--seed", 7, "--model-out", out) == 0
    doc = json.loads(out.read_text())
    assert doc["alpha"] == 0.5 and doc["config"]["alpha"] == 0.5


def test_train_rejects_non_binary_labels(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x0,label\n1.0,0\n2.0,2\n")
    rc = run("train", "--data", bad, "--d", 1, "--b1", 1, "--b2", 1,
             "--seed", 1, "--model-out", tmp_path / "m.json")
    assert rc == 1
    assert "labels must be 0/1" in capsys.readouterr().err


def test_predict_label_column_is_dropped_but_must_hold_0_1_labels(tmp_path, capsys):
    model = tmp_path / "m.json"
    assert run("train", "--data", TOY, "--d", 2, "--b1", 1, "--b2", 1, "--seed", 7, "--model-out", model) == 0
    bad = tmp_path / "bad.csv"
    bad.write_text("x0,x1,x2,label\n1.5,-0.2,3.1,0\n2.7,0.45,-1.2,2\n")
    capsys.readouterr()
    rc = run("predict", "--model", model, "--data", bad, "--label-col", "label", "--out", tmp_path / "p.csv")
    assert rc == 1
    assert capsys.readouterr().err == "error: labels must be 0/1; row 1 has 'label'=2\n"
    assert not (tmp_path / "p.csv").exists()
    with pytest.raises(SystemExit):
        run("predict", "--help")
    assert "it must hold 0/1 labels" in " ".join(capsys.readouterr().out.split())


def test_train_rejects_single_class(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x0,x1,label\n1.0,2.0,1\n2.0,1.0,1\n3.0,0.0,1\n")
    rc = run("train", "--data", bad, "--d", 1, "--b1", 1, "--b2", 1,
             "--seed", 1, "--model-out", tmp_path / "m.json")
    assert rc == 1
    assert "degenerate" in capsys.readouterr().err


def test_train_rejects_missing_label_column(tmp_path, capsys):
    rc = run("train", "--data", TOY, "--label-col", "target", "--d", 1,
             "--b1", 1, "--b2", 1, "--seed", 1, "--model-out", tmp_path / "m.json")
    assert rc == 1
    assert "label column" in capsys.readouterr().err


def test_train_rejects_missing_values(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x0,x1,label\n1.0,,0\n2.0,1.0,1\n")
    rc = run("train", "--data", bad, "--d", 1, "--b1", 1, "--b2", 1,
             "--seed", 1, "--model-out", tmp_path / "m.json")
    assert rc == 1
    assert "missing value at row 0" in capsys.readouterr().err


def test_eval_on_training_file_matches_recorded_error(tmp_path, capsys):
    out = tmp_path / "model.json"
    assert run("train", "--data", TOY, "--d", 2, "--b1", 1, "--b2", 1,
               "--alpha", 0.5, "--seed", 7, "--model-out", out) == 0
    recorded = json.loads(out.read_text())["blocks"][0]["train_error"]
    capsys.readouterr()
    assert run("eval", "--model", out, "--data", TOY) == 0
    lines = dict(
        line.split(": ") for line in capsys.readouterr().out.splitlines() if ": " in line
    )
    assert float(lines["error"]) == recorded
    tn, fp, fn, tp = (int(kv.split("=")[1]) for kv in lines["confusion"].split())
    assert tn + fp + fn + tp == 8
    assert (fp + fn) / 8 == recorded


def test_predict_writes_pred_and_vote_columns(tmp_path):
    model_path = tmp_path / "model.json"
    assert run("train", "--data", TOY, "--d", 2, "--b1", 3, "--b2", 2,
               "--seed", 4, "--model-out", model_path) == 0
    preds_path = tmp_path / "preds.csv"
    assert run("predict", "--model", model_path, "--data", TOY,
               "--label-col", "label", "--out", preds_path) == 0
    lines = preds_path.read_text().splitlines()
    assert lines[0] == "pred,vote"
    assert len(lines) == 9
    for line in lines[1:]:
        pred, vote = line.split(",")
        assert pred in ("0", "1")
        assert float(vote) * 3 == round(float(vote) * 3)


def test_predict_invariant_to_monotone_feature_maps(tmp_path):
    rows = TOY.read_text().splitlines()
    header, data = rows[0], [r.split(",") for r in rows[1:]]
    mapped = [header] + [
        ",".join([repr(float(np.exp(float(r[0])))), repr(float(r[1]) ** 3),
                  repr(5.0 * float(r[2]) - 2.0), r[3]])
        for r in data
    ]
    mapped_csv = tmp_path / "mapped.csv"
    mapped_csv.write_text("\n".join(mapped) + "\n")

    models, preds = {}, {}
    for name, path in (("plain", TOY), ("mapped", mapped_csv)):
        model_path = tmp_path / f"{name}.json"
        assert run("train", "--data", path, "--d", 2, "--b1", 4, "--b2", 2,
                   "--seed", 12, "--model-out", model_path) == 0
        out = tmp_path / f"{name}_preds.csv"
        assert run("predict", "--model", model_path, "--data", path,
                   "--label-col", "label", "--out", out) == 0
        preds[name] = out.read_bytes()
        models[name] = json.loads(model_path.read_text())
    assert preds["plain"] == preds["mapped"]
    assert models["plain"]["blocks"] == models["mapped"]["blocks"]


def test_predict_rejects_dimension_mismatch(tmp_path, capsys):
    bad = tmp_path / "narrow.csv"
    bad.write_text("x0,x1\n1.0,2.0\n")
    rc = run("predict", "--model", DATA_DIR / "toy8_model.json", "--data", bad,
             "--out", tmp_path / "p.csv")
    assert rc == 1
    assert "feature dimension mismatch: model expects p=3" in capsys.readouterr().err


def test_empty_data_file_is_an_error(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    rc = run("predict", "--model", DATA_DIR / "toy8_model.json", "--data", empty,
             "--out", tmp_path / "p.csv")
    assert rc == 1
    assert "empty data file" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_model_version_mismatch_rejected(tmp_path, capsys):
    doc = json.loads((DATA_DIR / "toy8_model.json").read_text())
    doc["version"] = 99
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    rc = run("eval", "--model", tampered, "--data", TOY)
    assert rc == 1
    assert "unsupported model format version" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [(b'{"format": ', "Expecting value"), (b'{"format": "\xff"}', "can't decode byte 0xff")],
    ids=["truncated", "undecodable"],
)
def test_broken_model_file_error_names_the_file(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    rc = run("predict", "--model", bad, "--data", TOY, "--out", tmp_path / "o.csv")
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and err.startswith(f"error: model file {bad}: ") and message in err
    assert not (tmp_path / "o.csv").exists()


def test_model_round_trip_preserves_predictions(tmp_path):
    model = load_model(DATA_DIR / "toy8_model.json")
    path = tmp_path / "again.json"
    save_model(model, path)
    reloaded = load_model(path)
    assert model_to_dict(model) == model_to_dict(reloaded)
    X = np.random.default_rng(1).standard_normal((100, 3))
    preds_a, votes_a = predict(model, X)
    preds_b, votes_b = predict(reloaded, X)
    np.testing.assert_array_equal(preds_a, preds_b)
    np.testing.assert_array_equal(votes_a, votes_b)


def _train_argv(tmp_path, data, *flags):
    return ["train", "--data", data, "--d", 2, "--b1", 1, "--b2", 1,
            "--model-out", tmp_path / "m.json", *flags]


def _synth_argv(tmp_path, *flags):
    return ["synth", "--p", 3, "--seed", 1, "--out-train", tmp_path / "a.csv",
            "--out-test", tmp_path / "b.csv", *flags]


def _csv(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    return path


ERROR_CASES = {
    "csv_row_field_count": (
        lambda tmp: _train_argv(tmp, _csv(tmp, "x0,x1,label\n1.0,2.0,0\n3.0,1\n"), "--seed", 1),
        "has 2 fields, expected 3",
    ),
    "csv_non_numeric_cell": (
        lambda tmp: _train_argv(tmp, _csv(tmp, "x0,x1,label\n1.0,abc,0\n"), "--seed", 1),
        "non-numeric value 'abc' at row 0, column 'x1'",
    ),
    "csv_non_finite_cell": (
        lambda tmp: _train_argv(tmp, _csv(tmp, "x0,x1,label\n1.0,2.0,0\nnan,1.0,1\n"), "--seed", 1),
        "non-finite value 'nan' at row 1, column 'x0'",
    ),
    "ridge_nan": (
        lambda tmp: _train_argv(tmp, TOY, "--seed", 7, "--ridge", "nan"),
        "ridge must be a finite number, got nan",
    ),
    "ridge_inf": (
        lambda tmp: _train_argv(tmp, TOY, "--seed", 7, "--ridge", "inf"),
        "ridge must be a finite number, got inf",
    ),
    "negative_seed": (
        lambda tmp: _train_argv(tmp, TOY, "--seed", -1),
        "seed must be an integer >= 0, got -1",
    ),
    "cov0_same": (
        lambda tmp: ["bayes-risk", "--p", 3, "--n", 100, "--seed", 1, "--cov0", "same"],
        "'same' is only valid for --cov1",
    ),
    "malformed_pwl_marginal": (
        lambda tmp: ["bayes-risk", "--p", 3, "--n", 100, "--seed", 1, "--marginal", "pwl:0:0,1"],
        "expected pwl:X:Y,X:Y,... got 'pwl:0:0,1'",
    ),
    "non_integer_flag": (
        lambda tmp: _train_argv(tmp, TOY, "--seed", 7, "--d", "two"),
        "argument --d: invalid int value: 'two'",
    ),
    "missing_required_flag": (
        lambda tmp: ["train", "--d", 2, "--b1", 1, "--b2", 1, "--seed", 7,
                     "--model-out", tmp / "m.json"],
        "the following arguments are required: --data",
    ),
    "unknown_subcommand": (
        lambda tmp: ["fit", "--data", TOY],
        "argument command: invalid choice: 'fit'",
    ),
    "unknown_projection": (
        lambda tmp: _train_argv(tmp, TOY, "--seed", 7, "--projection", "fourier"),
        "flavor must be one of ('gaussian', 'haar', 'axis'), got 'fourier'",
    ),
    "block_spec_without_rho": (
        lambda tmp: ["bayes-risk", "--p", 3, "--n", 100, "--seed", 1, "--cov1", "block:2"],
        "expected block:SIZE:RHO, got 'block:2'",
    ),
    "block_spec_non_integer_size": (
        lambda tmp: ["bayes-risk", "--p", 3, "--n", 100, "--seed", 1, "--cov1", "block:x:0.5"],
        "--cov1: expected block:SIZE:RHO, got 'block:x:0.5'",
    ),
    "block_spec_fractional_size": (
        lambda tmp: ["bayes-risk", "--p", 3, "--n", 100, "--seed", 1, "--cov1", "block:2.5:0.3"],
        "--cov1: expected block:SIZE:RHO, got 'block:2.5:0.3'",
    ),
    "block_spec_non_numeric_rho": (
        lambda tmp: ["bayes-risk", "--p", 3, "--n", 100, "--seed", 1, "--cov0", "block:2:abc"],
        "--cov0: expected block:SIZE:RHO, got 'block:2:abc'",
    ),
    "pwl_marginal_non_numeric_knot": (
        lambda tmp: ["bayes-risk", "--p", 3, "--n", 100, "--seed", 1, "--marginal", "pwl:a:1,2:3"],
        "--marginal: expected pwl:X:Y,X:Y,... got 'pwl:a:1,2:3'",
    ),
    "d_above_p_with_a_tiny_class": (
        lambda tmp: _train_argv(tmp, _csv(tmp, "x0,label\n1.0,0\n2.0,0\n0.5,1\n"), "--seed", 1),
        "projection needs 1 <= d <= p, got d=2, p=1",
    ),
    "unknown_covariance_spec": (
        lambda tmp: ["bayes-risk", "--p", 3, "--n", 100, "--seed", 1, "--cov0", "diagonal"],
        "unknown covariance spec 'diagonal'; use identity, random, block:SIZE:RHO, or same",
    ),
    "unknown_marginal_map": (
        lambda tmp: ["bayes-risk", "--p", 3, "--n", 100, "--seed", 1, "--marginal", "log"],
        "unknown marginal map 'log'; use ['cube', 'exp', 'identity'] or pwl:X:Y,X:Y,...",
    ),
    "ridge_not_a_number": (
        lambda tmp: _train_argv(tmp, TOY, "--seed", 7, "--ridge", "abc"),
        "--ridge must be a number or 'auto', got 'abc'",
    ),
    "alpha_not_a_number": (
        lambda tmp: _train_argv(tmp, TOY, "--seed", 7, "--alpha", "x"),
        "--alpha must be a number or 'auto', got 'x'",
    ),
    "block_size_above_p": (
        lambda tmp: ["bayes-risk", "--p", 3, "--n", 100, "--seed", 1,
                     "--cov0", "block:2:0.5", "--cov1", "block:9:0.5"],
        "--cov1: block size must lie in [0, 3], got 9",
    ),
    "block_not_positive_definite": (
        lambda tmp: ["bayes-risk", "--p", 3, "--n", 100, "--seed", 1, "--cov1", "block:2:1.5"],
        "--cov1: block correlation matrix must be positive definite",
    ),
    "pwl_marginal_not_increasing": (
        lambda tmp: ["bayes-risk", "--p", 3, "--n", 100, "--seed", 1, "--marginal", "pwl:1:1,0:0"],
        "--marginal: breakpoints must be strictly increasing",
    ),
    "pwl_marginal_infinite_knot": (
        lambda tmp: _synth_argv(tmp, "--n-train", 5, "--n-test", 5, "--marginal", "pwl:0:0,inf:1"),
        "--marginal: breakpoints must be finite",
    ),
    "pwl_marginal_overflowing_slope": (
        lambda tmp: _synth_argv(tmp, "--n-train", 5, "--n-test", 5, "--marginal", "pwl:0:0,1e-320:1"),
        "--marginal: breakpoints must give finite differences and end-segment slopes",
    ),
    "block_rho_nan": (
        lambda tmp: ["bayes-risk", "--p", 3, "--n", 100, "--seed", 1, "--cov1", "block:2:nan"],
        "--cov1: block correlation matrix has a non-finite value",
    ),
    "p_negative": (
        lambda tmp: ["bayes-risk", "--p", -1, "--n", 100, "--seed", 1, "--cov0", "identity"],
        "--p must be a positive integer, got -1",
    ),
    "p_zero": (
        lambda tmp: ["bayes-risk", "--p", 0, "--n", 100, "--seed", 1, "--cov0", "identity"],
        "--p must be a positive integer, got 0",
    ),
    "n_zero": (
        lambda tmp: ["bayes-risk", "--p", 3, "--n", 0, "--seed", 1],
        "--n must be a positive integer, got 0",
    ),
    "n_train_zero": (
        lambda tmp: _synth_argv(tmp, "--n-train", 0, "--n-test", 5),
        "--n-train must be a positive integer, got 0",
    ),
    "n_test_zero": (
        lambda tmp: _synth_argv(tmp, "--n-train", 5, "--n-test", 0),
        "--n-test must be a positive integer, got 0",
    ),
    "d_zero": (
        lambda tmp: _train_argv(tmp, TOY, "--seed", 1, "--d", 0),
        "error: --d must be a positive integer, got 0",
    ),
    "b1_zero": (
        lambda tmp: _train_argv(tmp, TOY, "--seed", 1, "--b1", 0),
        "error: --b1 must be a positive integer, got 0",
    ),
    "b2_negative": (
        lambda tmp: _train_argv(tmp, TOY, "--seed", 1, "--b2", -2),
        "error: --b2 must be a positive integer, got -2",
    ),
    "seed_negative_with_a_random_spec": (
        lambda tmp: ["bayes-risk", "--p", 3, "--n", 100, "--seed", -1, "--cov0", "random"],
        "error: --seed must be an integer >= 0, got -1",
    ),
    "synth_bayes_risk_flag_removed": (
        lambda tmp: _synth_argv(tmp, "--n-train", 5, "--n-test", 5, "--bayes-risk"),
        "unrecognized arguments: --bayes-risk",
    ),
    "csv_no_data_rows": (
        lambda tmp: ["predict", "--model", DATA_DIR / "toy8_model.json",
                     "--data", _csv(tmp, "x0,x1,x2\n"), "--out", tmp / "p.csv"],
        "no data rows in ",
    ),
    "csv_field_too_large": (
        lambda tmp: ["predict", "--model", DATA_DIR / "toy8_model.json",
                     "--data", _csv(tmp, "x0,x1,x2\n1.0,2.0," + "3" * 131073 + "\n"),
                     "--out", tmp / "p.csv"],
        "data.csv: field larger than field limit (131072)",
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_bad_input_exits_1_with_one_error_line(case, tmp_path, capsys):
    argv, message = ERROR_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(*argv(tmp_path))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command, listed", [
    ("train", "gaussian|haar|axis"),
    ("synth", "identity|exp|cube|pwl:X:Y,X:Y,..."),
    ("bayes-risk", "identity|exp|cube|pwl:X:Y,X:Y,..."),
])
def test_help_exits_0(capsys, command, listed):
    with pytest.raises(SystemExit) as exc:
        run(command, "--help")
    assert exc.value.code == 0
    assert listed in capsys.readouterr().out


def test_synth_cov1_same_writes_both_files(tmp_path):
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    assert run("synth", "--p", 3, "--n-train", 20, "--n-test", 10, "--seed", 4,
               "--cov1", "same", "--out-train", train, "--out-test", test) == 0
    assert [len(path.read_text().splitlines()) for path in (train, test)] == [21, 11]


def test_library_warnings_are_one_line_each_on_stderr(tmp_path, capsys):
    data = _csv(tmp_path, "x0,x1,label\n1.0,2.0,0\n2.5,0.5,0\n0.3,1.1,1\n1.7,-0.4,1\n")
    assert run(*_train_argv(tmp_path, data, "--seed", 1)) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: class {r} has only 2 samples for a 2-dimensional covariance; "
        "the estimate is rank-deficient without a ridge"
        for r in (0, 1)
    ]


def test_synth_reproduces_the_pinned_pwl_files(tmp_path):
    # identity covariances keep the latent draw free of BLAS/LAPACK rounding,
    # and the piecewise-linear map is plain IEEE arithmetic
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    assert run("synth", "--p", 3, "--n-train", 20, "--n-test", 5, "--seed", 7,
               "--cov0", "identity", "--cov1", "identity", "--marginal", "pwl:-1:-2,0:0,1:3",
               "--latent", "--out-train", train, "--out-test", test) == 0
    assert train.read_bytes() == (DATA_DIR / "synth_pwl_train.csv").read_bytes()
    assert test.read_bytes() == (DATA_DIR / "synth_pwl_test.csv").read_bytes()


def test_predict_reproduces_the_pinned_toy8_predictions(tmp_path):
    out = tmp_path / "preds.csv"
    assert run("predict", "--model", DATA_DIR / "toy8_model.json", "--data", TOY,
               "--label-col", "label", "--out", out) == 0
    assert out.read_bytes() == (DATA_DIR / "toy8_preds.csv").read_bytes()


def test_eval_prints_the_pinned_toy8_summary(capsys):
    assert run("eval", "--model", DATA_DIR / "toy8_model.json", "--data", TOY) == 0
    assert capsys.readouterr().out == (
        "n: 8\nalpha: 0.5\nerror: 0.375\nconfusion: tn=3 fp=1 fn=2 tp=2\n"
    )


def test_commands_print_what_they_wrote(tmp_path, capsys):
    # train's per-block lines are left unpinned; only its last two lines are
    preds, model = tmp_path / "preds.csv", tmp_path / "model.json"
    assert run("predict", "--model", DATA_DIR / "toy8_model.json", "--data", TOY,
               "--label-col", "label", "--out", preds) == 0
    assert capsys.readouterr().out == f"wrote 8 predictions to {preds}\n"
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    assert run("synth", "--p", 3, "--n-train", 20, "--n-test", 5, "--seed", 7,
               "--out-train", train, "--out-test", test) == 0
    assert capsys.readouterr().out == f"wrote 20 rows to {train}\nwrote 5 rows to {test}\n"
    assert run("train", "--data", TOY, "--d", 2, "--b1", 1, "--b2", 1, "--seed", 7, "--model-out", model) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["alpha: 0.5", f"wrote model to {model}"]


def test_the_module_entry_point_runs_main():
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "rankqda.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: rankqda")
