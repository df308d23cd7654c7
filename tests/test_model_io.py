"""Model files are validated at load; a malformed one is one ``error:`` line."""

import copy
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from rankqda import (
    EnsembleConfig,
    cli,
    load_model,
    model_io,
    qda,
    save_model,
    train_ensemble,
    vote_fractions,
)
from rankqda.model_io import model_from_dict, model_to_dict
from rankqda.rng import substream

DATA_DIR = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA_DIR / "toy8_model.json").read_text())


def _two_blocks(doc):
    doc["config"]["b1"] = 2
    doc["blocks"].append(copy.deepcopy(doc["blocks"][0]))


def _alpha_five(doc):
    doc["alpha"] = 5


def _square_matrix_in_p3_model(doc):
    doc["blocks"][0]["matrix"] = [[1.0, 0.0], [0.0, 1.0]]


def _second_block_other_d(doc):
    _two_blocks(doc)
    doc["blocks"][1]["matrix"] = doc["blocks"][1]["matrix"][:1]


def _cov_wrong_shape(doc):
    doc["blocks"][0]["cov1"] = np.eye(3).tolist()


def _nan_in_matrix(doc):
    doc["blocks"][0]["matrix"][1][2] = float("nan")


def _infinite_prior(doc):
    doc["blocks"][0]["prior1"] = float("inf")


def _string_prior(doc):
    doc["blocks"][0]["prior0"] = "0.5"


def _reversed_marginal_column(doc):
    doc["marginals"]["columns"][1].reverse()


def _short_marginal_column(doc):
    doc["marginals"]["columns"][2].pop()


def _missing_marginal_column(doc):
    doc["marginals"]["columns"].pop()


def _no_training_rows(doc):
    doc["marginals"]["n"] = 0
    doc["marginals"]["columns"] = [[], [], []]


def _boolean_alpha(doc):
    doc["alpha"] = True


def _boolean_sample_count(doc):
    doc["marginals"]["n"] = True


def _fewer_blocks_than_b1(doc):
    doc["config"]["b1"] = 2


def _missing_alpha(doc):
    del doc["alpha"]


def _missing_cov0(doc):
    del doc["blocks"][0]["cov0"]


def _string_d(doc):
    doc["config"]["d"] = "2"


def _priors_not_summing_to_one(doc):
    doc["blocks"][0]["prior0"] = 0.7


def _singular_cov0(doc):
    doc["blocks"][0]["cov0"] = [[1.0, 1.0], [1.0, 1.0]]


def _numeric_block_flavor(doc):
    doc["blocks"][0]["flavor"] = 5


def _string_candidate(doc):
    doc["blocks"][0]["candidate"] = "x"


def _candidate_past_b2(doc):
    doc["blocks"][0]["candidate"] = 1


def _stream_of_strings(doc):
    doc["blocks"][0]["stream"] = ["a", "b"]


def _train_error_above_one(doc):
    doc["blocks"][0]["train_error"] = 3


def _boolean_version(doc):
    doc["version"] = True


def _float_version(doc):
    doc["version"] = 1.0


def _bad_flavor_then_singular_block(doc):
    _two_blocks(doc)
    doc["blocks"][0]["flavor"] = "fourier"
    doc["blocks"][1]["cov0"] = [[1.0, 1.0], [1.0, 1.0]]


def _negative_seed(doc):
    doc["config"]["seed"] = -1


def _negative_block_ridge(doc):
    doc["blocks"][0]["ridge"] = -1.0


def _asymmetric_cov0(doc):
    doc["blocks"][0]["cov0"][0][1] = 5.0


def _nan_in_cov0(doc):
    doc["blocks"][0]["cov0"][0][1] = float("nan")


def _infinite_marginal_value(doc):
    doc["marginals"]["columns"][0][-1] = float("inf")


def _d_above_n_features(doc):
    doc["config"]["d"] = 4
    block = doc["blocks"][0]
    block["matrix"] = np.eye(4, 3).tolist()
    block["cov0"] = block["cov1"] = np.eye(4).tolist()


def _wrong_format(doc):
    doc["format"] = "x"


def _blocks_object(doc):
    doc["blocks"] = {}


def _string_matrix(doc):
    doc["blocks"][0]["matrix"] = [["a", "b", "c"], ["d", "e", "f"]]


def _string_in_matrix(doc):
    doc["blocks"][0]["matrix"][0][1] = "0.5"


def _string_in_marginal_column(doc):
    doc["marginals"]["columns"][1][0] = str(doc["marginals"]["columns"][1][0])


def _boolean_in_cov0(doc):
    doc["blocks"][0]["cov0"][0][0] = True


def _huge_integer_in_cov1(doc):
    doc["blocks"][0]["cov1"][1][1] = 10**400


def _string_stream(doc):
    doc["blocks"][0]["stream"] = "ab"


CASES = {
    "alpha_out_of_range": (_alpha_five, "alpha must lie in [0, 1]"),
    "boolean_alpha": (_boolean_alpha, "alpha must be a finite number, got True"),
    "block_matrix_shape": (
        _square_matrix_in_p3_model, "block 0 matrix has shape (2, 2), expected (2, 3)"
    ),
    "blocks_disagree_on_d": (_second_block_other_d, "block 1 matrix has shape (1, 3)"),
    "covariance_shape": (_cov_wrong_shape, "block 0 cov1 has shape (3, 3), expected (2, 2)"),
    "non_finite_matrix": (_nan_in_matrix, "block 0: projection matrix has a non-finite value"),
    "non_finite_prior": (_infinite_prior, "block 0: prior1 must be a finite number, got inf"),
    "string_prior": (_string_prior, "block 0: prior0 must be a finite number, got '0.5'"),
    "unsorted_marginal_column": (_reversed_marginal_column, "marginal column 1 is not sorted"),
    "marginal_column_length": (
        _short_marginal_column, "marginal column 2 has 7 values, expected n=8"
    ),
    "marginal_column_count": (
        _missing_marginal_column, "marginals have 2 columns, expected n_features=3"
    ),
    "block_count": (_fewer_blocks_than_b1, "model has 1 blocks, expected b1=2"),
    "empty_marginals": (_no_training_rows, "marginals.n must be a positive integer, got 0"),
    "boolean_sample_count": (
        _boolean_sample_count, "marginals.n must be a positive integer, got True"
    ),
    "missing_alpha": (_missing_alpha, "model file has no field 'alpha'"),
    "missing_block_cov0": (_missing_cov0, "blocks[0] has no field 'cov0'"),
    "string_d": (_string_d, "config.d must be a positive integer, got '2'"),
    "priors_not_summing_to_one": (
        _priors_not_summing_to_one,
        "block 0: priors must lie in (0, 1) and sum to 1, got prior0=0.7, prior1=0.5",
    ),
    "singular_cov0": (
        _singular_cov0, "block 0: class 0 covariance (ridge=6.43692e-07) is not positive definite"
    ),
    "numeric_block_flavor": (
        _numeric_block_flavor, "block 0: flavor must be one of ('gaussian', 'haar', 'axis'), got 5"
    ),
    "string_candidate": (_string_candidate, "block 0: candidate must be an integer >= 0, got 'x'"),
    "candidate_past_b2": (_candidate_past_b2, "block 0 candidate must be < b2=1, got 1"),
    "stream_of_strings": (
        _stream_of_strings, "block 0: stream entry must be an integer >= 0, got 'a'"
    ),
    "train_error_above_one": (
        _train_error_above_one, "block 0: train_error must lie in [0, 1], got 3"
    ),
    "boolean_version": (_boolean_version, "unsupported model format version True"),
    "float_version": (_float_version, "unsupported model format version 1.0"),
    "first_bad_block": (
        _bad_flavor_then_singular_block, "block 0: flavor must be one of ('gaussian', 'haar', 'axis'), got 'fourier'"
    ),
    "negative_seed": (_negative_seed, "config.seed must be an integer >= 0, got -1"),
    "negative_block_ridge": (_negative_block_ridge, "block 0: ridge must be >= 0, got -1.0"),
    "asymmetric_cov0": (_asymmetric_cov0, "block 0: class 0 covariance is not symmetric"),
    "non_finite_cov0": (
        _nan_in_cov0, "block 0: class 0 covariance (ridge=6.43692e-07) has a non-finite value"
    ),
    "infinite_marginal_value": (
        _infinite_marginal_value, "marginal column 0 has a non-finite value"
    ),
    "d_above_n_features": (
        _d_above_n_features, "model needs d <= n_features, got d=4, n_features=3"
    ),
    "wrong_format": (_wrong_format, "not a rankqda-ensemble file (format='x')"),
    "blocks_object": (_blocks_object, "blocks must be a JSON list, got dict"),
    "string_matrix": (_string_matrix, "block 0 matrix is not a numeric array"),
    "string_stream": (_string_stream, "block 0 stream must be a JSON list, got str"),
    "string_in_matrix": (_string_in_matrix, "block 0 matrix is not a numeric array"),
    "string_in_marginal_column": (_string_in_marginal_column, "marginal columns is not a numeric array"),
    "boolean_in_cov0": (_boolean_in_cov0, "block 0 cov0 is not a numeric array"),
    "huge_integer_in_cov1": (_huge_integer_in_cov1, "block 0 cov1 is not a numeric array"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_model_rejected_with_one_error_line(case, tmp_path, capsys):
    tamper, message = CASES[case]
    doc = copy.deepcopy(GOLDEN)
    tamper(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))

    with pytest.raises(ValueError, match=re.escape(message)):
        model_from_dict(doc)

    rc = cli.main(["predict", "--model", str(path), "--data", str(DATA_DIR / "toy8.csv"),
                   "--label-col", "label", "--out", str(tmp_path / "p.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err
    assert not (tmp_path / "p.csv").exists()


def test_valid_multi_block_document_loads(tmp_path):
    doc = copy.deepcopy(GOLDEN)
    _two_blocks(doc)
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    model = load_model(path)
    assert model.b1 == 2
    assert model.stacked_projection.shape == (3, 4)


def test_document_that_is_a_list_rejected_with_one_error_line(tmp_path, capsys):
    # CASES tamper a copy of the golden object in place; this one replaces it
    message = "model file must be a JSON object, got list"
    with pytest.raises(ValueError, match=re.escape(message)):
        model_from_dict([GOLDEN])

    path = tmp_path / "list.json"
    path.write_text(json.dumps([GOLDEN]))
    rc = cli.main(["predict", "--model", str(path), "--data", str(DATA_DIR / "toy8.csv"),
                   "--label-col", "label", "--out", str(tmp_path / "p.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


def test_config_of_numpy_scalars_saves_and_reloads_to_an_equal_model(tmp_path):
    rng = substream(11)
    labels = np.repeat([0, 1], 20)
    X = rng.standard_normal((40, 4)) * np.where(labels == 1, 2.0, 1.0)[:, None]
    config = EnsembleConfig(d=np.int64(3), b1=np.int64(2), b2=2, alpha=np.float32(0.5),
                            seed=np.int32(3))
    model = train_ensemble(X, labels, config)
    path = tmp_path / "model.json"
    save_model(model, path)
    reloaded = load_model(path)
    assert model_to_dict(reloaded) == model_to_dict(model)
    np.testing.assert_array_equal(vote_fractions(reloaded, X), vote_fractions(model, X))


def test_failed_save_leaves_an_existing_file_untouched(tmp_path, monkeypatch):
    model = load_model(DATA_DIR / "toy8_model.json")
    path = tmp_path / "model.json"
    path.write_bytes(b"previous contents")
    monkeypatch.setattr(model_io, "model_to_dict", lambda m: {"alpha": object()})
    with pytest.raises(TypeError):
        save_model(model, path)
    assert path.read_bytes() == b"previous contents"


def test_numpy_integer_block_metadata_saves_as_plain_ints(tmp_path):
    model = load_model(DATA_DIR / "toy8_model.json")
    block = model.blocks[0]
    stream = tuple(np.int64(v) for v in block.projection.stream)
    numpy_block = dataclasses.replace(
        block,
        candidate=np.int64(block.candidate),
        projection=dataclasses.replace(block.projection, stream=stream),
    )
    numpy_model = dataclasses.replace(model, blocks=[numpy_block])
    save_model(model, tmp_path / "plain.json")
    save_model(numpy_model, tmp_path / "numpy.json")
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_hand_built_model_with_float32_priors_saves_and_reloads_to_an_equal_model(tmp_path):
    model = load_model(DATA_DIR / "toy8_model.json")
    block = model.blocks[0]
    priors = np.float32(0.5), np.float32(0.5)
    numpy_block = dataclasses.replace(
        block, model=qda.RqdaModel(*priors, block.model.cov0, block.model.cov1, block.model.ridge)
    )
    numpy_model = dataclasses.replace(model, blocks=[numpy_block])
    save_model(numpy_model, tmp_path / "model.json")
    assert model_to_dict(load_model(tmp_path / "model.json")) == model_to_dict(numpy_model)


def test_file_whose_alpha_is_the_top_threshold_loads():
    doc = copy.deepcopy(GOLDEN)
    b1 = doc["config"]["b1"]
    doc["alpha"] = (b1 + 0.5) / b1
    model = model_from_dict(doc)
    assert model.alpha == 1.5
    assert model_to_dict(model) == doc


def test_numpy_float_train_error_saves_as_a_plain_float(tmp_path):
    model = load_model(DATA_DIR / "toy8_model.json")
    block = model.blocks[0]
    value = np.float32(block.train_error)
    numpy_model = dataclasses.replace(model, blocks=[dataclasses.replace(block, train_error=value)])
    plain_model = dataclasses.replace(model, blocks=[dataclasses.replace(block, train_error=float(value))])
    save_model(plain_model, tmp_path / "plain.json")
    save_model(numpy_model, tmp_path / "numpy.json")
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
