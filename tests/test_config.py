import json

import pytest

from bridgeguard.classify import CLASSIFIERS
from bridgeguard.config import ENV_RPC_URL, RunConfig, config_from_dict, resolve_config
from bridgeguard.errors import InvalidConfig
from bridgeguard.features import DEFAULT_SIGNATURES


def test_defaults():
    cfg = resolve_config(env={})
    assert cfg.wl_iterations == 2
    assert cfg.embedding_dim == 16
    assert cfg.classifier == "knn"
    assert cfg.split_ratio == 0.7
    assert cfg.runs == 10


def test_precedence_flags_over_env_over_file(tmp_path):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"rpc_url": "http://file", "k": 3, "seed": 9}))

    cfg = resolve_config(config_file, env={})
    assert cfg.rpc_url == "http://file" and cfg.k == 3 and cfg.seed == 9

    cfg = resolve_config(config_file, env={ENV_RPC_URL: "http://env"})
    assert cfg.rpc_url == "http://env"

    cfg = resolve_config(config_file, env={ENV_RPC_URL: "http://env"},
                         rpc_url="http://flag", seed=1)
    assert cfg.rpc_url == "http://flag"
    assert cfg.seed == 1
    assert cfg.k == 3  # untouched file value survives


def test_unknown_file_keys_rejected(tmp_path):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"not_a_key": 1}))
    with pytest.raises(InvalidConfig):
        resolve_config(config_file, env={})
    config_file.write_text("{bad json")
    with pytest.raises(InvalidConfig):
        resolve_config(config_file, env={})


def test_config_hash_tracks_values():
    a = RunConfig(seed=1)
    b = RunConfig(seed=1)
    c = RunConfig(seed=2)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert len(a.config_hash()) == 16


@pytest.mark.parametrize("values", [{"k": "5"}, {"k": True}])
def test_value_of_the_wrong_type_rejected_naming_key_and_source(tmp_path, values):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(values))
    with pytest.raises(InvalidConfig, match=r"config\.json: k must be int"):
        resolve_config(config_file, env={})
    with pytest.raises(InvalidConfig, match="bundle.json: k "):
        config_from_dict(values, "bundle.json")


@pytest.mark.parametrize("values", [{"learning_rate": 1}, {"max_depth": None}])
def test_int_for_float_and_null_for_optional_accepted(tmp_path, values):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(values))
    cfg = resolve_config(config_file, env={})
    ((key, value),) = values.items()
    assert getattr(cfg, key) == value


def test_int_for_float_hashes_like_the_float():
    as_int = config_from_dict({"learning_rate": 1}, "a.json")
    as_float = config_from_dict({"learning_rate": 1.0}, "b.json")
    assert type(as_int.learning_rate) is float
    assert as_int.config_hash() == as_float.config_hash()
    with pytest.raises(InvalidConfig, match="learning_rate must be float"):
        config_from_dict({"learning_rate": True}, "c.json")


def test_default_config_hash_is_stable():
    # The default hash is inside pinned train-eval metrics digests.
    assert RunConfig().config_hash() == "9a18485db4294495"


@pytest.mark.parametrize("key, value", [
    ("wl_iterations", 0), ("epochs", 0), ("epochs", -1), ("negative", -1),
    ("embedding_dim", 8), ("learning_rate", 0), ("learning_rate", -0.025),
    ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ("classifier", "svm"), ("classifier", ""), ("k", 0), ("k", -1),
    ("max_depth", 0), ("max_depth", -3), ("min_samples_leaf", 0),
    ("min_samples_leaf", -2), ("split_ratio", 0), ("split_ratio", 1),
    ("split_ratio", 1.5), ("split_ratio", -0.5), ("split_ratio", float("nan")),
    ("runs", 0), ("runs", -1),
    # topic0 must be in ingest's normalized form, or it never matches a log.
    ("signatures", {"0x" + "AB" * 32: "deposit"}), ("signatures", {"x": "Deposit"}),
    ("signatures", {"0x" + "ab" * 31: "deposit"}), ("signatures", {"0x" + "ab" * 32: "Deposit"}),
    ("signatures", {"ab" * 33: "withdrawal"}), ("signatures", {"0x" + "ab" * 32: None}),
    ("seed", -1),
    pytest.param("learning_rate", 10**400, id="learning_rate-int-too-large-for-a-float"),
])
def test_value_out_of_range_rejected_naming_key(key, value):
    with pytest.raises(InvalidConfig, match=f"c.json: {key} must be "):
        config_from_dict({key: value}, "c.json")


def test_range_edges_accepted():
    cfg = config_from_dict({"wl_iterations": 1, "epochs": 1, "negative": 0,
                            "embedding_dim": 16, "learning_rate": 1e-9, "k": 1,
                            "max_depth": 1, "min_samples_leaf": 1, "split_ratio": 1e-9,
                            "runs": 1, "seed": 0}, "c.json")
    assert (cfg.wl_iterations, cfg.epochs, cfg.negative) == (1, 1, 0)
    assert (cfg.k, cfg.max_depth, cfg.min_samples_leaf, cfg.runs, cfg.seed) == (1, 1, 1, 1, 0)
    assert config_from_dict({"split_ratio": 1 - 1e-9}, "c.json").split_ratio == 1 - 1e-9
    assert config_from_dict({"max_depth": None}, "c.json").max_depth is None
    for kind in CLASSIFIERS:
        assert config_from_dict({"classifier": kind}, "c.json").classifier == kind
    for signatures in ({}, {"0x" + "ab" * 32: "withdrawal"}, dict(DEFAULT_SIGNATURES)):
        assert config_from_dict({"signatures": signatures}, "c.json").signatures == signatures
