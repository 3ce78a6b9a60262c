"""The synth config file: its reader, its writer and the distribution families."""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from asnqual import synth
from asnqual.cli import main
from asnqual.ingest import APPLICATION_COLUMNS, MEDIAN_COLUMNS
from asnqual.synth import (
    MAX_PROFESSORS,
    ComponentModel,
    DecisionModel,
    DisciplinePlan,
    SynthConfig,
    default_synth_config,
)

# sha256 of default_synth_config().to_json(): the bundled config keeps its bytes
DEFAULT_CONFIG_SHA256 = "459f371a95034ab9ddd04c4cb54ea9a8661de593801316b35f18c0776d816d49"

REQUIRED = {
    "discipline": "05/A1",
    "n_full": 4,
    "n_associate": 6,
    "components": [
        {"family": "gamma", "params": [2.0, 1.5]},
        {"family": "poisson", "params": [3.0]},
        {"family": "constant", "params": [0.0]},
    ],
}


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_default_config_keeps_its_bytes():
    text = default_synth_config().to_json()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DEFAULT_CONFIG_SHA256


def test_a_plan_of_only_the_required_keys_takes_every_default():
    (plan,) = SynthConfig.from_json(json.dumps({"plans": [REQUIRED]})).plans
    optional = [f for f in fields(DisciplinePlan) if f.name not in REQUIRED]
    assert [f.name for f in optional] == [
        "decision", "professors", "flip_probability", "relaxed_quantile"
    ]
    for f in optional:
        assert getattr(plan, f.name) == f.default


def test_a_missing_required_key_is_malformed():
    for key in REQUIRED:
        partial = {k: v for k, v in REQUIRED.items() if k != key}
        with pytest.raises(ValueError, match=f"malformed synth config: .*'{key}'"):
            SynthConfig.from_json(json.dumps({"plans": [partial]}))


def test_an_unknown_plan_key_exits_1_naming_the_config_and_the_key(tmp_path, capsys):
    config = write_config(tmp_path, {"plans": [{**REQUIRED, "profesors": 5}]})
    out = tmp_path / "round"
    assert main(["synth", "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: "), err
    assert "unknown plan key(s) 'profesors'" in err
    assert not out.exists()


def test_a_config_without_plans_writes_a_round_of_headers_only(tmp_path):
    config = write_config(tmp_path, {"plans": []})
    assert main(["synth", "--config", config, "--out", str(tmp_path / "round")]) == 0
    for name, header in (("applications.csv", APPLICATION_COLUMNS), ("medians.csv", MEDIAN_COLUMNS)):
        assert (tmp_path / "round" / name).read_text(encoding="utf-8") == ",".join(header) + "\n"


def test_an_unknown_component_key_is_malformed():
    components = [{**REQUIRED["components"][0], "shape": 2.0}, *REQUIRED["components"][1:]]
    with pytest.raises(ValueError, match="malformed synth config: .*'shape'"):
        SynthConfig.from_json(json.dumps({"plans": [{**REQUIRED, "components": components}]}))


def test_a_config_that_is_not_utf8_names_its_file(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"plans": [\xff]}')
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "round")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: "), err
    assert "can't decode byte 0xff" in err


def test_a_config_nested_past_the_recursion_limit_exits_1_naming_its_file(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "round")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: malformed synth config: "), err
    assert not (tmp_path / "round").exists()


FAMILIES = {
    "lognormal": st.tuples(st.floats(-3, 3), st.floats(0.01, 2)),
    "gamma": st.tuples(st.floats(0.01, 10), st.floats(0.01, 10)),
    "uniform": st.tuples(st.floats(0, 5), st.floats(0.01, 5)).map(lambda p: (p[0], p[0] + p[1])),
    "poisson": st.tuples(st.floats(0, 50)),
    "constant": st.tuples(st.floats(0, 50)),
}


@st.composite
def components(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    return ComponentModel(family, draw(FAMILIES[family]))


@st.composite
def configs(draw):
    codes = draw(st.lists(st.sampled_from(["01/A1", "05/A1", "08/C1", "12/A1", "13/A5"]),
                          min_size=1, max_size=4, unique=True))
    return SynthConfig(tuple(
        DisciplinePlan(
            code,
            draw(st.integers(0, 50)),
            draw(st.integers(0, 50)),
            tuple(draw(components()) for _ in range(3)),
            decision=draw(st.sampled_from(DecisionModel)),
            professors=draw(st.integers(1, MAX_PROFESSORS)),
            flip_probability=draw(st.floats(0, 1)),
            relaxed_quantile=draw(st.floats(0.001, 0.999)),
        )
        for code in codes
    ))


@given(configs())
def test_config_json_round_trips(config):
    assert SynthConfig.from_json(config.to_json()) == config


def test_the_round_trip_draws_every_family():
    assert FAMILIES.keys() == synth._FAMILIES.keys()


@pytest.mark.parametrize("family, params, message", [
    ("lognormal", (1.0, 0.0), "lognormal sigma must be positive"),
    ("gamma", (0.0, 1.0), "gamma shape and scale must be positive"),
    ("gamma", (1.0, -1.0), "gamma shape and scale must be positive"),
    ("uniform", (3.0, 3.0), "uniform needs 0 <= low < high"),
    ("uniform", (-1.0, 3.0), "uniform needs 0 <= low < high"),
    ("poisson", (-0.5,), "poisson rate must be nonnegative"),
    ("constant", (-1.0,), "constant value must be nonnegative"),
])
def test_each_family_checks_its_parameters(family, params, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ComponentModel(family, params)


@pytest.mark.parametrize("family, params", [
    # a string was taken one character at a time: lognormal(1.0, 2.0)
    ("lognormal", "12"),
    ("lognormal", b"12"),
    # true was taken by float(): poisson(1.0)
    ("poisson", (True,)),
    # text was taken by float(): poisson(2.0)
    ("poisson", ["2"]),
])
def test_a_component_model_takes_only_numbers_as_parameters(family, params):
    with pytest.raises(ValueError, match=f"^{family} parameters must be numbers, got "):
        ComponentModel(family, params)


def test_a_numpy_integer_parameter_is_a_number():
    assert ComponentModel("poisson", (np.int64(3),)).params == (3.0,)


def test_save_creates_its_directory_and_leaves_no_part_file(tmp_path):
    config = default_synth_config()
    path = tmp_path / "a" / "b" / "config.json"
    config.save(path)
    assert SynthConfig.load(path) == config
    assert path.read_text(encoding="utf-8") == config.to_json()
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["config.json"]


def test_synth_with_the_default_config_file_matches_synth_without_one(tmp_path):
    config = tmp_path / "default.json"
    config.write_text(default_synth_config().to_json(), encoding="utf-8")
    assert main(["synth", "--out", str(tmp_path / "bundled")]) == 0
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "from_file")]) == 0
    names = ["applications.csv", "medians.csv", "registry.csv"]
    assert sorted(p.name for p in (tmp_path / "from_file").iterdir()) == names
    for name in names:
        written = (tmp_path / "from_file" / name).read_bytes()
        assert written == (tmp_path / "bundled" / name).read_bytes()


def with_component(index, **changes):
    components = list(REQUIRED["components"])
    components[index] = {**components[index], **changes}
    return {**REQUIRED, "components": components}


@pytest.mark.parametrize("plan, key", [
    # a string was taken one character at a time: lognormal(1.0, 2.0)
    (with_component(0, family="lognormal", params="12"), "params"),
    # text and true were taken by float(): gamma(2.0, 1.0)
    (with_component(0, params=["2", True]), "params"),
    ({**REQUIRED, "flip_probability": "0.1"}, "flip_probability"),
    ({**REQUIRED, "flip_probability": True}, "flip_probability"),
    ({**REQUIRED, "relaxed_quantile": "0.5"}, "relaxed_quantile"),
])
def test_a_config_number_given_as_text_or_a_bool_exits_1_naming_the_key(tmp_path, capsys, plan, key):
    config = write_config(tmp_path, {"plans": [plan]})
    out = tmp_path / "round"
    assert main(["synth", "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: "), err
    assert key in err
    assert not out.exists()


def test_a_whole_float_field_given_as_an_integer_loads_as_a_float():
    (plan,) = SynthConfig.from_json(json.dumps({"plans": [{**REQUIRED, "flip_probability": 0}]})).plans
    assert plan.flip_probability == 0.0 and isinstance(plan.flip_probability, float)


def test_a_padded_discipline_code_synthesizes_the_round_of_the_stripped_one(tmp_path):
    default = default_synth_config().to_json()
    padded = default.replace('"01/A1"', '"01/A1 "').replace('"02/A1"', '" 02/A1"')
    assert padded != default
    assert SynthConfig.from_json(padded) == default_synth_config()
    config = tmp_path / "padded.json"
    config.write_text(padded, encoding="utf-8")
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "padded")]) == 0
    assert main(["synth", "--out", str(tmp_path / "bundled")]) == 0
    for name in ("applications.csv", "medians.csv", "registry.csv"):
        written = (tmp_path / "padded" / name).read_bytes()
        assert written == (tmp_path / "bundled" / name).read_bytes()


def test_a_padded_code_beside_the_same_code_is_a_duplicate_plan():
    plans = [{**REQUIRED, "discipline": " 01/B1"}, {**REQUIRED, "discipline": "01/B1"}]
    with pytest.raises(ValueError, match="duplicate discipline plans"):
        SynthConfig.from_json(json.dumps({"plans": plans}))
