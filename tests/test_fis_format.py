"""Round-trip, golden-file and diagnostic behavior of the .fis codec."""

from pathlib import Path

import numpy as np
import pytest

import sensorval
from sensorval import default_system
from sensorval.fisfile import (
    format_number,
    load_fis,
    parse_fis,
    save_fis,
    serialize_fis,
    validate_fis,
)

from oracles import random_system

GOLDEN = Path(sensorval.__file__).parent / "data" / "confidence.fis"


def _parse_ok(text):
    result = parse_fis(text)
    assert result.ok, [str(d) for d in result.diagnostics]
    assert result.system is not None
    return result.system


def _errors(text):
    result = parse_fis(text)
    assert not result.ok
    return [d for d in result.diagnostics if d.severity == "error"]


# golden file


def test_serialize_default_matches_golden_bytes():
    assert serialize_fis(default_system()) == GOLDEN.read_text()


def test_golden_parses_clean_and_round_trips():
    result = parse_fis(GOLDEN.read_text())
    assert result.ok
    assert result.diagnostics == []
    assert result.system == default_system()


def test_serialize_is_deterministic():
    a = serialize_fis(default_system())
    b = serialize_fis(default_system())
    assert a == b
    assert a.endswith("\n")
    assert "\r" not in a


def test_load_save_round_trip(tmp_path):
    path = tmp_path / "sys.fis"
    save_fis(default_system(), path)
    result = load_fis(path)
    assert result.ok
    assert result.system == default_system()


# round-trip properties


def test_parse_serialize_fixpoint_on_random_systems():
    rng = np.random.default_rng(7)
    for _ in range(50):
        system = random_system(rng)
        text = serialize_fis(system)
        result = parse_fis(text)
        assert result.ok, [str(d) for d in result.diagnostics]
        assert result.system == system
        # serialize . parse is idempotent on canonical text
        assert serialize_fis(result.system) == text


def test_gaussian_term_line_format():
    text = serialize_fis(default_system())
    assert "MF1='Near':'gaussmf',[25 0]" in text


def test_format_number_is_lossless():
    for x in (0.0, 1.0, -3.5, 0.1, 1.0 / 3.0, 2.0**-40, 123456789.25):
        assert float(format_number(x)) == x
    assert format_number(1.0) == "1"
    assert format_number(0.5) == "0.5"


def test_minimal_three_input_document():
    text = (
        "[System]\n"
        "Name='confidence'\n"
        "Type='mamdani'\n"
        "NumInputs=3\n"
        "NumOutputs=1\n"
        "NumRules=1\n"
        "[Input1]\n"
        "Name='distance'\n"
        "Range=[0 400]\n"
        "NumMFs=1\n"
        "MF1='Near':'gaussmf',[25 0]\n"
        "[Input2]\n"
        "Name='Rate_of_Change'\n"
        "Range=[0 16]\n"
        "NumMFs=1\n"
        "MF1='Low':'trimf',[-8 0 8]\n"
        "[Input3]\n"
        "Name='Standard_Deviation'\n"
        "Range=[0 16]\n"
        "NumMFs=1\n"
        "MF1='Low':'trimf',[-8 0 8]\n"
        "[Output1]\n"
        "Name='confidence'\n"
        "Range=[0 1]\n"
        "NumMFs=1\n"
        "MF1='High':'gaussmf',[0.15 1]\n"
        "[Rules]\n"
        "1 1 1, 1 (1) : 1\n"
    )
    system = _parse_ok(text)
    assert len(system.inputs) == 3
    assert len(system.outputs) == 1
    assert [v.name for v in system.inputs] == [
        "distance",
        "Rate_of_Change",
        "Standard_Deviation",
    ]


def test_comments_and_blank_lines_are_skipped():
    text = GOLDEN.read_text()
    noisy = "% header comment\n\n" + text.replace(
        "[Rules]", "# rules below\n[Rules]"
    )
    assert _parse_ok(noisy) == default_system()


def test_number_forms_accepted():
    text = GOLDEN.read_text().replace("[25 0]", "[2.5e1 0.0]", 1)
    system = _parse_ok(text)
    assert system.inputs[0].terms[0][1].params == (25.0, 0.0)


# diagnostics


def test_numrules_mismatch_cites_rules_line():
    diags = _errors(GOLDEN.read_text().replace("NumRules=6", "NumRules=7"))
    assert any("NumRules" in d.message and d.line == 46 for d in diags)


def test_unknown_mf_type_is_error_with_line():
    diags = _errors(GOLDEN.read_text().replace("'gaussmf'", "'gbellmf'", 1))
    assert any("gbellmf" in d.message and d.line == 18 for d in diags)


def test_zero_sigma_is_error():
    diags = _errors(GOLDEN.read_text().replace("[25 0]", "[0 0]", 1))
    assert any("sigma" in d.message and d.line == 18 for d in diags)


def test_rule_term_out_of_range_is_error():
    diags = _errors(
        GOLDEN.read_text().replace("0 3 3, 1 (1) : 2", "0 3 9, 1 (1) : 2")
    )
    assert any("term 9" in d.message and d.line == 47 for d in diags)


def test_negated_consequent_is_error():
    diags = _errors(
        GOLDEN.read_text().replace("0 3 3, 1 (1) : 2", "0 3 3, -1 (1) : 2")
    )
    assert any("consequent" in d.message and d.line == 47 for d in diags)


def test_weight_out_of_range_is_error():
    diags = _errors(
        GOLDEN.read_text().replace("0 3 3, 1 (1) : 2", "0 3 3, 1 (1.5) : 2")
    )
    assert any("weight" in d.message and d.line == 47 for d in diags)


def test_unknown_key_is_warning_only():
    text = GOLDEN.read_text().replace("Version=2.0", "Version=2.0\nFlavor='mild'")
    result = parse_fis(text)
    assert result.ok
    assert result.system == default_system()
    warnings = [d for d in result.diagnostics if d.severity == "warning"]
    assert any("Flavor" in d.message and d.line == 5 for d in warnings)


def test_unsupported_defuzz_method_is_error():
    diags = _errors(
        GOLDEN.read_text().replace("DefuzzMethod='centroid'", "DefuzzMethod='bisector'")
    )
    assert any("bisector" in d.message and d.line == 12 for d in diags)


def test_corrupt_line_is_local():
    # one mangled MF line should not spill diagnostics into later sections
    text = GOLDEN.read_text().replace(
        "MF2='Mid':'gaussmf',[80 200]", "MF2='Mid':'gaussmf',[80"
    )
    result = parse_fis(text)
    assert not result.ok
    assert all(d.line is None or d.line <= 21 for d in result.diagnostics)


def test_validate_fis_default_is_empty():
    assert validate_fis(default_system()) == []


@pytest.mark.parametrize(
    "kind, params, message",
    [
        ("gaussian", (0.0, 0.0), "sigma"),
        ("triangular", (0.0, 1.0), "triangular takes 3 parameters, got 2"),
        ("sigmoid", (1.0, 0.0), "unknown membership function kind 'sigmoid'"),
    ],
    ids=["zero-sigma", "short-triangular", "unknown-kind"],
)
def test_validate_fis_flags_invariant_violations(kind, params, message):
    import dataclasses

    from sensorval import MembershipFunction, PipelineConfig
    from sensorval.pipeline import ConfigError

    base = default_system()
    var = base.inputs[0]
    broken_terms = (("Near", MembershipFunction(kind, params)),) + var.terms[1:]
    broken = dataclasses.replace(
        base, inputs=(dataclasses.replace(var, terms=broken_terms),) + base.inputs[1:]
    )
    diags = validate_fis(broken)
    assert any(d.severity == "error" and message in d.message for d in diags)
    assert all(d.line is None for d in diags)
    with pytest.raises(ConfigError, match="fuzzy system is invalid"):
        PipelineConfig(system=broken)
