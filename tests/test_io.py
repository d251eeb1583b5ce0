"""Outcome JSONL written from columns, against the row-by-row encoding,
and read back."""

import io
import json
import math
import pickle

import numpy as np
import pytest

from sensorval.io import ParseError, read_outcomes, read_stream, write_outcomes
from sensorval.pipeline import FLAG_NAMES, BatchResult, ValidationOutcome, flags_from_bits


def _columns(n, rng):
    """Rows with NaN and +-inf in every float field, odd sensor ids and
    every flag-bit pattern."""
    specials = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 0.1])

    def col():
        x = rng.normal(200.0, 50.0, n)
        pick = rng.integers(0, 40, n) < len(specials)
        x[pick] = rng.choice(specials, int(pick.sum()))
        return x

    patterns = 1 << len(FLAG_NAMES)
    flagbits = np.concatenate(
        [np.arange(patterns), rng.integers(0, patterns, n - patterns)]
    ).astype(np.uint16)
    sensors = ['plain', 'quote"d', "back\\slash", "new\nline", "café", "日本", "\U0001f4a7", ""]
    sids = [sensors[i] for i in rng.integers(0, len(sensors), n)]
    return BatchResult(col(), col(), col(), col(), rng.random(n) < 0.5, flagbits, [], sids)


def _dumps(res):
    return "".join(
        json.dumps(
            ValidationOutcome(
                float(res.timestamps[i]), sid, float(res.raw[i]), float(res.confidence[i]),
                float(res.accepted[i]), bool(res.reconstructed[i]),
                flags_from_bits(int(res.flagbits[i])),
            ).to_dict()
        )
        + "\n"
        for i, sid in enumerate(res.sensor_ids)
    )


def test_columns_are_written_as_json_dumps_writes_each_outcome():
    res = _columns(3000, np.random.default_rng(5))
    assert not np.isfinite(res.confidence).all() and not np.isfinite(res.timestamps).all()
    f = io.StringIO()
    write_outcomes(f, res)
    assert f.getvalue() == _dumps(res)



@pytest.mark.parametrize("line", ["5", "[1, 2]", '"text"', '{"raw": 1.0}'])
def test_read_outcomes_refuses_a_record_that_is_not_an_outcome_object(line):
    with pytest.raises(ParseError, match="line 2: outcome record lacks 'reconstructed'"):
        read_outcomes('{"reconstructed": false}\n' + line + "\n")


def test_parse_error_survives_pickling_with_its_message_and_line():
    # a parse error raised in another process reaches its parent pickled
    err = pickle.loads(pickle.dumps(ParseError("bad", 5)))
    assert type(err) is ParseError
    assert str(err) == "line 5: bad"
    assert err.line == 5


@pytest.mark.parametrize(
    "text",
    ["0,a,1\n1,a ,2\n2,b,3\n3,a,4\n", "".join(f'{{"timestamp": {i}, "sensor_id": "{s}", "value": 1}}\n' for i, s in enumerate("aaba"))],
    ids=["csv", "jsonl"],
)
def test_read_stream_keeps_one_str_per_sensor_id(text):
    # so that a pickled piece carries each name once
    _, sids, _ = read_stream(text)
    assert sids == ["a", "a", "b", "a"]
    assert sids[0] is sids[1] is sids[3]
