import json

import pytest

from check import capture, compare

SWEEP_CSV = (
    "partition,dim,class_size,ln_dim_sq,ln_class\n"
    '"[3]",1,2,0,0.69314718056\n'
    '"[2,1]",2,3,1.38629436112,1.09861228867\n'
    '"[1,1,1]",1,1,0,0\n'
).encode()


def _json_table(rows):
    meta = {"invocation": "sym sweep --n 3 --format json", "version": "0.1.0", "seed": None}
    return (json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n").encode()


SWEEP_JSON = _json_table([
    {"partition": "[3]", "dim": "1", "class_size": "2", "ln_dim_sq": 0.0, "ln_class": 0.69314718056},
    {"partition": "[2,1]", "dim": "2", "class_size": "3", "ln_dim_sq": 1.38629436112, "ln_class": 1.09861228867},
])


def test_identical_output_passes():
    assert compare(capture(SWEEP_CSV), SWEEP_CSV) == []
    assert compare(capture(SWEEP_JSON), SWEEP_JSON) == []


@pytest.mark.parametrize("old, new", [(',2,3,', ',2,4,'), ('"[2,1]"', '"[2,2]"'), (',2,3,', ',3,3,')])
def test_flipped_digit_in_exact_column_fails(old, new):
    bad = SWEEP_CSV.decode().replace(old, new).encode()
    assert bad != SWEEP_CSV
    assert compare(capture(SWEEP_CSV), bad)


def test_flipped_digit_in_json_exact_column_fails():
    bad = SWEEP_JSON.replace(b'"class_size": "3"', b'"class_size": "5"')
    assert bad != SWEEP_JSON
    assert compare(capture(SWEEP_JSON), bad)


def _scale_real(text: str, value: str, factor: float) -> str:
    return text.replace(value, repr(float(value) * factor))


def test_tiny_relative_perturbation_of_real_column_passes():
    ok = _scale_real(SWEEP_CSV.decode(), "1.38629436112", 1 + 1e-13).encode()
    assert ok != SWEEP_CSV
    assert compare(capture(SWEEP_CSV), ok) == []
    ok = _scale_real(SWEEP_JSON.decode(), "1.09861228867", 1 - 1e-13).encode()
    assert ok != SWEEP_JSON
    assert compare(capture(SWEEP_JSON), ok) == []


def test_real_column_beyond_contract_fails():
    bad = _scale_real(SWEEP_CSV.decode(), "1.38629436112", 1 + 1e-9).encode()
    assert compare(capture(SWEEP_CSV), bad)


def test_zero_real_must_stay_zero():
    bad = SWEEP_CSV.decode().replace('"[1,1,1]",1,1,0,0', '"[1,1,1]",1,1,1e-300,0').encode()
    assert compare(capture(SWEEP_CSV), bad)


def test_row_count_and_payload_are_checked():
    short = SWEEP_CSV.rsplit(b"\n", 2)[0] + b"\n"
    assert compare(capture(SWEEP_CSV), short)
    moved = SWEEP_JSON.replace(b'"seed": null', b'"seed": 1')
    assert compare(capture(SWEEP_JSON), moved)
