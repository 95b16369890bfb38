"""`PlanRequest.from_dict`'s mix parse: one canonicalization per
distinct raw spec, with every item still checked.

The oracle is the per-item parse, ``TrafficItem.from_dict`` of each mix
item in order: the memoized parse must build equal items and fail on
the same item with the same error type and message.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api.errors import ApiError, ValidationError
from repro.api.plan import PlanRequest, PoolEntry, TrafficItem

POOL = [{"machine": "knl7210", "nodes": 8}]
GOOD = {"workload": "dgemm", "size_gb": 4.0, "num_threads": 1, "weight": 0.5}


def _body(mix):
    return {"mix": mix, "pool": POOL}


def _per_item(mix) -> PlanRequest:
    """The oracle: each item parsed on its own."""
    return PlanRequest(
        mix=tuple(TrafficItem.from_dict(item) for item in mix),
        pool=tuple(PoolEntry.from_dict(entry) for entry in POOL),
    )


def _outcome(parse, mix):
    try:
        request = parse(mix)
    except ApiError as exc:
        return type(exc), str(exc)
    # Values and their types: 4 == 4.0, but the wire spells them apart.
    return [
        [(type(v), v) for v in vars(item).values()] for item in request.mix
    ]


def _memoized(mix) -> PlanRequest:
    return PlanRequest.from_dict(_body(mix))


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"size_gb": 4.0}, "missing required field(s): workload"),
        (
            {"workload": "dgemm", "size_gb": 4.0, "tenant": "a"},
            "unknown field(s): tenant",
        ),
        ({**GOOD, "num_threads": True}, "num_threads must be an integer, got True"),
        ({**GOOD, "num_threads": 1.0}, "num_threads must be an integer, got 1.0"),
        ("dgemm", "expected a mapping, got str"),
        ([["workload", "dgemm"]], "expected a mapping, got list"),
        (None, "expected a mapping, got NoneType"),
        (
            {**GOOD, "size_gb": float("nan")},
            "size_gb must be positive and finite, got nan",
        ),
        ({**GOOD, "size_gb": 0}, "size_gb must be positive and finite, got 0"),
        (
            {**GOOD, "size_gb": -0.0},
            "size_gb must be positive and finite, got -0.0",
        ),
        ({**GOOD, "weight": 0.0}, "weight must be positive and finite, got 0.0"),
        (
            {**GOOD, "workload": ["dgemm"]},
            "workload must be a non-empty string, got ['dgemm']",
        ),
    ],
    ids=[
        "missing-key",
        "extra-key",
        "threads-true",
        "threads-float",
        "string-item",
        "list-item",
        "null-item",
        "nan-size",
        "zero-size",
        "negative-zero-size",
        "zero-weight",
        "unhashable-workload",
    ],
)
def test_malformed_item_raises_the_per_item_error(bad, message):
    # The valid twin first, so a memo that aliased 1 with True or 1.0
    # would accept the bad item.
    mix = [GOOD, dict(GOOD), bad]
    with pytest.raises(ValidationError) as memoized:
        _memoized(mix)
    with pytest.raises(ValidationError) as per_item:
        TrafficItem.from_dict(bad)
    assert str(memoized.value) == str(per_item.value) == message
    assert type(memoized.value) is type(per_item.value)


def test_omitted_optional_keys_take_their_defaults():
    request = _memoized(
        [{"workload": "DGEMM", "size_gb": 4}, {"workload": "dgemm", "size_gb": 4.0}]
    )
    assert request.mix == (TrafficItem("dgemm", 4.0, 64, 1.0),) * 2
    assert _outcome(_memoized, [{"workload": "gups", "size_gb": 2}]) == [
        [(str, "gups"), (float, 2.0), (int, 64), (float, 1.0)]
    ]


#: Raw values a JSON body can carry, valid and not, with equal-comparing
#: spellings of the same number (1, 1.0, True) so specs repeat.
raw_values = st.sampled_from(
    [1, 1.0, True, False, 0, 0.0, -0.0, 64, 4.0, 4, 2.5, float("nan"), -1,
     "dgemm", "DGEMM", "gups", "", None, [1]]
)
raw_items = st.one_of(
    st.fixed_dictionaries(
        {"workload": st.sampled_from(["dgemm", "DGEMM", "gups", "minife"])},
        optional={
            "size_gb": st.sampled_from([4.0, 4, 2.5, 8]) | raw_values,
            "num_threads": st.sampled_from([64, 16, 1]) | raw_values,
            "weight": st.floats(0.01, 3.0) | raw_values,
        },
    ),
    st.dictionaries(
        st.sampled_from(["workload", "size_gb", "num_threads", "weight", "x"]),
        raw_values,
    ),
    raw_values,
)


@given(mix=st.lists(raw_items, min_size=1, max_size=12))
def test_memoized_parse_equals_the_per_item_parse(mix):
    assert _outcome(_memoized, mix) == _outcome(_per_item, mix)


@given(
    mix=st.lists(
        st.fixed_dictionaries(
            {
                "workload": st.sampled_from(["dgemm", "DGEMM", "gups"]),
                "size_gb": st.sampled_from([4.0, 4, 2.5]),
            },
            optional={
                "num_threads": st.sampled_from([16, 64]),
                "weight": st.floats(0.01, 3.0),
            },
        ),
        min_size=1,
        max_size=20,
    )
)
def test_valid_mixes_parse_to_equal_requests(mix):
    assert _memoized(mix) == _per_item(mix)
