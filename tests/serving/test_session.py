"""RequestSession admission validation and immutability."""

import dataclasses

import pytest

from repro.serving.session import BadRequest, RequestSession

GOOD = {"row": [1, 2, 3], "seed": 7, "disclosure": [0, 2]}


def test_from_payload_round_trip():
    session = RequestSession.from_payload(
        "req-000001", dict(GOOD), default_disclosure=[0, 1, 2],
        n_features=3,
    )
    assert session.request_id == "req-000001"
    assert session.row == (1, 2, 3)
    assert session.seed == 7
    assert session.disclosure == (0, 2)


def test_missing_disclosure_copies_the_default():
    default = [0, 1]
    session = RequestSession.from_payload(
        "req-000002", {"row": [5], "seed": 1}, default_disclosure=default,
        n_features=1,
    )
    assert session.disclosure == (0, 1)
    # The default list was copied, not aliased: mutating it later cannot
    # leak into an admitted request.
    default.append(9)
    assert session.disclosure == (0, 1)


def test_explicit_null_disclosure_also_copies_the_default():
    session = RequestSession.from_payload(
        "req-000003", {"row": [5, 5, 5, 5], "seed": 1, "disclosure": None},
        default_disclosure=(3,), n_features=4,
    )
    assert session.disclosure == (3,)


def test_session_is_frozen():
    session = RequestSession.from_payload(
        "req-000004", dict(GOOD), default_disclosure=[], n_features=3
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        session.disclosure = (9,)


@pytest.mark.parametrize("payload", [
    "not a dict",
    {},
    {"row": [1, 2]},                               # no seed
    {"seed": 3},                                   # no row
    {"row": [], "seed": 3},                        # empty row
    {"row": "12", "seed": 3},                      # row not a list
    {"row": [1], "seed": "x"},                     # non-integer seed
    {"row": [1, "y"], "seed": 3},                  # non-integer row entry
    {"row": [1], "seed": 3, "disclosure": "ab"},   # disclosure not a list
    {"row": [1], "seed": 3, "disclosure": [0, "z"]},
    {"row": [1], "seed": 3, "disclosure": [0, 1]},  # index past the schema
    {"row": [1], "seed": 3, "disclosure": [-1]},    # negative index
    {"row": [1, 2], "seed": 3},                    # row wider than schema
])
def test_malformed_payloads_raise_bad_request(payload):
    with pytest.raises(BadRequest):
        RequestSession.from_payload(
            "req-0", payload, default_disclosure=[], n_features=1
        )
