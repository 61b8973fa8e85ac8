"""The acceptance gate: every criterion at its stated tolerance, one line each."""

import pytest

from weylwalks.acceptance import CRITERIA, run_acceptance

_RESULTS = {}


def _get(number):
    if number not in _RESULTS:
        (result,) = run_acceptance(criteria=[number])
        _RESULTS[number] = result
    return _RESULTS[number]


@pytest.mark.parametrize("number,name", [(n, name) for n, name, _, _ in CRITERIA],
                         ids=[f"criterion_{n}" for n, _, _, _ in CRITERIA])
def test_acceptance_criterion(number, name, capsys):
    result = _get(number)
    with capsys.disabled():
        print(result.line())
    assert result.passed, result.details


PAIRS = ["A1 (1,)", "A1 (2,)", "A2 (1, 0)", "A2 (1, 1)", "B2 (1, 0)", "B2 (0, 1)", "G2 (1, 0)"]
PAIR_KEYS = {
    1: {"size", "dim", "endpoints_match"},
    2: {"n_max", "free", "chamber"},
    3: {"max_residual"},
    4: {"max_round_trip", "patterns", "one_set_equivalence",
        "delta_pattern_walls_orthogonal_to_face"},
    5: {"n_faces", "n_admissible", "ok"},
    6: {"n_max", "max_tv"},
    8: {"grad_at_one", "min_is_dim", "empty_at_0.9", "singleton_at_1"},
    9: {"wedge_decompositions", "min_minor"},
}


@pytest.mark.parametrize("number", [n for n, _, _, _ in CRITERIA],
                         ids=[f"criterion_{n}" for n, _, _, _ in CRITERIA])
def test_verify_output_schema(number):
    # keys only: the values are floats whose last bits may move with numpy
    doc = _get(number).to_jsonable()
    assert set(doc) == {"criterion", "name", "passed", "runtime_s", "budget_s", "details"}
    assert doc["passed"] is True
    details = doc["details"]
    if number == 7:
        assert list(details) == ["A1", "A2", "B2", "G2"]
        assert all(set(row) == {"max_deviation", "steps", "seeds"} for row in details.values())
    elif number == 10:
        assert set(details) == {"extreme_points_recovered", "image_in_simplex",
                                "simplex_in_image", "vertices_in_polytope"}
    else:
        assert list(details) == PAIRS
        for pair, row in details.items():
            extra = {"known_admissible_list"} if (number, pair) == (5, "A2 (1, 0)") else set()
            assert set(row) == PAIR_KEYS[number] | extra, pair
