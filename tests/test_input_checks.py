"""Input checks of the library and the CLI that no other test reaches: each
call below must raise its stated error, and each command must exit 2."""

import pytest

from weylwalks import (
    DimensionCap,
    NotDominantDrift,
    UnsupportedType,
    boundary_point,
    build_growth_graph,
    build_root_system,
    c_harmonic_level,
    cartan_type,
    chars,
    sample_trajectory,
)
from weylwalks.boundary import CentralMeasure
from weylwalks.cli import main

A2 = build_root_system("A", 2)
POINT = boundary_point(A2, (1, 0), (0.5, 0.5))

CASES = [
    (lambda: CentralMeasure("bogus", POINT), ValueError, "kind must be 'free' or 'chamber'"),
    (lambda: CentralMeasure("chamber", boundary_point(A2, (1, 0), (0.5, 0.5),
                                                      A2.element_of_word((0,)))),
     NotDominantDrift, r"chamber measures require a dominant drift \(w = identity\)"),
    (lambda: c_harmonic_level(A2, (1, 0), 0.0), ValueError, "c must be positive"),
    (lambda: sample_trajectory(CentralMeasure("chamber", POINT), -1, 0), ValueError,
     "steps must be nonnegative"),
    (lambda: chars.tensor_decompose(A2, (30, 30), (30, 30)), DimensionCap,
     "tensor product dimension exceeds cap"),
    (lambda: chars.exterior_power_char(A2, (1, 0), 4), ValueError, r"k=4 out of range 0\.\.3"),
    (lambda: chars.exterior_power_char(A2, (1, 0), -1), ValueError,
     r"k=-1 out of range 0\.\.3"),
    (lambda: chars.total_positivity_min_minor(A2, (1, 0), (0.5, 0.5), A2.identity, kmax=5),
     ValueError, "kmax is capped at 4"),
    (lambda: build_growth_graph(A2, "bogus", (1, 0), 2), ValueError,
     "kind must be 'free' or 'chamber'"),
    (lambda: build_root_system("A", "x"), UnsupportedType, "invalid rank 'x'"),
    (lambda: cartan_type("A"), UnsupportedType, "cannot parse Cartan type 'A'"),
]
IDS = ["measure-kind", "chamber-w", "c-zero", "negative-steps", "tensor-cap", "wedge-k-4",
       "wedge-k-minus-1", "kmax-5", "graph-kind", "rank-token", "type-token"]


@pytest.mark.parametrize("call, error, message", CASES, ids=IDS)
def test_input_check_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("argv, message", [
    (["verify", "--suite", "1,x"], "cannot parse --suite '1,x'"),
    (["drift", "invert", "--type", "A2", "--delta", "1,0,0", "--m", "0,0"],
     "--delta needs 2 coordinates, got 3"),
])
def test_cli_usage_check_exits_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and message in out.err
