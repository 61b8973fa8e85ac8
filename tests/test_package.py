"""Package surface: exports resolved on first use, a CLI that starts the
exact subcommands without numpy, and no unused module-level import."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# every public name of the package in its eagerly importing form
EXPORTS = [
    "AdmissibleSet", "BoundaryPoint", "CartanDatum", "CentralMeasure", "CrystalB",
    "DimensionCap", "DominantFace", "EnumerationCap", "GrowthGraph", "InvalidWeight",
    "LevelCap", "LocateResult", "NoConvergence", "NotAWeight", "NotAdmissible",
    "NotDominantDrift", "NotInPolytope", "OrderViolation", "PLPath", "SimReport",
    "Trajectory", "UnsupportedType", "WeightMultiset", "WeylElement", "WeylWalksError",
    "admissible_subsets", "boundary", "boundary_point", "build_growth_graph",
    "build_root_system", "c_harmonic_level", "cartan_type", "central_measure", "chars",
    "concat", "count_paths", "dominant_faces", "dominant_representative", "errors",
    "evaluate_S", "exterior_power_char", "generate_crystal", "harmonic_function_check",
    "harmonicity_residual", "highest_weight_witness", "in_chamber", "in_unit_box_delta",
    "invert_drift", "is_admissible", "lln_check", "locate", "minimal_coset_rep",
    "montecarlo", "paths", "pitman_chain", "pitman_equality_in_law", "pitman_transform",
    "polytope", "psi_eval", "random_boundary_point", "root_operator", "rootdata", "s_hat",
    "s_hat_t", "sample_trajectory", "straight_path", "tensor_decompose",
    "total_positivity_min_minor", "wadd", "weight", "weight_multiplicities", "weyl_dim",
    "wscale", "wsub", "wzero", "__version__",
]


def _python(code, *argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, timeout=120)


def test_every_export_imports_from_a_fresh_package():
    code = "\n".join([
        "import sys, weylwalks",
        "assert 'numpy' not in sys.modules and 'weylwalks.rootdata' not in sys.modules",
        *(f"from weylwalks import {name}" for name in EXPORTS),
        "from weylwalks import rootdata",
        "assert weylwalks.build_root_system is rootdata.build_root_system",
        "try:",
        "    weylwalks.no_such_name",
        "except AttributeError:",
        "    print('ok')",
    ])
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


COLD_CLI = """
import sys
from weylwalks.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --help
    code = exc.code
print(code, "numpy" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize("argv,loads_numpy", [
    (["--help"], False),
    (["root", "info", "--type", "F4"], False),
    (["crystal", "build", "--type", "G2", "--delta", "1,0"], False),
    (["graph", "build", "--type", "B2", "--delta", "1,0", "--kind", "chamber", "--nmax", "3"],
     False),
    (["sample", "--type", "A1", "--delta", "1", "--mode", "free", "--m", "0.2",
      "--steps", "3", "--seed", "1"], True),
    (["polytope", "faces", "--type", "A3", "--delta", "1,0,1"], False),
])
def test_exact_subcommands_start_without_numpy(argv, loads_numpy):
    proc = _python(COLD_CLI, *argv)
    assert proc.stderr.splitlines()[-1] == f"0 {loads_numpy}", proc.stderr
    assert proc.stdout


ROOT_INFO = """
import sys
from weylwalks.cli import main
from weylwalks.rootdata import cartan_type
assert main(["root", "info", "--type", "F4"]) == 0
print("elements" in vars(cartan_type("F4")),
      *sorted(m for m in sys.modules if m.startswith("weylwalks.")), file=sys.stderr)
"""


def test_root_info_loads_root_data_alone():
    # |W| comes from the root heights: the F4 datum enumerates no element, and no
    # layer above rootdata is imported
    proc = _python(ROOT_INFO)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["False", "weylwalks.cli", "weylwalks.errors",
                                   "weylwalks.rootdata"]
    assert '"weyl_order": 1152' in proc.stdout


NO_LAYER = """
import sys
from weylwalks.cli import main
try:
    main(sys.argv[1:])
except SystemExit:  # --help or a usage error
    pass
print(*sorted(m for m in sys.modules if m.startswith("weylwalks.")), file=sys.stderr)
"""


@pytest.mark.parametrize("argv", [["--help"], ["root", "info"], ["graph", "build", "--kind", "x"]])
def test_help_and_usage_errors_load_no_layer(argv):
    # only the --type parser imports rootdata
    proc = _python(NO_LAYER, *argv)
    assert proc.stderr.splitlines()[-1].split() == ["weylwalks.cli", "weylwalks.errors"]


def _unused_imports(source):
    """Names that the module-level imports of `source` bind and that nothing
    else in it reads (`from __future__` aside)."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_import_check_sees_bound_names():
    assert _unused_imports("import os.path\nimport numpy as np\n"
                           "from a import b, c as d\nprint(np, d)\n") == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("module", sorted(p.name for p in (Path(SRC) / "weylwalks").glob("*.py")))
def test_every_module_level_import_is_used(module):
    source = (Path(SRC) / "weylwalks" / module).read_text()
    assert _unused_imports(source) == []


def test_benchmark_trace_points_resolve():
    # perfbench/spans.py wraps each (module, attribute path) of SPANS by getattr,
    # so renaming or deleting one of them breaks the traced benchmark runs
    tree = ast.parse((Path(SRC).parent / "perfbench" / "spans.py").read_text())
    spans = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["SPANS"])
    assert spans
    for module_name, attr_path in spans:
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr_path)
