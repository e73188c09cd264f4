import ast
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import translab
from translab import cli

SOURCES = sorted(Path(translab.__file__).parent.rglob("*.py"))
CORE = ("errors", "modulus", "funcrep", "extremal", "chart", "certifier")
# every public name translab exported when it imported all its submodules eagerly
EXPORTS = {
    "adversary": ["flatten_perturbation", "improvement_envelope", "iterate_improvement", "refine_interpolant",
                  "theory_upper_curve"],
    "certifier": ["Certificate", "LevelCount", "certify", "enumerate_cubes", "resolve_depth", "theory_lower_bound"],
    "chart": ["Chart", "affine_chart", "gamma_w", "identity_chart", "polar_demo_chart", "pullback_perturbation",
              "transport_function"],
    "driver": ["SweepConfig", "SweepRecord", "fit_slope", "parse_config", "read_csv", "sweep", "write_csv"],
    "errors": ["ConfigError", "DomainError", "EnumerationCapError", "RangeEscapeError", "ShapeError",
               "TranslabError"],
    "extremal": ["ExtremalFunction", "LevelSchedule", "ResolutionWarning", "level_schedule", "profile", "profile_many"],
    "funcrep": ["SampledFunction", "ZeroSetSummary", "count_zero_components", "nudge_knot_zeros", "sup_distance"],
    "modulus": ["AxiomReport", "ModulusSpec", "check_modulus_axioms"],
}
README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """Every ``translab ...`` line of the README's "Command line" section."""
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return [line for block in re.findall(r"```bash\n(.*?)```", section, re.S)
            for line in block.splitlines() if line.startswith("translab ")]


def imported_modules(path):
    """Every module a file imports; a relative one keeps its leading dots, as in ``.adversary``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            # ``from . import x`` imports the submodule x
            yield from ([base + alias.name for alias in node.names] if node.module is None else [base])


def run_fresh(script):
    """Run a script in a new interpreter that imports translab from this checkout; return its last line as JSON."""
    src = str(Path(translab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def test_no_module_imports_fractions():
    # level geometry is exact doubles; Fraction arithmetic lives only in test oracles
    assert SOURCES
    offenders = [
        path.name
        for path in SOURCES
        if any(name.split(".")[0] == "fractions" for name in imported_modules(path))
    ]
    assert offenders == []


def test_core_modules_never_import_the_adversary_or_driver():
    # import translab loads only the core, so a core import of either would load it on every import
    by_name = {path.stem: path for path in SOURCES}
    offenders = [
        f"{by_name[name].name} imports {module}"
        for name in CORE
        for module in imported_modules(by_name[name])
        if module in (".adversary", ".driver", "translab.adversary", "translab.driver")
    ]
    assert offenders == []


def test_imported_modules_sees_relative_imports(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import os\nfrom .adversary import X\nfrom . import driver\nfrom ..pkg.sub import Y\n")
    assert list(imported_modules(path)) == ["os", ".adversary", ".driver", "..pkg.sub"]


LOADED = """
import json, sys
def loaded():
    return {name: name in sys.modules for name in ("translab.certifier", "translab.chart", "translab.adversary",
                                                   "translab.driver", "csv")}
"""


def test_import_loads_only_the_certify_core():
    seen = run_fresh(LOADED + """
import translab
after_import = loaded()
F = translab.ExtremalFunction(beta=translab.ModulusSpec.power(1.0, 1.0), d=1, q=1)
cert = translab.certify(F, 2.0**-12, h=F.sample(2.0**-10))
after_certify = loaded()
translab.sweep
print(json.dumps([after_import, after_certify, loaded(), cert.mode]))
""")
    core = {"translab.certifier": True, "translab.chart": True}
    extras = {"translab.adversary": False, "translab.driver": False, "csv": False}
    assert seen[0] == seen[1] == {**core, **extras}
    assert seen[2] == {**core, **{name: True for name in extras}}
    assert seen[3] == "empirical"


def test_submodules_resolve_as_attributes_after_a_bare_import():
    # a tracer reads translab.driver before it touches any driver name
    seen = run_fresh(LOADED + """
import translab
print(json.dumps([translab.driver.__name__, translab.adversary.__name__, loaded()["translab.driver"]]))
""")
    assert seen == ["translab.driver", "translab.adversary", True]


def test_cli_loads_the_extras_only_for_perturb_and_sweep(tmp_path):
    f, h = str(tmp_path / "f.txt"), str(tmp_path / "h.txt")
    shape = ["--alpha", "1", "--lambda", "1", "--d", "1", "--m", "1", "--p", "0"]
    core_runs = [
        ["modulus", "--kind", "power", "--lambda", "2", "--alpha", "0.5", "--eval", "0.25"],
        ["build", *shape, "--sample", "0.00390625", "--out", f],
        ["eval", "--func", f, "--at", "0.0625"],
        ["certify", *shape, "--eps", "0.0078125", "--h", f],
    ]
    perturb = ["perturb", "--mode", "flatten", "--eps", "0.0078125", "--C", "0.25", "--out", h]
    seen = run_fresh(LOADED + f"""
from translab import cli
codes = [cli.main(argv) for argv in {core_runs!r}]
after_core = loaded()
codes.append(cli.main({perturb!r}))
print(json.dumps([codes, after_core, loaded()]))
""")
    codes, after_core, after_perturb = seen
    assert codes == [0] * 5
    assert not any(after_core[name] for name in ("translab.adversary", "translab.driver", "csv"))
    assert after_perturb["translab.adversary"] and after_perturb["translab.driver"]


def test_every_export_is_its_submodules_object():
    # in a fresh interpreter, so that each name's first access goes through the lazy loader
    mismatched = run_fresh(f"""
import importlib, json, translab
wrong = []
for module, names in {EXPORTS!r}.items():
    owner = importlib.import_module("translab." + module)
    wrong += [module] if getattr(translab, module) is not owner else []
    wrong += [module + "." + name for name in names if getattr(translab, name) is not getattr(owner, name)]
print(json.dumps(wrong))
""")
    assert mismatched == []


def test_dir_and_star_import_give_every_export():
    seen = run_fresh(LOADED + """
import translab
listed = dir(translab)
before_star = loaded()
namespace = {}
exec("from translab import *", namespace)
print(json.dumps([listed, sorted(namespace), before_star["translab.driver"]]))
""")
    listed, starred, loaded_by_dir = seen
    exported = {name for names in EXPORTS.values() for name in names} | set(EXPORTS)
    assert exported <= set(listed)
    assert exported <= set(starred)
    assert not loaded_by_dir  # listing the names loads nothing


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        translab.no_such_name


def test_readme_lists_every_subcommand():
    used = {shlex.split(line)[1] for line in readme_commands()}
    assert used == {"modulus", "eval", "build", "certify", "perturb", "sweep"}


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_parses(line):
    # a renamed or removed flag makes argparse exit here instead of misleading a reader
    args = cli.build_parser().parse_args(shlex.split(line)[1:])
    assert args.handler.__name__ == f"_cmd_{args.command}"
