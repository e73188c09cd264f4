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
    "adversary": ["flatten_perturbation", "improvement_envelope", "iterate_improvement", "refine_interpolant"],
    "certifier": ["Certificate", "LevelCount", "certify", "enumerate_cubes", "resolve_depth", "theory_lower_bound",
                  "theory_upper_curve"],
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
IDENTITY = translab.ModulusSpec.power(1.0, 1.0)
CONFIG = dict(alpha=1.0, lam=1.0, d=1, m=1, p=0, j_min=6, j_max=8)
# every entry point that takes a count: (the name its refusal gives, its error, a call with the count)
COUNTS = {
    "F.d": ("d", translab.DomainError, lambda v: translab.ExtremalFunction(beta=IDENTITY, d=v, q=1)),
    "F.q": ("q", translab.DomainError, lambda v: translab.ExtremalFunction(beta=IDENTITY, d=2, q=v)),
    "F.p": ("p", translab.DomainError, lambda v: translab.ExtremalFunction(beta=IDENTITY, d=1, q=1, p=v)),
    **{f"SweepConfig.{name}": (name, translab.ConfigError,
                               lambda v, name=name: translab.SweepConfig(**{**CONFIG, name: v}))
       for name in ("d", "m", "p", "j_min", "j_max")},
    "iterate_improvement.rounds": ("rounds", translab.DomainError,
                                   lambda v: translab.iterate_improvement(lambda s: s - 0.5, 2.0**-6, 1.0, v)),
    "certify.z_grid": ("z-grid", translab.DomainError, lambda v: translab.certify(
        translab.ExtremalFunction(beta=IDENTITY, d=2, q=1), 2.0**-7, h=lambda x: [0.0], z_grid=v)),
    "resolve_depth.q": ("q", translab.DomainError, lambda v: translab.resolve_depth(IDENTITY, v, 2.0**-8)),
}


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


def cap_raises(path):
    """Line numbers of the ``raise`` statements in a file that name ``EnumerationCapError``, bare or dotted."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and any(getattr(name, "id", getattr(name, "attr", None)) == "EnumerationCapError" for name in ast.walk(node))
    ]


def test_enumeration_cap_error_is_raised_only_by_the_work_guard():
    # every work limit goes through funcrep.check_work, so each cap has one message shape
    funcrep = next(path for path in SOURCES if path.name == "funcrep.py")
    guard = next(node for node in ast.walk(ast.parse(funcrep.read_text()))
                 if isinstance(node, ast.FunctionDef) and node.name == "check_work")
    raises = {(path.name, line) for path in SOURCES for line in cap_raises(path)}
    assert raises and all(name == "funcrep.py" and guard.lineno <= line <= guard.end_lineno for name, line in raises)


def test_cap_raises_sees_a_raise_anywhere(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("def f():\n    raise EnumerationCapError('x')\n"
                    "def g():\n    if 1:\n        raise errors.EnumerationCapError\n"
                    "raise ValueError\n")
    assert cap_raises(path) == [2, 5]


def test_imported_modules_sees_relative_imports(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import os\nfrom .adversary import X\nfrom . import driver\nfrom ..pkg.sub import Y\n")
    assert list(imported_modules(path)) == ["os", ".adversary", ".driver", "..pkg.sub"]


def dead_private_helpers(paths):
    """The private functions and classes defined in the files that no name or attribute there reads, as "file: name"."""
    defined, read = [], set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((path.name, node.name))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{file}: {name}" for file, name in defined if name not in read]


def test_every_private_helper_is_used():
    # a helper is private to the package, so a name nothing in it reads is dead code
    assert len(SOURCES) > 1 and dead_private_helpers(SOURCES) == []


def test_dead_private_helpers_sees_functions_classes_and_methods(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("def _used():\n    pass\ndef _dead():\n    pass\n"
                    "class _Dead:\n    def _method(self):\n        pass\n    def __init__(self):\n        pass\n"
                    "class A:\n    def _called(self):\n        return _used()\nA()._called()\n")
    assert dead_private_helpers([path]) == ["m.py: _dead", "m.py: _Dead", "m.py: _method"]


def tracer_names(paths):
    """What each mention of perfbench in the files is kept for, as "module.name": the names an import line
    that mentions it binds, and the function below a comment that mentions it; any other mention as "module:line"."""
    names = []
    for path in paths:
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if "perfbench" not in line:
                continue
            code = line.split("#", 1)[0].strip()
            if code.startswith(("from ", "import ")):
                names += [f"{path.stem}.{alias.asname or alias.name}" for alias in ast.parse(code).body[0].names]
                continue
            below = next((rest for rest in lines[i + 1 :] if not rest.lstrip().startswith("#")), "")
            match = None if code else re.match(r"def (\w+)\(", below)
            names.append(f"{path.stem}.{match[1]}" if match else f"{path.stem}:{i + 1}")
    return sorted(names)


def test_src_mentions_perfbench_only_at_the_names_its_tracer_patches():
    # names kept only so that perfbench's tracer finds them; a new one fails
    # here until it is added on purpose, and the list empties as the tracer
    # moves to the names the program calls
    assert tracer_names(SOURCES) == ["certifier.enumerate_cubes", "driver.count_zero_components",
                                     "driver.flatten_perturbation", "driver.refine_interpolant"]


def test_tracer_names_sees_imports_commented_functions_and_stray_mentions(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from .a import b, c as d  # noqa: F401  perfbench wraps these\n"
                    "# perfbench wraps\n# this one\ndef kept(x):\n    pass\n"
                    "x = 1  # perfbench reads x\n\n# perfbench\n\nclass K:\n    pass\n")
    assert tracer_names([path]) == ["m.b", "m.d", "m.kept", "m:6", "m:8"]


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
    assert after_perturb["translab.adversary"] and not after_perturb["translab.driver"]


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


@pytest.mark.parametrize("value", [1.5, 2.0, "2"], ids=repr)
@pytest.mark.parametrize("entry", COUNTS)
def test_every_count_refuses_a_non_integer(entry, value):
    # one rule, one message shape: a float or a string is a package error, never a TypeError
    name, error, call = COUNTS[entry]
    with pytest.raises(error, match=f"^{re.escape(f'{name} must be an integer, got {value!r}')}$"):
        call(value)
