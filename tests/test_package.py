"""The package surface, served on first use, and what a cold CLI call imports."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import splitmev
from splitmev import amm_core, cli, config, failure_models, fee_accounting, sequencer_sim, split_optimizer
from splitmev import trace_analysis

MODULES = (amm_core, failure_models, split_optimizer, sequencer_sim, fee_accounting, trace_analysis)

# a fresh interpreter: the modules loaded after importing the CLI, after one CLI call, and after
# importing two names of numpy-free modules
COLD_CALL = """
import sys
import splitmev.cli
loaded = [sorted(sys.modules)]
code = splitmev.cli.main(sys.argv[1:])
loaded.append(sorted(sys.modules))
from splitmev import DomainError, read_records_csv
loaded.append(sorted(sys.modules))
print(code, *map(" ".join, loaded), sep="\\n")
"""


# a subcommand, its inputs (relative to the repository), the modules it must not load, and one of
# its outputs
@pytest.mark.parametrize("command, inputs, unloaded, output", [
    ("analyze", ["--traces", "tests/fixtures/traces", "--labels", "tests/fixtures/labels.csv", "--records",
                 "tests/fixtures/records.csv"],
     ("splitmev.sequencer_sim", "splitmev.split_optimizer", "splitmev.failure_models"), "classifications.jsonl"),
    ("optimize", ["--config", "configs/optimize_worked.json"], ("splitmev.sequencer_sim", "datetime"), "plan.json"),
], ids=["analyze", "optimize"])
def test_cold_call_imports_no_numpy(tmp_path, command, inputs, unloaded, output):
    root = pathlib.Path(__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(splitmev.__file__).parents[1])}
    args = ["--quiet", command, *inputs, "--out", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-c", COLD_CALL, *args], cwd=root, env=env, capture_output=True, text=True)
    assert proc.stderr == ""
    code, after_import, after_call, after_names = proc.stdout.splitlines()
    assert code == "0"
    assert "numpy" not in after_import.split()
    assert "datetime" not in after_import.split()
    assert "numpy" not in after_call.split()
    assert "numpy" not in after_names.split()
    for name in unloaded:
        assert name not in after_call.split()
    assert (tmp_path / output).stat().st_size > 0


def test_star_import_binds_every_modules_all():
    namespace = {}
    exec("from splitmev import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == {"__version__"}.union(*(module.__all__ for module in MODULES))
    for module in MODULES:
        for name in module.__all__:
            assert getattr(splitmev, name) is getattr(module, name) is namespace[name], name


@pytest.mark.parametrize("name, sites", [
    ("DomainError", (splitmev, amm_core, failure_models, split_optimizer, cli)),
    ("ConfigError", (splitmev, sequencer_sim, cli)),
    ("NoRootError", (splitmev, split_optimizer, sequencer_sim, cli)),
    ("SchemaError", (splitmev, fee_accounting, trace_analysis, cli)),
    ("TraceParseError", (splitmev, trace_analysis, cli)),
])
def test_exit_contract_errors_are_one_class(name, sites):
    for site in sites:
        assert getattr(site, name) is getattr(config, name), site.__name__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        splitmev.no_such_name
    assert not hasattr(splitmev, "__no_such_dunder__")


def test_no_module_imports_another_modules_private_name():
    imports = []
    for source in sorted(pathlib.Path(splitmev.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                imports += [f"{source.stem}: .{node.module}.{alias.name}" for alias in node.names]
    assert imports  # the walk sees the package's relative imports
    assert [line for line in imports if line.rpartition(".")[2].startswith("_")] == []
