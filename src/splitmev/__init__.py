"""splitmev: trade-splitting optimization, sequencer simulation, and
revert-trace analytics for CEX-DEX arbitrage on fast-finality chains.

Each public name is imported from its module on first use (PEP 562), so
``import splitmev.cli`` loads no module that its subcommand does not use;
``from splitmev import *`` still binds every module's ``__all__``."""

import importlib

__version__ = "0.1.0"

# the modules whose __all__ the package serves; only the last imports numpy, so no other's names load it
_MODULES = ("amm_core", "fee_accounting", "trace_analysis", "failure_models", "split_optimizer", "sequencer_sim")


def __getattr__(name: str):
    if name in (*_MODULES, "cli", "config"):  # a submodule, as ``from splitmev import cli`` asks for it
        return importlib.import_module(f"{__name__}.{name}")
    names = ["__version__"]
    for module in map(importlib.import_module, (f"{__name__}.{m}" for m in _MODULES)):
        if name in module.__all__:
            value = getattr(module, name)
            break
        names += module.__all__
    else:
        if name != "__all__":
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = names
    globals()[name] = value
    return value
