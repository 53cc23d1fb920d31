"""Imports deferred to first use.

`import contextuality` does not load numpy: the paradox detectors, the
inequalities, the fixtures and most `ctx` commands never touch it. A module
that needs numpy binds a stand-in under its usual name; the first attribute
read imports the real module and rebinds the name in that module's globals,
so every later read is a plain global lookup.
"""
from __future__ import annotations

import importlib


class Deferred:
    """Stand-in for the module `module`, bound as `name` in `namespace`."""

    def __init__(self, module: str, namespace: dict, name: str) -> None:
        self._module = module
        self._namespace = namespace
        self._name = name

    def __getattr__(self, attr: str):
        module = importlib.import_module(self._module)
        self._namespace[self._name] = module
        return getattr(module, attr)
